"""Displaced-parity Bell combination B(3) and the scans around it.

Each correlation is pi^3 times a Wigner value of the squeezed coherent
state, so it lies in (0, 1] and |B(3)| < 4 always; |B(3)| <= 2 for any local
realistic model.  Displacements map to phase space as beta = (q + ip)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_numbers, check_strength, check_strengths, overflow_error
from .fock import build_arena, coherent_ket, displaced_parity, evolve
from .gaussian import _NORMS, GaussianState, _mode_sums, _quadratures, _rows, _wigner_modes, make_state
from .matrices import mode_gains

__all__ = [
    "BellSetting",
    "FIG2_ALPHA",
    "fig2_setting",
    "b3",
    "fig2_scan",
    "b3_oracle_check",
    "max_b3",
]

FIG2_ALPHA = (0.4, 0.5, 0.6)


@dataclass(frozen=True)
class BellSetting:
    """Six displacement amplitudes: three unprimed, three primed."""

    beta: tuple
    beta_prime: tuple


def fig2_setting(b) -> BellSetting:
    """The published scan pattern: beta = (0, 0, -b), beta' = (b, b, 0), b > 0.

    An array of magnitudes gives one setting per element: ``beta`` and
    ``beta_prime`` then have shape b.shape + (3,), which :func:`b3`
    evaluates in one call.
    """
    b = check_numbers(b, "displacement magnitude")
    if not (ok := (b > 0) & (b < math.inf)).all():
        bad = b.flat[np.argmin(ok)]
        raise InvalidParameterError(f"displacement magnitude must be positive and finite, got {bad}")
    beta, beta_prime = ((b[..., None] * unit).astype(complex) for unit in _FIG2_UNIT)
    if b.ndim == 0:  # a single setting keeps its plain-tuple form
        return BellSetting(beta=tuple(beta), beta_prime=tuple(beta_prime))
    return BellSetting(beta=beta, beta_prime=beta_prime)


# Which of the four correlation points of B(3) takes the primed amplitude in each mode:
# (b1,b2,b3'), (b1,b2',b3), (b1',b2,b3), (b1',b2',b3'); _combination subtracts the last.
_PRIMED = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
# beta and beta' of fig2_setting(1), and sqrt(2) (q, p) of its four correlation points, shape
# (4, 2, 3): b times them holds the bits that b3 forms from fig2_setting(b)
_FIG2_UNIT = np.array([[0.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
_FIG2_POINTS = _quadratures(np.where(_PRIMED, *_FIG2_UNIT[::-1]))
# The integer pattern of _mode_sums on those points.  Each entry of b * _FIG2_POINTS is 0 or
# +-c, c = fl(b sqrt(2)), so every sum in _mode_sums is exact or rounds once, to fl(k c) for
# the small integer k here, and its TwoSum error is 0: _mode_sums(b * _FIG2_POINTS) is
# c * _FIG2_MODES, up to the sign of zero, which the squares of the Wigner exponent drop.
# Its p half is zero (the settings are real) and so is its first point, the origin (b1, b2, b3')
_FIG2_MODES = _mode_sums(_FIG2_POINTS / math.sqrt(2))
# FIG2_ALPHA on the normal modes, and the correlation at the origin (b1, b2, b3') for every b and
# strength: pi^3 (exp(-E) / pi^3) as b3 forms it, E the squares of the displacement's q half
_FIG2_DISPLACEMENT = make_state(0.0, FIG2_ALPHA).displacement
_FIG2_ORIGIN = math.pi**3 * (np.exp(-_rows(_FIG2_DISPLACEMENT[0])) / math.pi**3)


def _combination(corr):
    return corr[..., 0] + corr[..., 1] + corr[..., 2] - corr[..., 3]  # (..., 4) correlations


def b3(state: GaussianState, setting: BellSetting) -> float | np.ndarray:
    """B(3) = E(b1,b2,b3') + E(b1,b2',b3) + E(b1',b2,b3) - E(b1',b2',b3').

    ``beta`` and ``beta_prime`` have shape (..., 3); the leading axes
    broadcast, and the result has their shape (a float for one setting).
    The four correlations of every setting come from one call of the Wigner kernel.
    """
    points = _points(setting)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused
        modes = _mode_sums(_quadratures(points))  # (..., 4, 2, 3), as _wigner_modes takes them
        total = _combination(math.pi**3 * _wigner_modes(state, modes, ("Bell settings", points)))
    return total if total.ndim else float(total)


def _points(setting: BellSetting) -> np.ndarray:
    # the four correlation points (..., 4, 3) of the settings, as _PRIMED picks them
    beta = check_numbers(setting.beta, "Bell settings", "iufc")
    beta_prime = check_numbers(setting.beta_prime, "Bell settings", "iufc")
    if beta.shape[-1:] != (3,) or beta_prime.shape[-1:] != (3,):
        raise InvalidParameterError("beta and beta_prime must have 3 components each")
    try:
        return np.where(_PRIMED, beta_prime[..., None, :], beta[..., None, :])
    except ValueError:
        raise InvalidParameterError(
            f"beta {beta.shape} and beta_prime {beta_prime.shape} do not broadcast") from None


def _fig2_b3(strengths: np.ndarray, gains: np.ndarray, b: np.ndarray) -> np.ndarray:
    # b3(make_state(strengths[i], FIG2_ALPHA), fig2_setting(b[i])) bit for bit, gains (S, 2, 3) and
    # finite b (S or 1, ...), from the q half of the last three points (the p rows are 0, FIG2_ALPHA
    # being real); points and modes lead, and the sums keep _rows' and _combination's order
    lead = (1,) * b.ndim
    t = (b * math.sqrt(2)) * _FIG2_MODES[1:, 0].reshape((3, 3) + lead) \
        * (gains[:, 0] / _NORMS).T.reshape((3, -1) + lead[1:])
    t -= _FIG2_DISPLACEMENT[0].reshape((3,) + lead)  # in place: fresh grid-sized arrays page-fault
    t *= t  # a zero entry's square is the displacement's, 0 times a finite gain being 0
    exponent = t[:, 0] + t[:, 1]
    exponent += t[:, 2]
    if not np.isfinite(exponent).all():  # b is finite, so it overflowed: name the first strength that did
        raise overflow_error("wigner exponent", strengths[np.nonzero(~np.isfinite(exponent))[1].min()])
    corr = np.exp(np.negative(exponent, out=exponent), out=exponent)
    corr /= math.pi**3
    corr *= math.pi**3
    return ((_FIG2_ORIGIN + corr[0]) + corr[1]) - corr[2]


def fig2_scan(strengths, b_values) -> tuple[np.ndarray, ...]:
    """Per strength: the displacement magnitude maximizing B(3) and the maximum.

    Each value is ``b3(make_state(strength, FIG2_ALPHA), fig2_setting(b))`` bit for bit, from the
    strength's gains alone (``matrices.mode_gains``).  The correlation points of magnitude b
    project onto the normal modes as fl(b sqrt(2)) times one fixed integer pattern, the bits
    ``_mode_sums`` gives them, so neither the b grid (positive, finite, strictly increasing) nor a
    refinement step forms points or sums modes, and only the q half of the three points off the
    origin is evaluated per b; an exponent that overflows is refused at the first strength, in
    scan order, where it does.  Grid-brackets the maximum (every strength on the whole grid, in
    one call), then refines it by golden section inside the bracketing cell down to a width of
    1e-10 (first/grid-lowest maximizer wins ties; the grid point wins when it beats the refined
    point), all strengths in lockstep, one evaluation per step; a strength whose bracket is
    narrow enough keeps its values, so each strength's entries equal a scan of it alone.
    Returns the columns (strength, b_star, b3_max), float64 arrays.
    """
    b_values = check_numbers(b_values, "b grid").reshape(-1)
    if b_values.size == 0:
        raise InvalidParameterError("empty scan grid")
    if not (b_values[0] > 0 and (np.diff(b_values) > 0).all() and b_values[-1] < math.inf):
        raise InvalidParameterError("b grid must be positive, finite and strictly increasing")
    strengths = check_strengths(strengths)
    gains = np.stack([mode_gains(s) for s in strengths])
    fn = lambda b: _fig2_b3(strengths, gains, b)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused
        values = fn(b_values[None])  # (strengths, grid) in one call
        top = np.argmax(values, axis=1)
        grid_best = values[np.arange(strengths.size), top]
        a = b_values[np.maximum(top - 1, 0)]
        b = b_values[np.minimum(top + 1, b_values.size - 1)]
        ratio = (math.sqrt(5) - 1) / 2
        x1 = b - ratio * (b - a)
        x2 = a + ratio * (b - a)
        f1, f2 = fn(np.stack([x1, x2], axis=-1)).T
        while (active := b - a > 1e-10).any():
            left = f1 >= f2  # keep the left interval on ties
            a_new, b_new = np.where(left, a, x1), np.where(left, x2, b)
            probe = np.where(left, b_new - ratio * (b_new - a_new), a_new + ratio * (b_new - a_new))
            f_probe = fn(probe)
            step = (a_new, b_new, np.where(left, probe, x2), np.where(left, x1, probe),
                    np.where(left, f_probe, f2), np.where(left, f1, f_probe))
            a, b, x1, x2, f1, f2 = (np.where(active, new, old)
                                    for new, old in zip(step, (a, b, x1, x2, f1, f2)))
        b_star = (a + b) / 2
        best = fn(b_star)
    use_grid = grid_best > best  # grid point beat the refined interior point
    b_star = np.where(use_grid, b_values[top], b_star)
    best = np.where(use_grid, grid_best, best)
    return strengths, b_star, best


def b3_oracle_check(strength: float, alpha, setting: BellSetting, cutoff: int) -> tuple:
    """B(3) from the Gaussian engine next to the Fock parity measurement.

    Returns (analytic, oracle), each of the settings' leading shape as in
    :func:`b3` (floats for one setting); restricted to |strength| <= 0.3
    where the truncated oracle is trustworthy at reachable cutoffs.
    """
    if abs(check_strength(strength)) > 0.3:
        raise InvalidParameterError("oracle regime is |strength| <= 0.3")
    state = make_state(strength, alpha)
    analytic = b3(state, setting)

    arena = build_arena(cutoff)
    ket = evolve(arena, strength, coherent_ket(arena, alpha))
    oracle = _combination(displaced_parity(arena, ket, _points(setting)))
    return analytic, oracle if oracle.ndim else float(oracle)


def max_b3(strengths) -> tuple[np.ndarray, ...]:
    """Per strength: the largest B(3) over symmetric settings about the mean amplitude.

    The settings are beta = mu + (a, a, a) and beta' = mu + (b, b, b), mu the
    mean amplitude <a_j> of each mode; for s < 0 the same numbers apply
    along p, beta = mu + i(a, a, a).  A coherent amplitude only translates
    the Wigner function, so the maximum does not depend on it.  Three
    correlations sit at offsets (a, a, b) and one at (b, b, b), so with the
    gains of ``matrices.mode_gains`` (the symmetric q mode scaled by e^{2s},
    the two plane modes by e^{-s}), for s >= 0,

        B(a, b) = 3 exp(-(2/3) e^{4s} (2a+b)^2 - (4/3) e^{-2s} (a-b)^2)
                  - exp(-6 e^{4s} b^2).

    In the gain-scaled coordinates x = sqrt(2/3) e^{2s} (2a+b) and
    y = (2/sqrt(3)) e^{-s} (a-b) this is 3 e^{-x^2-y^2} - e^{-(x - k y)^2},
    k^2 = 2 e^{6s}.  At fixed radius r the second term is smallest along
    (x, y) = r (1, -k)/sqrt(1+k^2), which leaves 3 e^{-u} - e^{-(1+k^2) u}
    in u = r^2: its derivative changes sign once, at u* = L/k^2 with
    L = ln((1+k^2)/3) = 6s + ln(1 + (e^{-6s}-1)/3) >= 0, so

        max B = 3 k^2/(1+k^2) e^{-u*},  a - b = R e^{-2s},  2a + b = -R e^{-8s},

    R = (sqrt(3)/2) sqrt(L/(2 + e^{-6s})).  It is 2 at s = 0 (u* = 0) and
    tends to 3 (with b -> -2a) as the squeezing grows.  (a, b) and (-a, -b)
    give the same B; a >= 0 is reported.  The reported maximum is ``b3`` of
    each strength's state at alpha = 0, mu = 0, at these settings.
    Returns the columns (strength, a, b, b3_max), float64 arrays.
    """
    strengths = check_strengths(strengths)
    states = [make_state(s, (0, 0, 0)) for s in strengths]  # gains that overflow are refused first
    s = np.abs(strengths)
    log_ratio = 6 * s + np.log1p(np.expm1(-6 * s) / 3)  # L, accurate as s -> 0
    radius = math.sqrt(3) / 2 * np.sqrt(log_ratio / (2 + np.exp(-6 * s)))
    plane, symmetric = radius * np.exp(-2 * s), radius * np.exp(-8 * s)  # a - b, -(2a + b)
    a = (plane - symmetric) / 3
    b = a - plane
    axis = np.where(strengths < 0, 1j, 1)[:, None] * np.ones(3)
    best = np.array([b3(state, BellSetting(beta=beta, beta_prime=beta_prime))
                     for state, beta, beta_prime in zip(states, a[:, None] * axis, b[:, None] * axis)])
    return strengths, a, b, best
