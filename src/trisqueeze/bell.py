"""Displaced-parity Bell combination B(3) and the scans around it.

Each correlation is pi^3 times a Wigner value of the squeezed coherent
state, so it lies in (0, 1] and |B(3)| < 4 always; |B(3)| <= 2 for any local
realistic model.  Displacements map to phase space as beta = (q + ip)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_strength
from .fock import build_arena, coherent_ket, displaced_parity, evolve
from .gaussian import GaussianState, _mode_sums, _quadratures, _wigner_modes, make_state

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
    b = np.asarray(b, dtype=float)
    if not (ok := (b > 0) & (b < math.inf)).all():
        bad = b.flat[np.argmin(ok)]
        raise InvalidParameterError(f"displacement magnitude must be positive and finite, got {bad}")
    beta, beta_prime = ((b[..., None] * unit).astype(complex) for unit in _FIG2_UNIT)
    if b.ndim == 0:  # a single setting keeps its plain-tuple form
        return BellSetting(beta=tuple(beta), beta_prime=tuple(beta_prime))
    return BellSetting(beta=beta, beta_prime=beta_prime)


# Which of the four correlation points of B(3) takes the primed amplitude
# in each mode: (b1,b2,b3'), (b1,b2',b3), (b1',b2,b3), (b1',b2',b3').
_PRIMED = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)
# beta and beta' of fig2_setting(1), and sqrt(2) (q, p) of its four correlation points, shape
# (4, 2, 3): b times them holds the bits that b3 forms from fig2_setting(b)
_FIG2_UNIT = np.array([[0.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
_FIG2_POINTS = _quadratures(np.where(_PRIMED, *_FIG2_UNIT[::-1]))


def b3(state: GaussianState, setting: BellSetting) -> float | np.ndarray:
    """B(3) = E(b1,b2,b3') + E(b1,b2',b3) + E(b1',b2,b3) - E(b1',b2',b3').

    ``beta`` and ``beta_prime`` have shape (..., 3); the leading axes
    broadcast, and the result has their shape (a float for one setting).
    The four correlations of every setting come from one call of the fig2_scan kernel.
    """
    beta = np.asarray(setting.beta, dtype=complex)
    beta_prime = np.asarray(setting.beta_prime, dtype=complex)
    if beta.shape[-1:] != (3,) or beta_prime.shape[-1:] != (3,):
        raise InvalidParameterError("beta and beta_prime must have 3 components each")
    try:
        points = np.where(_PRIMED, beta_prime[..., None, :], beta[..., None, :])
    except ValueError:
        raise InvalidParameterError(
            f"beta {beta.shape} and beta_prime {beta_prime.shape} do not broadcast") from None
    if points.ndim < state.gains.ndim:  # the four correlation points are not a strength axis
        raise InvalidParameterError("settings need a leading axis for each strength axis of the state")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused
        total = _b3(state, _quadratures(points))
    return total if total.ndim else float(total)


def _b3(state: GaussianState, points: np.ndarray, modes=None) -> np.ndarray:
    # B(3) from the correlation points (..., 4, 2, 3) in phase space and modes = _mode_sums(points),
    # formed here when not given; the caller ignores overflow and invalid values
    modes = _mode_sums(points) if modes is None else modes
    corr = math.pi**3 * _wigner_modes(state, points, modes)
    return corr[..., 0] + corr[..., 1] + corr[..., 2] - corr[..., 3]


def fig2_scan(strengths, b_values) -> list[tuple[float, float, float]]:
    """Per strength: the displacement magnitude maximizing B(3) and the maximum.

    Builds one state at ``FIG2_ALPHA`` batched over the strengths and
    projects the b grid (positive, strictly increasing) onto the normal modes once.
    Grid-brackets the maximum (one strength at a time, on that projection),
    then refines it by golden section inside the bracketing cell down to a
    width of 1e-10 (first/grid-lowest maximizer wins ties; the grid point
    wins when it beats the refined point), all strengths in lockstep, one
    evaluation per step; a row whose bracket is narrow enough keeps its
    values, so every row equals a scan of its strength alone, and each
    value is ``b3(state, fig2_setting(b))`` bit for bit.  Returns rows
    (strength, b_star, b3_max).
    """
    b_values = np.asarray(b_values, dtype=float).reshape(-1)
    if b_values.size == 0:
        raise InvalidParameterError("empty scan grid")
    if not (b_values[0] > 0 and (np.diff(b_values) > 0).all()):
        raise InvalidParameterError("b grid must be positive and strictly increasing")
    state = make_state(np.asarray(strengths, dtype=object).reshape(-1), FIG2_ALPHA)
    strengths = state.strength
    fn = lambda b: _b3(state, b[..., None, None, None] * _FIG2_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused
        grid = b_values[:, None, None, None] * _FIG2_POINTS
        modes = _mode_sums(grid)
        values = np.array([_b3(state[i], grid, modes) for i in range(strengths.size)])
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
    return [(float(s), float(x), float(v)) for s, x, v in zip(strengths, b_star, best)]


def b3_oracle_check(strength: float, alpha, setting: BellSetting, cutoff: int) -> tuple[float, float]:
    """B(3) from the Gaussian engine next to the Fock parity measurement.

    Returns (analytic, oracle); restricted to |strength| <= 0.3 where the
    truncated oracle is trustworthy at reachable cutoffs.
    """
    if abs(check_strength(strength)) > 0.3:
        raise InvalidParameterError("oracle regime is |strength| <= 0.3")
    state = make_state(strength, alpha)
    analytic = b3(state, setting)

    arena = build_arena(cutoff)
    ket = evolve(arena, strength, coherent_ket(arena, alpha))
    points = np.where(_PRIMED, np.asarray(setting.beta_prime), np.asarray(setting.beta))
    corr = displaced_parity(arena, ket, points)
    oracle = float(corr[0] + corr[1] + corr[2] - corr[3])
    return analytic, oracle


def max_b3(strengths) -> list[tuple[float, float, float, float]]:
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
    give the same B; rows take a >= 0.  The reported maximum is ``b3`` of one
    state batched over the strengths at alpha = 0, mu = 0, at these settings.
    Returns rows (strength, a, b, b3_max).
    """
    state = make_state(np.asarray(strengths, dtype=object).reshape(-1), (0, 0, 0))
    strengths = state.strength
    s = np.abs(strengths)
    log_ratio = 6 * s + np.log1p(np.expm1(-6 * s) / 3)  # L, accurate as s -> 0
    radius = math.sqrt(3) / 2 * np.sqrt(log_ratio / (2 + np.exp(-6 * s)))
    plane, symmetric = radius * np.exp(-2 * s), radius * np.exp(-8 * s)  # a - b, -(2a + b)
    a = (plane - symmetric) / 3
    b = a - plane
    axis = np.where(strengths < 0, 1j, 1)[:, None] * np.ones(3)
    best = b3(state, BellSetting(beta=a[:, None] * axis, beta_prime=b[:, None] * axis))
    return [(float(s), float(x), float(y), float(v)) for s, x, y, v in zip(strengths, a, b, best)]
