"""Displaced-parity Bell combination B(3) and the scans around it.

Each correlation is pi^3 times a Wigner value of the squeezed coherent
state, so it lies in (0, 1] and |B(3)| < 4 always; |B(3)| <= 2 for any local
realistic model.  Displacements map to phase space as beta = (q + ip)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .fock import build_arena, coherent_ket, displaced_parity, evolve
from .gaussian import GaussianState, make_state, wigner

__all__ = [
    "BellSetting",
    "FIG2_ALPHA",
    "fig2_setting",
    "b3",
    "fig2_scan",
    "b3_oracle_check",
    "maximize_b3_full",
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
    if not np.all(b > 0):
        bad = b.flat[np.argmin(b > 0)]
        raise InvalidParameterError(f"displacement magnitude must be positive, got {bad}")
    zero = np.zeros_like(b)
    beta = np.stack([zero, zero, -b], axis=-1).astype(complex)
    beta_prime = np.stack([b, b, zero], axis=-1).astype(complex)
    if b.ndim == 0:  # a single setting keeps its plain-tuple form
        return BellSetting(beta=tuple(beta), beta_prime=tuple(beta_prime))
    return BellSetting(beta=beta, beta_prime=beta_prime)


# Which of the four correlation points of B(3) takes the primed amplitude
# in each mode: (b1,b2,b3'), (b1,b2',b3), (b1',b2,b3), (b1',b2',b3').
_PRIMED = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=bool)


def b3(state: GaussianState, setting: BellSetting) -> float | np.ndarray:
    """B(3) = E(b1,b2,b3') + E(b1,b2',b3) + E(b1',b2,b3) - E(b1',b2',b3').

    ``beta`` and ``beta_prime`` have shape (..., 3); the leading axes
    broadcast, and the result has their shape (a float for one setting).
    The four correlations of every setting come from one Wigner call.
    """
    beta = np.asarray(setting.beta, dtype=complex)
    beta_prime = np.asarray(setting.beta_prime, dtype=complex)
    if beta.shape[-1:] != (3,) or beta_prime.shape[-1:] != (3,):
        raise InvalidParameterError("beta and beta_prime must have 3 components each")
    points = np.where(_PRIMED, beta_prime[..., None, :], beta[..., None, :])
    corr = math.pi**3 * wigner(state, math.sqrt(2) * points.real, math.sqrt(2) * points.imag)
    total = corr[..., 0] + corr[..., 1] + corr[..., 2] - corr[..., 3]
    return total if total.ndim else float(total)


def fig2_scan(strengths, b_values, alpha=FIG2_ALPHA) -> list[tuple[float, float, float]]:
    """Per strength: the displacement magnitude maximizing B(3) and the maximum.

    Builds one state batched over the strengths.  Grid-brackets the maximum
    over ``b_values`` (one batched B(3) call per strength, on its slice of
    the state), then refines it by golden section inside the bracketing cell
    down to a width of 1e-10 (first/grid-lowest maximizer wins ties; the
    grid point wins when it beats the refined point).  All strengths refine
    in lockstep: each step is one B(3) call on the whole batch, and a row
    whose bracket is narrow enough keeps its values while the others step
    on, so every row equals a scan of its strength alone.  Returns rows
    (strength, b_star, b3_max).
    """
    b_values = np.asarray(b_values, dtype=float)
    strengths = np.asarray(strengths, dtype=float)
    if b_values.size == 0 or strengths.size == 0:
        raise InvalidParameterError("empty scan grid")
    grid = fig2_setting(b_values)
    state = make_state(strengths, alpha)
    values = np.array([b3(state[i], grid) for i in range(strengths.size)])
    top = np.argmax(values, axis=1)
    grid_best = values[np.arange(strengths.size), top]
    a = b_values[np.maximum(top - 1, 0)]
    b = b_values[np.minimum(top + 1, b_values.size - 1)]

    fn = lambda x: b3(state, fig2_setting(x))
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

    Returns (analytic, oracle); restricted to strengths <= 0.3 where the
    truncated oracle is trustworthy at reachable cutoffs.
    """
    if strength > 0.3:
        raise InvalidParameterError("oracle regime is strength <= 0.3")
    state = make_state(strength, alpha)
    analytic = b3(state, setting)

    arena = build_arena(cutoff)
    ket = evolve(arena, strength, coherent_ket(arena, alpha))
    points = np.where(_PRIMED, np.asarray(setting.beta_prime), np.asarray(setting.beta))
    corr = displaced_parity(arena, ket, points)
    oracle = float(corr[0] + corr[1] + corr[2] - corr[3])
    return analytic, oracle


def maximize_b3_full(strength_seed: float, alpha=FIG2_ALPHA, b_seed: float = 0.3,
                     max_iterations: int = 4000):
    """Heuristic Nelder-Mead ascent over all 13 variables (12 displacement
    components plus the strength), seeded from the published pattern.

    Makes no global-optimality claim.  Returns (best_value, setting, strength).
    """
    seed_setting = fig2_setting(b_seed)
    x0 = np.concatenate([
        np.asarray(seed_setting.beta, dtype=complex).view(float),
        np.asarray(seed_setting.beta_prime, dtype=complex).view(float),
        [strength_seed],
    ])

    def negative(x):
        setting = BellSetting(
            beta=tuple(np.ascontiguousarray(x[0:6]).view(complex)),
            beta_prime=tuple(np.ascontiguousarray(x[6:12]).view(complex)),
        )
        state = make_state(float(x[12]), alpha)
        return -b3(state, setting)

    from scipy import optimize  # imported on first call: about 0.4 s no CLI command needs

    result = optimize.minimize(
        negative, x0, method="Nelder-Mead",
        options={"maxiter": max_iterations, "xatol": 1e-9, "fatol": 1e-12},
    )
    x = result.x
    setting = BellSetting(
        beta=tuple(np.ascontiguousarray(x[0:6]).view(complex)),
        beta_prime=tuple(np.ascontiguousarray(x[6:12]).view(complex)),
    )
    return -result.fun, setting, float(x[12])
