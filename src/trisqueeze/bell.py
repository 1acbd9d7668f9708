"""Displaced-parity Bell combination B(3) and the scans around it.

Each correlation is pi^3 times a Wigner value of the squeezed coherent
state, so it lies in (0, 1] and |B(3)| < 4 always; |B(3)| <= 2 for any local
realistic model.  Displacements map to phase space as beta = (q + ip)/sqrt(2).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

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


def fig2_setting(b: float) -> BellSetting:
    """The published scan pattern: beta = (0, 0, -b), beta' = (b, b, 0), b > 0."""
    if not b > 0:
        raise InvalidParameterError(f"displacement magnitude must be positive, got {b}")
    return BellSetting(beta=(0j, 0j, complex(-b)), beta_prime=(complex(b), complex(b), 0j))


def _correlation(state: GaussianState, betas) -> float:
    betas = np.asarray(betas, dtype=complex)
    q = math.sqrt(2) * betas.real
    p = math.sqrt(2) * betas.imag
    return math.pi**3 * wigner(state, q, p)


def b3(state: GaussianState, setting: BellSetting) -> float:
    """B(3) = E(b1,b2,b3') + E(b1,b2',b3) + E(b1',b2,b3) - E(b1',b2',b3')."""
    b1, b2, b3_ = setting.beta
    p1, p2, p3 = setting.beta_prime
    return (
        _correlation(state, (b1, b2, p3))
        + _correlation(state, (b1, p2, b3_))
        + _correlation(state, (p1, b2, b3_))
        - _correlation(state, (p1, p2, p3))
    )


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximum of fn on [lo, hi]; ties resolve toward lo."""
    ratio = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 >= f2:  # keep the left interval on ties
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = fn(x2)
    best = (a + b) / 2
    return best, fn(best)


def fig2_scan(strengths, b_values, alpha=FIG2_ALPHA) -> list[tuple[float, float, float]]:
    """Per strength: the displacement magnitude maximizing B(3) and the maximum.

    Grid-brackets the maximum over ``b_values`` then refines it by golden
    section inside the bracketing cell (first/grid-lowest maximizer wins
    ties).  Returns rows (strength, b_star, b3_max).
    """
    b_values = np.asarray(b_values, dtype=float)
    strengths = np.asarray(strengths, dtype=float)
    if b_values.size == 0 or strengths.size == 0:
        raise InvalidParameterError("empty scan grid")
    rows = []
    for s in strengths:
        state = make_state(float(s), alpha)
        fn = lambda b: b3(state, fig2_setting(b))
        values = np.array([fn(b) for b in b_values])
        top = int(np.argmax(values))
        lo = b_values[max(0, top - 1)]
        hi = b_values[min(b_values.size - 1, top + 1)]
        b_star, best = _golden_max(fn, float(lo), float(hi))
        if values[top] > best:  # grid point beat the refined interior point
            b_star, best = float(b_values[top]), float(values[top])
        rows.append((float(s), b_star, best))
    return rows


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
    b1, b2, b3_ = setting.beta
    p1, p2, p3 = setting.beta_prime
    oracle = (
        displaced_parity(arena, ket, (b1, b2, p3))
        + displaced_parity(arena, ket, (b1, p2, b3_))
        + displaced_parity(arena, ket, (p1, b2, b3_))
        - displaced_parity(arena, ket, (p1, p2, p3))
    )
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
