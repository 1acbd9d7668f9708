"""Closed-form 3x3 matrix family generated by the all-to-all mode coupling,
plus the scalar special functions used everywhere else.

The coupling matrix has zeros on the diagonal and ones elsewhere; its
exponentials e^{-s*coupling} and e^{+s*coupling} are the Heisenberg maps of
the position and momentum quadratures under the three-mode squeeze unitary.
Both are circulant-symmetric, so each is determined by one diagonal and one
off-diagonal entry, and both are diagonal on the fixed normal modes: the
symmetric mode (1,1,1)/sqrt(3) (coupling eigenvalue 2) and the plane
orthogonal to it (eigenvalue -1).  Every closed form of the package is a
function of e^{+-s} and e^{+-2s}, evaluated here under one overflow guard.
"""

import math

import numpy as np

from .errors import overflow_error

__all__ = [
    "mode_gains",
    "circulant",
    "circulant_maps",
    "collective_factors",
    "hermite_table",
    "double_factorial",
]


def _exponentials(strength) -> tuple[float, float, float, float]:
    # (e^{-2s}, e^{2s}, e^{-s}, e^{s}) of a checked strength; math.exp raises where one
    # overflows, with no numpy scope (a numpy scalar would warn instead, hence float())
    s = float(strength)
    try:
        return math.exp(-2 * s), math.exp(2 * s), math.exp(-s), math.exp(s)
    except OverflowError:
        raise overflow_error("squeeze factor", s) from None


def collective_factors(strength: float) -> tuple[float, float]:
    """(e^{-2s} + e^{2s}, e^{-2s} - e^{2s}), the Bogoliubov factors of the
    symmetric collective mode: it maps to (sum*A + diff*A^dag)/2."""
    shrink2, grow2, _, _ = _exponentials(strength)
    return shrink2 + grow2, shrink2 - grow2


def mode_gains(strength) -> np.ndarray:
    """Eigenvalues of the maps on the normal modes, symmetric mode first:
    row 0 of p_map (e^{2s}, e^{-s}, e^{-s}), row 1 of q_map (e^{-2s}, e^{s},
    e^{s}, each its own exponential).  NumericError where e^{2|s|} overflows.
    """
    shrink2, grow2, shrink, grow = _exponentials(strength)
    return np.array([[grow2, shrink, shrink], [shrink2, grow, grow]])


def circulant(gains) -> np.ndarray:
    """The symmetric circulant 3x3 matrices with normal-mode eigenvalues ``gains`` (..., 3)."""
    diag, off = (gains[..., 0] + 2 * gains[..., 1]) / 3, (gains[..., 0] - gains[..., 1]) / 3
    return np.where(np.eye(3, dtype=bool), diag[..., None, None], off[..., None, None])


def circulant_maps(gains) -> tuple[np.ndarray, np.ndarray]:
    """(q_map, p_map) from the gains of :func:`mode_gains` (shape (..., 2, 3))."""
    maps = circulant(gains)
    return maps[..., 1, :, :], maps[..., 0, :, :]


def hermite_table(m: int, x) -> list:
    """[H_0(x), ..., H_m(x)], physicists' Hermite polynomials by the
    three-term recurrence.

    Accepts real, complex or array arguments (each entry is an array of
    their shape).
    """
    x = np.asarray(x)
    table = [np.ones_like(x), 2 * x]
    for k in range(1, m):
        table.append(2 * x * table[k] - 2 * k * table[k - 1])
    return table[: m + 1]


def double_factorial(n: int) -> int:
    """(n)!! for odd n >= -1, with (-1)!! = 1 (empty product)."""
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out
