"""Closed-form 3x3 matrix family generated by the all-to-all mode coupling.

The coupling matrix has zeros on the diagonal and ones elsewhere; its
exponentials e^{-s*coupling} and e^{+s*coupling} are the Heisenberg maps of
the position and momentum quadratures under the three-mode squeeze unitary.
Both are circulant-symmetric, so each is determined by one diagonal and one
off-diagonal entry, and both are diagonal on the fixed normal modes: the
symmetric mode (1,1,1)/sqrt(3) (coupling eigenvalue 2) and the plane
orthogonal to it (eigenvalue -1).  It evaluates e^{+-s} and e^{+-2s}, under one
overflow guard, for the gains of those maps on the normal modes and for the
collective-mode factors; ``bell.max_b3`` (e^{-2s}, e^{-6s}, e^{-8s}) and
``gaussian._hos`` (e^{-+4ms}) form their own exponentials.
"""

import math

import numpy as np

from .errors import overflow_error

__all__ = ["mode_gains", "collective_factors"]


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
