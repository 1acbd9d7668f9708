"""Closed-form 3x3 matrix family generated by the all-to-all mode coupling,
plus the scalar special functions used everywhere else.

The coupling matrix has zeros on the diagonal and ones elsewhere; its
exponentials e^{-s*coupling} and e^{+s*coupling} are the Heisenberg maps of
the position and momentum quadratures under the three-mode squeeze unitary.
Both are circulant-symmetric, so each is determined by one diagonal and one
off-diagonal entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericError

__all__ = [
    "coupling_matrix",
    "SqueezeMatrices",
    "build_squeeze_matrices",
    "expm_series",
    "hermite",
    "hermite_table",
    "double_factorial",
]


def coupling_matrix() -> np.ndarray:
    """3x3 matrix with 0 on the diagonal and 1 off it (eigenvalues 2, -1, -1)."""
    return np.ones((3, 3)) - np.eye(3)


@dataclass(frozen=True)
class SqueezeMatrices:
    """Matrix data of the three-mode squeeze at a given strength.

    q_map = exp(-strength*coupling) maps the position quadratures, p_map =
    exp(+strength*coupling) the momenta; they are mutual inverses.
    coll_sum/coll_diff = e^{-2s} +/- e^{2s} are the Bogoliubov factors of the
    symmetric collective mode.
    """

    strength: float
    q_map: np.ndarray
    p_map: np.ndarray
    q_diag: float
    q_off: float
    p_diag: float
    p_off: float
    coll_sum: float
    coll_diff: float

    @property
    def overlap(self) -> np.ndarray:
        """(I + q_map^T q_map)/2, the normalization matrix of the
        normal-ordered form of the unitary (formed on each access)."""
        return (np.eye(3) + np.swapaxes(self.q_map, -1, -2) @ self.q_map) / 2


def build_squeeze_matrices(strength: float) -> SqueezeMatrices:
    """Populate every closed form for squeezing strength ``strength``.

    Raises NumericError when e^{2|strength|} overflows double precision.
    """
    s = float(strength)
    if not math.isfinite(s):
        raise InvalidParameterError(f"squeezing strength must be finite, got {strength!r}")
    try:
        grow2, shrink2 = math.exp(2 * s), math.exp(-2 * s)
    except OverflowError:
        raise NumericError(f"squeeze matrices overflow double precision at strength {s:g}") from None
    q_diag = (shrink2 + 2 * math.exp(s)) / 3
    q_off = (shrink2 - math.exp(s)) / 3
    p_diag = (grow2 + 2 * math.exp(-s)) / 3
    p_off = (grow2 - math.exp(-s)) / 3
    q_map = np.full((3, 3), q_off)
    np.fill_diagonal(q_map, q_diag)
    p_map = np.full((3, 3), p_off)
    np.fill_diagonal(p_map, p_diag)
    return SqueezeMatrices(
        strength=s,
        q_map=q_map,
        p_map=p_map,
        q_diag=q_diag,
        q_off=q_off,
        p_diag=p_diag,
        p_off=p_off,
        coll_sum=shrink2 + grow2,
        coll_diff=shrink2 - grow2,
    )


def expm_series(mat: np.ndarray, tol: float = 1e-16, max_terms: int = 120) -> np.ndarray:
    """Taylor-series matrix exponential with scaling and squaring.

    Kept as an independent check of the closed forms above; terminates when
    the max-norm of the current term drops below ``tol``.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise InvalidParameterError(f"expected a 3x3 matrix, got shape {mat.shape}")
    norm = np.abs(mat).sum(axis=0).max()
    squarings = max(0, int(math.ceil(math.log2(norm)))) if norm > 1 else 0
    a = mat / 2**squarings
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, max_terms + 1):
        term = a @ term / k
        out = out + term
        if np.abs(term).max() < tol:
            break
    else:
        raise NumericError(f"series exponential did not converge in {max_terms} terms")
    for _ in range(squarings):
        out = out @ out
    return out


def hermite_table(m: int, x) -> list:
    """[H_0(x), ..., H_m(x)], physicists' Hermite polynomials by the
    three-term recurrence.

    Accepts real, complex or array arguments (each entry is an array of
    their shape).
    """
    if m < 0:
        raise InvalidParameterError("hermite order must be non-negative")
    x = np.asarray(x)
    table = [np.ones_like(x), 2 * x]
    for k in range(1, m):
        table.append(2 * x * table[k] - 2 * k * table[k - 1])
    return table[: m + 1]


def hermite(m: int, x):
    """Physicists' Hermite polynomial H_m(x): the last entry of :func:`hermite_table`."""
    h = hermite_table(m, x)[m]
    return h[()] if np.ndim(h) == 0 else h


def double_factorial(n: int) -> int:
    """(n)!! for odd n >= -1, with (-1)!! = 1 (empty product)."""
    if n < -1 or n % 2 == 0:
        raise InvalidParameterError(f"double factorial needs an odd integer >= -1, got {n}")
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out
