"""Reference code that only the tests use.

The phase-space mean and covariance of a state, the collective quadrature
queries, the Fock oracle's collective momentum moment, the quadrature that
checks the normalization of W, the coefficients of the normal-ordered
unitary, the circulant maps e^{-+s*coupling} built from the normal-mode
gains, and the double factorial of the Gaussian pairing law.  Each states a
check of the package, not a result it reports, so it lives here; the
arithmetic is the package's own, on its normal modes.
"""

import math

import numpy as np

from trisqueeze import MomentQuery, wigner
from trisqueeze.fock import _central_moment, ladder
from trisqueeze.gaussian import _MODES
from trisqueeze.matrices import mode_gains

_NORMALIZATION_WIDTH, _NORMALIZATION_POINTS = 6.0, 41  # standard deviations, points per mode
_ROOT12 = 1 / math.sqrt(12)  # (P1+P2+P3)/sqrt(6) = sum_i (a_i - a_i^dag) / (i sqrt(12))


def circulant(gains) -> np.ndarray:
    """The symmetric circulant 3x3 matrices with normal-mode eigenvalues ``gains`` (..., 3)."""
    diag, off = (gains[..., 0] + 2 * gains[..., 1]) / 3, (gains[..., 0] - gains[..., 1]) / 3
    return np.where(np.eye(3, dtype=bool), diag[..., None, None], off[..., None, None])


def circulant_maps(gains) -> tuple[np.ndarray, np.ndarray]:
    """(q_map, p_map) from the gains of ``matrices.mode_gains`` (shape (..., 2, 3))."""
    maps = circulant(gains)
    return maps[..., 1, :, :], maps[..., 0, :, :]


def double_factorial(n: int) -> int:
    """(n)!! for odd n >= -1, with (-1)!! = 1 (empty product)."""
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def mean(state) -> np.ndarray:
    """Phase-space mean (q1, q2, q3, p1, p2, p3) of ``state``, from its gains and displacement."""
    on_modes = state.displacement * state.gains[::-1]  # (q, p) on the normal modes
    return (on_modes @ _MODES.T).reshape(6)


def cov(state) -> np.ndarray:
    """6x6 covariance of ``state``; q and p blocks never mix, det(cov) = (1/2)**6."""
    blocks = (_MODES * state.gains[::-1, None, :] ** 2) @ _MODES.T / 2  # q block, p block
    out = np.zeros((6, 6))
    out[:3, :3], out[3:, 3:] = blocks
    return out


def x3_query(order: int = 2) -> MomentQuery:
    """Collective position quadrature (Q1+Q2+Q3)/sqrt(6)."""
    return MomentQuery(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(6), order)


def y3_query(order: int = 2) -> MomentQuery:
    """Collective momentum quadrature (P1+P2+P3)/sqrt(6)."""
    return MomentQuery(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]) / math.sqrt(6), order)


def moment_y3(arena, ket: np.ndarray, order: int) -> float:
    """Central moment of (P1+P2+P3)/sqrt(6) on a Fock ket, by ``fock.ladder``."""
    return _central_moment(lambda v: ladder(arena, v, -1j * _ROOT12, 1j * _ROOT12), ket, order)


def wigner_normalization(state) -> float:
    """Tensor trapezoid of W over a box of +-6 standard deviations per normal mode, 41 points each.

    Mode k of each block is a Gaussian of centre a_k/g_k and standard
    deviation 1/(sqrt(2) g_k) (see ``wigner``).  W is a q factor times a
    p factor, so the 6D rule is pi^3 times the 3D rules over the q box (at
    the p centre) and over the p box (at the q centre).  One strength only.
    """
    centres, sigmas = state.displacement / state.gains, 1 / (math.sqrt(2) * state.gains)
    rule = np.linspace(-_NORMALIZATION_WIDTH, _NORMALIZATION_WIDTH, _NORMALIZATION_POINTS)
    weights = np.full(_NORMALIZATION_POINTS, rule[1] - rule[0])
    weights[[0, -1]] /= 2
    q_centre, p_centre = centres @ _MODES.T
    total = math.pi**3
    for block in (0, 1):
        axes = centres[block, :, None] + sigmas[block, :, None] * rule
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1) @ _MODES.T
        values = wigner(state, grid, p_centre) if block == 0 else wigner(state, q_centre, grid)
        total *= np.einsum("ijk,i,j,k", values, *(sigma * weights for sigma in sigmas[block]))
    return float(total)


def normal_order_coefficients(strength: float) -> tuple[float, np.ndarray]:
    """Vacuum amplitude and pair-creation matrix of the normal-ordered unitary.

    Acting on the vacuum, the unitary equals the amplitude times exp(pair/2
    quadratic in creation operators).  Normal mode k, a squeezer with map
    gains g_q g_p = 1, gives the amplitude a factor sqrt(2/(g_p + g_q)) and
    the pair the eigenvalue (g_q - g_p)/(g_q + g_p): 1/(sqrt(cosh 2s) cosh s)
    and (-tanh 2s, tanh s, tanh s) in all.
    """
    p_gains, q_gains = mode_gains(strength)
    sums = p_gains + q_gains
    return math.prod(math.sqrt(2 / total) for total in sums), circulant((q_gains - p_gains) / sums)
