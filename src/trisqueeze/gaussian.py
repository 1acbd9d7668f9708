"""Exact Gaussian description of the three-mode squeezed coherent state.

The state is a pure Gaussian: squeezing the coherent state |alpha> maps the
phase-space mean to (q_map @ q_coh, p_map @ p_coh) and the covariance to
block-diag(q_map q_map^T, p_map p_map^T)/2.  Both maps are diagonal on the
fixed normal modes of the coupling matrix, so the state is stored as three
independent single-mode squeezers (the Bloch-Messiah form): the gains on the
normal modes and the coherent displacement in that basis.  Moments, the
Wigner function and the enhanced-squeezing laws follow from that.  Each is
computed once, on the normal modes, and checked by the tests against the
closed forms, 60-digit reference values and the Fock oracle.

Conventions: hbar = 1, [Q, P] = i, a = (Q + iP)/sqrt(2); phase-space vectors
are ordered (q1, q2, q3, p1, p2, p3).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_MOMENT_ORDER, InvalidParameterError, NumericError, check_amplitudes,
                     check_integer, check_numbers, check_strength, overflow_error, refuse_overflow)
from .matrices import _exponentials, mode_gains

__all__ = [
    "GaussianState",
    "MomentQuery",
    "make_state",
    "central_moment",
    "hos_x",
    "hos_y",
    "two_mode_baseline_variance",
    "wigner",
]

# The normal modes are the integer vectors (1,1,1), (1,-1,0), (1,1,-2), the
# columns of _INTEGER_MODES, over their norms; _MODES has the unit vectors.
_INTEGER_MODES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 0.0, -2.0]])
_NORMS = np.sqrt([3.0, 2.0, 6.0])
_MODES = _INTEGER_MODES / _NORMS


def _mode_sums(x):
    """x @ _INTEGER_MODES over the last axis, each component accurate to a
    few units in the last place of its own size, not of |x|.

    The integer products are exact.  The first addition can round by u|x|,
    which a point near the plane orthogonal to (1,1,1) would see amplified
    by e^{2|s|}, so its rounding error is added back (Knuth's TwoSum); the
    last addition then rounds relative to the result.  Elementwise in a
    fixed order, so a batch gives the bits of single points.
    """
    first = x[..., 0:1] * _INTEGER_MODES[0]
    second = x[..., 1:2] * _INTEGER_MODES[1]
    pair = first + second
    back = pair - first
    error = (first - (pair - back)) + (second - back)
    return (pair + x[..., 2:3] * _INTEGER_MODES[2]) + error


def _quadratures(amplitudes) -> np.ndarray:
    # sqrt(2) (Re, Im) of amplitudes (..., 3) as points (..., 2, 3); [..., None] views any layout
    parts = np.asarray(amplitudes, dtype=complex)[..., None].view(float)
    return (math.sqrt(2) * parts).swapaxes(-1, -2).copy()


def _rows(t):
    # the sum of the squares of t over its last axis, in a fixed order
    t = t * t
    return (t[..., 0] + t[..., 1]) + t[..., 2]


@dataclass(frozen=True)
class GaussianState:
    """The squeezed coherent state of one strength on the normal modes of the coupling matrix.

    Attributes
    ----------
    strength : squeezing strength of the three-mode unitary, a float
    gains : (2, 3) eigenvalues of p_map (row 0) and q_map (row 1) on the
        normal modes, symmetric mode first (``matrices.mode_gains``)
    displacement : (2, 3) sqrt(2) (Re alpha, Im alpha) on the normal modes,
        the (a, b) of :func:`wigner`; the gains act on the point, not on it
    """

    strength: float
    gains: np.ndarray
    displacement: np.ndarray


@dataclass(frozen=True)
class MomentQuery:
    """A scalar observable c . (Q1,Q2,Q3,P1,P2,P3) and an even moment order."""

    coeffs: np.ndarray
    order: int


def make_state(strength, alpha) -> GaussianState:
    """Squeezed coherent state for one ``strength`` and amplitudes ``alpha`` (3 complex).

    ``errors`` checks the strength, which must be a number, not an array, then the amplitudes.
    """
    strength = check_strength(strength)
    alpha = check_amplitudes(alpha, "coherent displacement")
    if alpha.shape != (3,):
        raise InvalidParameterError(f"coherent amplitudes must be one triple, got shape {alpha.shape}")
    return GaussianState(strength, mode_gains(strength), _quadratures(alpha) @ _MODES)


def _moment(state: GaussianState, coeffs: np.ndarray, order: int) -> float:
    # (order-1)!! sigma2^(order/2) from the observable's q and p parts on the normal modes, each
    # scaled by the gain its quadrature picks up: q_map's (row 1) on q, p_map's (row 0) on p
    scaled = coeffs.reshape(2, 3) @ _MODES * state.gains[::-1]
    variance = float(np.vdot(scaled, scaled)) / 2
    return math.prod(range(order - 1, 0, -2)) * variance ** (order // 2)


def central_moment(state: GaussianState, query: MomentQuery) -> float:
    """Even-order central moment of the scalar observable in ``query``.

    The Gaussian pairing law (order-1)!! sigma2^(order/2); sigma2 is the sum
    of the normal-mode variances, so nothing cancels.  A moment that
    overflows double precision raises NumericError.
    """
    order = check_integer(query.order, "moment order")
    if order < 2 or order % 2:
        raise InvalidParameterError(f"moment order must be even and >= 2, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise InvalidParameterError(f"moment order capped at {MAX_MOMENT_ORDER}, got {order}")
    try:  # a moment that is not finite is the coefficients' fault if one of them is not finite
        coeffs = check_numbers(query.coeffs, "moment coefficients")
        return refuse_overflow("moment", state.strength, _moment, state, coeffs, order)
    except (ValueError, NumericError) as error:  # InvalidParameterError is a ValueError
        if isinstance(error, NumericError) and np.isfinite(coeffs).all():
            raise
        raise InvalidParameterError("moment coefficients must be 6 finite real numbers") from None


def hos_x(strength: float, m: int) -> float:
    """Closed-form 2m-th central moment of the collective position quadrature.

    Equals (1/4)^m (2m-1)!! e^{-4 m strength}; independent of the coherent
    amplitudes.
    """
    return _hos(strength, m, -4)


def hos_y(strength: float, m: int) -> float:
    """Companion of :func:`hos_x` for the collective momentum: grows as e^{4 m s}."""
    return _hos(strength, m, 4)


def _hos(strength: float, m: int, rate: int) -> float:
    strength = check_strength(strength)
    m = check_integer(m, "moment half-order m")
    if m < 1:
        raise InvalidParameterError("moment half-order m must be >= 1")
    if 2 * m > MAX_MOMENT_ORDER:
        raise InvalidParameterError(f"moment order capped at {MAX_MOMENT_ORDER}")
    return refuse_overflow(f"moment of order {2 * m}", strength, lambda: 0.25**m
                           * math.prod(range(2 * m - 1, 0, -2)) * math.exp(rate * m * strength))


def two_mode_baseline_variance(strength: float) -> tuple[float, float]:
    """Quadrature variances (e^{-2s}/4, e^{2s}/4) of the two-mode benchmark squeezer."""
    shrink2, grow2, _, _ = _exponentials(check_strength(strength))
    return shrink2 / 4, grow2 / 4


def wigner(state: GaussianState, q, p) -> float | np.ndarray:
    """Wigner function at phase-space point(s) (q, p), each of shape (..., 3).

    pi^3 W = exp(-E) with E on the normal modes: E = sum_k (g_k y_k - a_k)^2
    + (h_k z_k - b_k)^2, with y, z the mode components of q, p
    (:func:`_mode_sums`), g, h the rows of ``state.gains`` and (a, b) =
    ``state.displacement``.  These are six squares with nothing cancelled,
    so W never exceeds 1/pi^3, and a gain multiplies only its own mode's
    component, so a point off the stretched modes stays finite at any
    strength.  The tests hold W to 1e-9 relative of 60-digit values of the
    unexpanded |p_map q - sigma|^2 + |q_map p - chi|^2, (sigma, chi) =
    sqrt(2) (Re alpha, Im alpha): near the mean for |s| <= 6, and off the
    stretched modes up to |s| = 354.

    Every step is elementwise, so a batch of points gives bit for bit the
    values of one call per point; q and p of unequal shapes are each summed
    at their own shape and only E's q row + p row broadcasts.  Points that are
    not real numbers, or not finite, raise InvalidParameterError; an exponent
    that overflows raises NumericError.
    """
    q = check_numbers(q, "phase-space points")
    p = check_numbers(p, "phase-space points")
    if q.shape[-1:] != (3,) or p.shape[-1:] != (3,):
        raise InvalidParameterError("q and p must have 3 components each")
    try:
        shape = q.shape if q.shape == p.shape else np.broadcast_shapes(q.shape, p.shape)
    except ValueError:
        raise InvalidParameterError(f"q {q.shape} and p {p.shape} do not broadcast") from None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        modes = (_mode_sums(np.concatenate([q, p], axis=-1).reshape(shape[:-1] + (2, 3)))
                 if q.shape == p.shape else (_mode_sums(q), _mode_sums(p)))
        out = _wigner_modes(state, modes, ("phase-space points", q, p))
    return out if out.ndim else float(out)


def _wigner_modes(state: GaussianState, modes, given) -> np.ndarray:
    # W at the points whose _mode_sums are ``modes`` (..., 2, 3), or at the broadcast of the pair
    # ``modes`` of q's and p's (..., 3), each half at its own shape; the caller ignores
    # over/invalid.  A non-finite exponent refuses ``given``, the caller's (name, *values) of its
    # input, by that name if a value is not finite, else as overflowed
    scale = state.gains / _NORMS
    if isinstance(modes, tuple):
        exponent = (_rows(modes[0] * scale[0] - state.displacement[0])
                    + _rows(modes[1] * scale[1] - state.displacement[1]))
    else:
        exponent = _rows(modes * scale - state.displacement)
        exponent = exponent[..., 0] + exponent[..., 1]
    if not np.isfinite(exponent).all():
        if not all(np.isfinite(values).all() for values in given[1:]):
            raise InvalidParameterError(f"{given[0]} must be finite")
        raise overflow_error("wigner exponent", state.strength)
    return np.exp(-exponent) / math.pi**3
