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
                     check_integer, check_numbers, check_strength, check_strengths,
                     overflow_error, refuse_overflow)
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
    # the phase-space points (q, p) = sqrt(2) (Re, Im) of amplitudes (..., 3), as (..., 2, 3)
    parts = np.ascontiguousarray(amplitudes, dtype=complex)[..., None].view(float)
    return (math.sqrt(2) * parts).swapaxes(-1, -2).copy()


def _total(squares):
    # the six entries of a (..., 2, 3) array, summed in a fixed order
    rows = (squares[..., 0] + squares[..., 1]) + squares[..., 2]
    return rows[..., 0] + rows[..., 1]


@dataclass(frozen=True)
class GaussianState:
    """The squeezed coherent state on the normal modes of the coupling matrix.

    A state made from an array of strengths carries that array's shape as
    leading axes on ``strength`` and ``gains``; slice i of each is the field
    of the state made from strength i alone.

    Attributes
    ----------
    strength : squeezing strength of the three-mode unitary
    gains : (2, 3) eigenvalues of p_map (row 0) and q_map (row 1) on the
        normal modes, symmetric mode first (``matrices.mode_gains``)
    displacement : (2, 3) sqrt(2) (Re alpha, Im alpha) on the normal modes,
        the (a, b) of :func:`wigner`; the gains act on the point, not on it
    """

    strength: float | np.ndarray
    gains: np.ndarray
    displacement: np.ndarray

    def __getitem__(self, index) -> "GaussianState":
        """Index ``index`` of the strength axes of a batched state."""
        return GaussianState(self.strength[index], self.gains[index], self.displacement)


@dataclass(frozen=True)
class MomentQuery:
    """A scalar observable c . (Q1,Q2,Q3,P1,P2,P3) and an even moment order."""

    coeffs: np.ndarray
    order: int


def make_state(strength, alpha) -> GaussianState:
    """Squeezed coherent state for ``strength`` and amplitudes ``alpha`` (3 complex).

    An array of strengths gives one state batched over them (see
    :class:`GaussianState`), which :func:`wigner` and ``bell.b3`` evaluate
    in one call.  Its gains are built strength by strength with the scalar
    code and stacked, so every slice holds the same bits as a
    single-strength state.  ``errors`` checks each strength, then the amplitudes.
    """
    # the rank of an object array, which a ragged list has too; a float skips the cost
    batched = not isinstance(strength, (int, float)) and (cells := np.asarray(strength, dtype=object)).ndim
    if batched:
        strength = check_strengths(cells)
        if not strength.size:
            raise InvalidParameterError("empty strength array")
    else:
        strength = check_strength(strength)
    alpha = check_amplitudes(alpha, "coherent displacement").reshape(-1)
    if alpha.size != 3:
        raise InvalidParameterError(f"coherent amplitudes must be one triple, got {alpha.size} values")
    gains = (np.stack([mode_gains(s) for s in strength.flat]).reshape(strength.shape + (2, 3))
             if batched else mode_gains(strength))
    displacement = _quadratures(alpha) @ _MODES
    return GaussianState(strength=strength, gains=gains, displacement=displacement)


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
    if state.gains.ndim > 2:
        raise InvalidParameterError("central_moment takes a state of one strength, not a batch")
    order = check_integer(query.order, "moment order")
    if order < 2 or order % 2:
        raise InvalidParameterError(f"moment order must be even and >= 2, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise InvalidParameterError(f"moment order capped at {MAX_MOMENT_ORDER}, got {order}")
    try:  # a moment that is not finite is the coefficients' fault if one of them is not finite
        coeffs = check_numbers(query.coeffs, "moment coefficients").reshape(6)
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
    values of one call per point.  The strength axes of a batched state line
    up with the first leading axes of the points.  Points that are not
    real numbers, or not finite, raise InvalidParameterError; an exponent
    that overflows double precision raises NumericError.
    """
    q = check_numbers(q, "phase-space points")
    p = check_numbers(p, "phase-space points")
    if q.shape[-1:] != (3,) or p.shape[-1:] != (3,):
        raise InvalidParameterError("q and p must have 3 components each")
    try:
        q, p = (q, p) if q.shape == p.shape else np.broadcast_arrays(q, p)
    except ValueError:
        raise InvalidParameterError(f"q {q.shape} and p {p.shape} do not broadcast") from None
    x = np.concatenate([q, p], axis=-1).reshape(q.shape[:-1] + (2, 3))
    if q.ndim + 1 < state.gains.ndim:
        raise InvalidParameterError("points need a leading axis for each strength axis of the state")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        out = _wigner_modes(state, x, _mode_sums(x))
    return out if out.ndim else float(out)


def _wigner_modes(state: GaussianState, x: np.ndarray, modes: np.ndarray) -> np.ndarray:
    # W at the points x (..., 2, 3) from modes = _mode_sums(x), which does not depend on the state;
    # the state axes go in front of the points' leading axes.  The caller ignores over/invalid.
    lead = state.gains.shape[:-2]
    gains = state.gains.reshape(lead + (1,) * (x.ndim - state.gains.ndim) + (2, 3))
    try:
        t = modes * (gains / _NORMS) - state.displacement
    except ValueError:
        raise InvalidParameterError(f"points {x.shape[:-2]} do not line up with strengths {lead}") from None
    exponent = _total(t * t)
    if not np.isfinite(exponent).all():
        if not np.isfinite(x).all():
            raise InvalidParameterError("phase-space points must be finite")
        raise overflow_error("wigner exponent", state.strength)
    return np.exp(-exponent) / math.pi**3
