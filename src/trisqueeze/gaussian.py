"""Exact Gaussian description of the three-mode squeezed coherent state.

The state is a pure Gaussian: squeezing the coherent state |alpha> maps the
phase-space mean to (q_map @ q_coh, p_map @ p_coh) and the covariance to
block-diag(q_map q_map^T, p_map p_map^T)/2.  Everything downstream (moments
of quadrature combinations, the Wigner function, the enhanced-squeezing laws)
follows from that pair, and each closed form here is paired with a second,
independently coded route so the two can be compared at runtime.

Conventions: hbar = 1, [Q, P] = i, a = (Q + iP)/sqrt(2); phase-space vectors
are ordered (q1, q2, q3, p1, p2, p3).
"""

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import InvalidParameterError, NumericError
from .matrices import SqueezeMatrices, build_squeeze_matrices, double_factorial

__all__ = [
    "GaussianState",
    "MomentQuery",
    "make_state",
    "x3_query",
    "y3_query",
    "central_moment",
    "hos_x",
    "hos_y",
    "two_mode_baseline_variance",
    "wigner",
    "wigner_normalization",
    "normal_order_coefficients",
]

MAX_MOMENT_ORDER = 16  # double factorials stay well inside float64 range


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance of the squeezed coherent state.

    A state made from an array of strengths carries that array's shape as
    leading axes on every field but ``alpha`` (the fields of ``mats``
    included); slice i of each field is the field of the state made from
    strength i alone.

    Attributes
    ----------
    strength : squeezing strength of the three-mode unitary
    alpha : the three coherent amplitudes before squeezing
    mean : 6-vector (q1, q2, q3, p1, p2, p3)
    cov : 6x6 covariance; q and p blocks never mix, det(cov) = (1/2)**6
    closed : the 8 coefficients of the closed Wigner exponent (see
        :func:`_closed_coefficients`); inf where they overflow
    mats : the closed-form matrix family at this strength
    """

    strength: float | np.ndarray
    alpha: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    closed: np.ndarray = field(repr=False)
    mats: SqueezeMatrices = field(repr=False)


@dataclass(frozen=True)
class MomentQuery:
    """A scalar observable c . (Q1,Q2,Q3,P1,P2,P3) and an even moment order."""

    coeffs: np.ndarray
    order: int


def make_state(strength, alpha) -> GaussianState:
    """Squeezed coherent state for ``strength`` and amplitudes ``alpha`` (3 complex).

    An array of strengths gives one state batched over them (see
    :class:`GaussianState`), which :func:`wigner` and ``bell.b3`` evaluate
    in one call.  It is built strength by strength with the scalar code and
    stacked, so every slice holds the same bits as a single-strength state.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(3)
    if not np.all(np.isfinite(alpha.view(float))):
        raise InvalidParameterError("coherent amplitudes must be finite")
    if not isinstance(strength, (int, float)) and np.ndim(strength):  # np.ndim(float) costs
        parts = [make_state(s, alpha) for s in np.asarray(strength, dtype=float)]
        if not parts:
            raise InvalidParameterError("empty strength array")
        mats = SqueezeMatrices(*map(np.stack, zip(*(astuple(part.mats) for part in parts))))
        stack = lambda name: np.stack([getattr(part, name) for part in parts])
        return GaussianState(strength=mats.strength, alpha=alpha, mean=stack("mean"),
                             cov=stack("cov"), closed=stack("closed"), mats=mats)
    mats = build_squeeze_matrices(strength)
    q_coh = math.sqrt(2) * alpha.real
    p_coh = math.sqrt(2) * alpha.imag
    mean = np.concatenate([mats.q_map @ q_coh, mats.p_map @ p_coh])
    cov = np.zeros((6, 6))
    closed = _closed_coefficients(mats)
    with np.errstate(over="ignore"):  # an overflowed state is refused by wigner
        cov[:3, :3] = mats.q_map @ mats.q_map.T / 2
        cov[3:, 3:] = mats.p_map @ mats.p_map.T / 2
    return GaussianState(strength=mats.strength, alpha=alpha, mean=mean, cov=cov,
                         closed=closed, mats=mats)


def _one_strength(state: GaussianState, operation: str) -> None:
    if state.closed.ndim > 1:
        raise InvalidParameterError(f"{operation} takes a state of one strength, not a batch")


def _strengths(state: GaussianState) -> str:
    # for messages; formatting a plain float skips numpy's reductions
    if state.closed.ndim == 1:
        return f"strength {state.strength:g}"
    return f"strengths {np.min(state.strength):g} to {np.max(state.strength):g}"


def x3_query(order: int = 2) -> MomentQuery:
    """Collective position quadrature (Q1+Q2+Q3)/sqrt(6)."""
    return MomentQuery(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(6), order)


def y3_query(order: int = 2) -> MomentQuery:
    """Collective momentum quadrature (P1+P2+P3)/sqrt(6)."""
    return MomentQuery(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]) / math.sqrt(6), order)


def _moment_isserlis(state: GaussianState, coeffs: np.ndarray, order: int) -> float:
    sigma2 = float(coeffs @ state.cov @ coeffs)
    return double_factorial(order - 1) * sigma2 ** (order // 2)


def _moment_normal_ordered(state: GaussianState, coeffs: np.ndarray, order: int) -> float:
    # Route the observable through the Heisenberg picture: in the coherent
    # state the observable becomes sum_j (eta_j a_j + conj(eta_j) a_j^dag),
    # and the ordering identity turns the central moment into a k-sum whose
    # normally ordered factors vanish term by term.
    d = state.mats.q_map.T @ coeffs[:3]
    e = state.mats.p_map.T @ coeffs[3:]
    eta = (d - 1j * e) / math.sqrt(2)
    pair_sum = float(np.sum(np.abs(eta) ** 2))
    mean = 2 * np.sum(eta * state.alpha).real
    centered = complex(np.sum(eta * state.alpha) + np.sum(np.conj(eta) * np.conj(state.alpha))) - mean
    m = order // 2
    total = 0.0
    for k in range(m + 1):
        weight = math.factorial(order) / (math.factorial(order - 2 * k) * math.factorial(k))
        total += weight * (pair_sum / 2) ** k * (centered ** (order - 2 * k)).real
    return total


def central_moment(state: GaussianState, query: MomentQuery) -> float:
    """Even-order central moment of the scalar observable in ``query``.

    Computed twice (Gaussian pairing law and normal-ordered expansion); a
    relative disagreement above 1e-10 raises NumericError.
    """
    _one_strength(state, "central_moment")
    order = int(query.order)
    if order < 2 or order % 2:
        raise InvalidParameterError(f"moment order must be even and >= 2, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise InvalidParameterError(f"moment order capped at {MAX_MOMENT_ORDER}, got {order}")
    coeffs = np.asarray(query.coeffs, dtype=float).reshape(6)
    first = _moment_isserlis(state, coeffs, order)
    second = _moment_normal_ordered(state, coeffs, order)
    scale = max(abs(first), abs(second), 1e-300)
    if abs(first - second) / scale > 1e-10:
        raise NumericError(
            f"moment routes disagree: pairing={first!r} normal-ordered={second!r}"
        )
    return first


def hos_x(strength: float, m: int) -> float:
    """Closed-form 2m-th central moment of the collective position quadrature.

    Equals (1/4)^m (2m-1)!! e^{-4 m strength}; independent of the coherent
    amplitudes.
    """
    if not math.isfinite(strength):
        raise InvalidParameterError("strength must be finite")
    if m < 1:
        raise InvalidParameterError("moment half-order m must be >= 1")
    if 2 * m > MAX_MOMENT_ORDER:
        raise InvalidParameterError(f"moment order capped at {MAX_MOMENT_ORDER}")
    try:
        value = 0.25**m * double_factorial(2 * m - 1) * math.exp(-4 * m * strength)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericError(
            f"moment of order {2 * m} overflows double precision at |strength| = {abs(strength):g}"
        )
    return value


def hos_y(strength: float, m: int) -> float:
    """Companion of :func:`hos_x` for the collective momentum: grows as e^{4 m s}."""
    return hos_x(-strength, m)


def two_mode_baseline_variance(strength: float) -> tuple[float, float]:
    """Quadrature variances (e^{-2s}/4, e^{2s}/4) of the two-mode benchmark squeezer."""
    if not math.isfinite(strength):
        raise InvalidParameterError("strength must be finite")
    return math.exp(-2 * strength) / 4, math.exp(2 * strength) / 4


def _closed_coefficients(mats: SqueezeMatrices) -> np.ndarray:
    """Coefficients of the closed Wigner exponent at one strength.

    (ud, uo, ud^2 + 2 uo^2, 2 ud uo + uo^2) from the circulant entries of
    p_map, then the same four from q_map; the last two of each are the
    diagonal and off-diagonal entries of the squared map.  Python float
    arithmetic keeps a strength batch (stacked from these) bit-equal to
    single states.  All inf when a square overflows double precision.
    """
    ud, uo = mats.p_diag, mats.p_off   # act on q, paired with sig
    vd, vo = mats.q_diag, mats.q_off   # act on p, paired with chi
    try:
        return np.array([ud, uo, ud**2 + 2 * uo**2, 2 * ud * uo + uo**2,
                         vd, vo, vd**2 + 2 * vo**2, 2 * vd * vo + vo**2])
    except OverflowError:
        return np.full(8, math.inf)


def _closed_exponent(coeffs, alpha: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Scalar-entry expansion of the closed form
    #   pi^3 W = exp(-|p_map q - sig|^2 - |q_map p - chi|^2),
    # written out in single-index and ordered-pair sums over the circulant
    # entries.  The p_map/q_map attachment is forced by the state covariance
    # (the printed form with the attachments interchanged fails the parity
    # oracle; see the errata report).  ``coeffs`` are the 8 numbers of
    # _closed_coefficients, or 8 arrays that broadcast against q and p.
    sig = math.sqrt(2) * alpha.real
    chi = math.sqrt(2) * alpha.imag
    ud, uo, uu_d, uu_o, vd, vo, vv_d, vv_o = coeffs
    expo = np.zeros(np.broadcast(q[..., 0], p[..., 0]).shape)
    for j in range(3):
        expo = expo - (uu_d * q[..., j] ** 2 - 2 * ud * q[..., j] * sig[j] + sig[j] ** 2)
        expo = expo - (vv_d * p[..., j] ** 2 - 2 * vd * p[..., j] * chi[j] + chi[j] ** 2)
    for j in range(3):
        for k in range(j):
            expo = expo - 2 * (
                uu_o * q[..., j] * q[..., k]
                - uo * (q[..., j] * sig[k] + q[..., k] * sig[j])
            )
            expo = expo - 2 * (
                vv_o * p[..., j] * p[..., k]
                - vo * (p[..., j] * chi[k] + p[..., k] * chi[j])
            )
    return expo


def _covariance_exponent(r: np.ndarray, inv: np.ndarray, det) -> np.ndarray:
    # log(pi^3 W) from the generic Gaussian form at offsets r from the mean,
    # with inv = cov^{-1} and det = det(cov); det(cov) = (1/2)^6 makes the
    # normalization exactly pi^{-3}
    quad = np.einsum("...i,...ij,...j", r, inv, r)
    return -0.5 * quad + np.log(math.pi**3 * (2 * math.pi) ** -3 * det**-0.5)


def _wigner_closed(state: GaussianState, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.exp(_closed_exponent(state.closed.tolist(), state.alpha, q, p)) / math.pi**3


def _wigner_covariance(state: GaussianState, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    r = np.concatenate([q, p], axis=-1) - state.mean
    inv = np.linalg.inv(state.cov)
    return np.exp(_covariance_exponent(r, inv, np.linalg.det(state.cov))) / math.pi**3


def wigner(state: GaussianState, q, p) -> float | np.ndarray:
    """Wigner function at phase-space point(s) (q, p), each of shape (..., 3).

    Evaluates both the scalar closed form and the generic Gaussian form from
    the state covariance and compares their exponents; a gap above 1e-10
    relative (widened proportionally for extreme exponents, where float
    rounding alone exceeds it) raises NumericError.  Both routes and the
    allowance are elementwise, so a batch of points gives bit for bit the
    values of one call per point.  The strength axes of a batched state line
    up with the first leading axes of the points.  Non-finite points raise
    InvalidParameterError; an exponent or covariance inverse that overflows
    double precision raises NumericError.  Values lie in (0, 1/pi^3].
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape[-1:] != (3,) or p.shape[-1:] != (3,):
        raise InvalidParameterError("q and p must have 3 components each")
    lead = np.broadcast_shapes(q.shape[:-1], p.shape[:-1])
    batch = state.closed.shape[:-1]
    if len(lead) < len(batch):
        raise InvalidParameterError("points need a leading axis for each strength axis of the state")
    pad = (1,) * (len(lead) - len(batch))

    def line_up(x):  # state axes in front of the remaining leading axes of the points
        return x.reshape(batch + pad + np.shape(x)[len(batch):]) if batch else x

    if batch:
        lead = np.broadcast_shapes(lead, batch + pad)
    q = np.broadcast_to(q, lead + (3,))
    p = np.broadcast_to(p, lead + (3,))
    points = np.concatenate([q, p], axis=-1)
    if not np.isfinite(points).all():
        raise InvalidParameterError("phase-space points must be finite")
    if not np.isfinite(state.closed).all():
        raise NumericError(f"wigner exponent overflows double precision at {_strengths(state)}")
    try:
        inv = np.linalg.inv(state.cov)
    except np.linalg.LinAlgError:
        raise NumericError(
            f"covariance is singular in double precision at {_strengths(state)}"
        ) from None
    # rounding allowance of the generic route: the accuracy of its quadratic
    # form degrades with the covariance condition number (eigenvalues span
    # exp(+-4s)) and with cancellation against the mean offset, so grant the
    # standard cond*eps bound on top of the 1e-10 base tolerance
    cond = np.abs(state.cov).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    inv, cond = line_up(inv), line_up(cond)
    r = points - line_up(state.mean)
    # plain floats for one strength: the same bits as arrays, at less cost
    coeffs = np.moveaxis(line_up(state.closed), -1, 0) if batch else state.closed.tolist()
    closed = _closed_exponent(coeffs, state.alpha, q, p)
    generic = _covariance_exponent(r, inv, line_up(np.linalg.det(state.cov)))
    accumulated = 0.5 * np.einsum("...i,...ij,...j", np.abs(r), np.abs(inv), np.abs(r))
    eps = np.finfo(float).eps
    allowed = (
        1e-10 * np.maximum(1.0, np.abs(closed))
        + 16 * eps * (accumulated + cond * np.maximum(1.0, np.abs(closed)))
    )
    gaps = np.abs(closed - generic)
    if (gaps > allowed).any():
        raise NumericError(f"wigner routes disagree by {gaps.max():.3e} in the exponent")
    out = np.exp(closed) / math.pi**3
    return out if out.ndim else float(out)


def wigner_normalization(state: GaussianState, points: int = 41, width: float = 6.0) -> float:
    """Tensor trapezoid of W over a box of +-width standard deviations per axis.

    The q-p cross covariances vanish, so the 6D tensor rule factorizes into a
    q-box integral times a p-box integral; each factor is evaluated on a full
    3D grid.
    """
    _one_strength(state, "wigner_normalization")
    if points < 3:
        raise InvalidParameterError("need at least 3 points per axis")
    sigmas = np.sqrt(np.diag(state.cov))

    def block_integral(offset):
        axes = []
        weights = []
        for j in range(3):
            center = state.mean[offset + j]
            half = width * sigmas[offset + j]
            grid = np.linspace(center - half, center + half, points)
            w = np.full(points, grid[1] - grid[0])
            w[0] /= 2
            w[-1] /= 2
            axes.append(grid)
            weights.append(w)
        g0, g1, g2 = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g0, g1, g2], axis=-1)
        block = pts - state.mean[offset : offset + 3]
        inv = np.linalg.inv(state.cov[offset : offset + 3, offset : offset + 3])
        vals = np.exp(-0.5 * np.einsum("...i,ij,...j", block, inv, block))
        return float(np.einsum("ijk,i,j,k", vals, *weights))

    det = np.linalg.det(state.cov)
    return (2 * math.pi) ** -3 * det**-0.5 * block_integral(0) * block_integral(3)


def normal_order_coefficients(strength: float) -> tuple[float, np.ndarray]:
    """Vacuum amplitude and pair-creation matrix of the normal-ordered unitary.

    Returns (det(q_map)/det(overlap))**(1/2) and the symmetric matrix
    q_map overlap^{-1} q_map^T - I; acting on the vacuum, the unitary equals
    the amplitude times exp(pair/2 quadratic in creation operators).
    """
    mats = build_squeeze_matrices(strength)
    overlap = mats.overlap
    det_overlap = np.linalg.det(overlap)
    if not det_overlap > 0:
        raise NumericError("overlap matrix not positive definite")  # unreachable for finite strength
    prefactor = float(np.sqrt(np.linalg.det(mats.q_map) / det_overlap))
    pair = mats.q_map @ np.linalg.inv(overlap) @ mats.q_map.T - np.eye(3)
    return prefactor, pair
