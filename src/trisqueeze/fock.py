"""Brute-force three-mode Fock engine.

Ground truth for every closed form in the package at small parameters: a
state is propagated by applying the exponential of the squeeze generator,
written in the truncated quadrature operators, to its ket, so nothing here
shares code (or derivation steps) with the Gaussian modules.
Kronecker ordering is mode1 (x) mode2 (x) mode3; basis index of the number
state |n1 n2 n3> is (n1*cutoff + n2)*cutoff + n3.
"""

import math

import numpy as np
from scipy import sparse
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from .errors import InvalidParameterError, TruncationError

__all__ = [
    "FockArena",
    "KetVector",
    "build_arena",
    "evolve",
    "coherent_ket",
    "expect",
    "moment_x3",
    "moment_y3",
    "mean_power",
    "displaced_parity",
    "convergence_report",
]

MIN_CUTOFF, MAX_CUTOFF = 2, 32

# Largest share of an evolved ket's probability on the outermost occupation
# shell (any mode at n = cutoff-1): oracle checks stay below 2e-3, while the
# vacuum at strength 3 puts 0.11 there at cutoff 4 and 0.29 at cutoff 6.
BOUNDARY_MASS_LIMIT = 1e-2


class KetVector:
    """State vector in the truncated three-mode Fock space."""

    def __init__(self, amplitudes: np.ndarray):
        self.amplitudes = np.asarray(amplitudes, dtype=complex)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class FockArena:
    """Operator matrices of the truncated three-mode Fock space."""

    def __init__(self, cutoff: int):
        if not MIN_CUTOFF <= cutoff <= MAX_CUTOFF:
            raise InvalidParameterError(
                f"cutoff must be in [{MIN_CUTOFF}, {MAX_CUTOFF}], got {cutoff}"
            )
        self.cutoff = int(cutoff)
        self.dim = self.cutoff**3
        lower = sparse.diags(np.sqrt(np.arange(1, cutoff)), 1, format="csr", dtype=complex)
        eye = sparse.identity(cutoff, format="csr", dtype=complex)
        self.a_ops = [
            sparse.kron(sparse.kron(lower, eye), eye, format="csr"),
            sparse.kron(sparse.kron(eye, lower), eye, format="csr"),
            sparse.kron(sparse.kron(eye, eye), lower, format="csr"),
        ]
        self.q_ops = [((a + a.conj().T) / math.sqrt(2)).tocsr() for a in self.a_ops]
        self.p_ops = [((a - a.conj().T) / (1j * math.sqrt(2))).tocsr() for a in self.a_ops]
        occ = np.arange(cutoff)
        total = (occ[:, None, None] + occ[None, :, None] + occ[None, None, :]).reshape(-1)
        self.parity_signs = (-1.0) ** total
        self._single_lower = lower.toarray()

    def index(self, n1: int, n2: int, n3: int) -> int:
        return (n1 * self.cutoff + n2) * self.cutoff + n3


def build_arena(cutoff: int) -> FockArena:
    """Construct the truncated space and cache all per-mode operators."""
    return FockArena(cutoff)


def evolve(arena: FockArena, strength: float, ket: KetVector) -> KetVector:
    """e^{K}|ket> with K = i*strength*[Q1(P2+P3) + Q2(P1+P3) + Q3(P1+P2)].

    The exponential acts on the one ket through the action-of-the-exponential
    algorithm of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011); the
    truncated K is anti-Hermitian, so the norm is kept and e^{-K} undoes the
    step.  Raises TruncationError when the evolved ket holds more than
    BOUNDARY_MASS_LIMIT of its probability on the outermost occupation shell.
    """
    if not math.isfinite(strength):
        raise InvalidParameterError("strength must be finite")
    q1, q2, q3 = arena.q_ops
    p1, p2, p3 = arena.p_ops
    gen = (1j * strength) * (q1 @ (p2 + p3) + q2 @ (p1 + p3) + q3 @ (p1 + p2))
    moved = expm_multiply(gen.tocsr(), ket.amplitudes)
    weights = (np.abs(moved) ** 2).reshape((arena.cutoff,) * 3)
    total = weights.sum()
    boundary = (total - weights[:-1, :-1, :-1].sum()) / total
    if boundary > BOUNDARY_MASS_LIMIT:
        raise TruncationError(
            f"{boundary:.3e} of the probability sits on the outermost Fock shell "
            f"(limit {BOUNDARY_MASS_LIMIT:g}); increase the cutoff or reduce the strength"
        )
    return KetVector(moved)


def coherent_ket(arena: FockArena, alpha) -> KetVector:
    """Normalized truncated product coherent state |alpha1 alpha2 alpha3>."""
    alpha = np.asarray(alpha, dtype=complex).reshape(3)
    if not np.all(np.isfinite(alpha.view(float))):
        raise InvalidParameterError("coherent amplitudes must be finite")
    factors = []
    for amp in alpha:
        if abs(amp) ** 2 > arena.cutoff / 4:
            raise TruncationError(
                f"|alpha|^2 = {abs(amp)**2:.3f} too large for cutoff {arena.cutoff}"
            )
        n = np.arange(arena.cutoff)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, arena.cutoff)))])
        vec = np.exp(-abs(amp) ** 2 / 2) * amp**n / np.exp(log_fact / 2)
        factors.append(vec)
    ket = np.kron(np.kron(factors[0], factors[1]), factors[2])
    ket /= np.linalg.norm(ket)
    return KetVector(ket)


def expect(arena: FockArena, ket: KetVector, observable) -> complex:
    """<ket|O|ket> / <ket|ket> for a dense or sparse observable."""
    vec = ket.amplitudes
    if observable.shape != (arena.dim, arena.dim) or vec.shape != (arena.dim,):
        raise InvalidParameterError("operator/state dimensions do not match the arena")
    return complex(np.vdot(vec, observable @ vec) / np.vdot(vec, vec))


def _central_moment(quadrature, ket: KetVector, order: int) -> float:
    if order < 2 or order % 2:
        raise InvalidParameterError(f"order must be even and >= 2, got {order}")
    vec = ket.amplitudes
    norm2 = float(np.vdot(vec, vec).real)
    mean = float(np.vdot(vec, quadrature @ vec).real) / norm2
    half = vec
    for _ in range(order // 2):
        half = quadrature @ half - mean * half
    return float(np.vdot(half, half).real) / norm2


def moment_x3(arena: FockArena, ket: KetVector, order: int) -> float:
    """Central moment <(X3 - <X3>)^order> of the collective position quadrature."""
    x3 = (arena.q_ops[0] + arena.q_ops[1] + arena.q_ops[2]) / math.sqrt(6)
    return _central_moment(x3, ket, order)


def moment_y3(arena: FockArena, ket: KetVector, order: int) -> float:
    """Central moment of the collective momentum quadrature (P1+P2+P3)/sqrt(6)."""
    y3 = (arena.p_ops[0] + arena.p_ops[1] + arena.p_ops[2]) / math.sqrt(6)
    return _central_moment(y3, ket, order)


def mean_power(arena: FockArena, ket: KetVector, k: int) -> float:
    """<A^dag^k A^k> for the collective mode A = (a1+a2+a3)/sqrt(3)."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    coll = (arena.a_ops[0] + arena.a_ops[1] + arena.a_ops[2]) / math.sqrt(3)
    vec = ket.amplitudes
    for _ in range(k):
        vec = coll @ vec
    return float(np.vdot(vec, vec).real / np.vdot(ket.amplitudes, ket.amplitudes).real)


def displaced_parity(arena: FockArena, ket: KetVector, betas) -> float:
    """Expectation of the product of displaced parity operators at (beta1, beta2, beta3).

    Each mode is displaced by exp(beta a^dag - beta* a) (built densely on the
    single-mode space), then the photon-number parity of the displaced state
    is read off the diagonal signs.
    """
    betas = np.asarray(betas, dtype=complex).reshape(3)
    lower = arena._single_lower
    c = arena.cutoff
    moved = ket.amplitudes.reshape(c, c, c).copy()
    for axis, beta in enumerate(betas):
        if abs(beta) ** 2 > c / 4:
            raise TruncationError(f"|beta|^2 = {abs(beta)**2:.3f} too large for cutoff {c}")
        disp = dense_expm(beta * lower.conj().T - np.conj(beta) * lower)
        moved = np.moveaxis(np.tensordot(disp.conj().T, moved, axes=(1, axis)), 0, axis)
    weighted = arena.parity_signs * np.abs(moved.reshape(-1)) ** 2
    return float(weighted.sum() / np.vdot(ket.amplitudes, ket.amplitudes).real)


def convergence_report(quantity, cutoffs) -> list[dict]:
    """Evaluate ``quantity(cutoff)`` over increasing cutoffs.

    Returns one dict per cutoff with the value, the delta to the previous
    cutoff, and a flag marking any non-monotone |delta| tail.
    """
    cutoffs = [int(c) for c in cutoffs]
    if len(cutoffs) < 2 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise InvalidParameterError("need at least two strictly increasing cutoffs")
    rows = []
    previous = None
    last_delta = None
    for cut in cutoffs:
        value = float(quantity(cut))
        delta = None if previous is None else value - previous
        shrinking = True
        if delta is not None and last_delta is not None:
            shrinking = abs(delta) <= abs(last_delta)
        rows.append({"cutoff": cut, "value": value, "delta": delta, "shrinking": shrinking})
        previous = value
        if delta is not None:
            last_delta = delta
    return rows
