"""Brute-force three-mode Fock engine.

Ground truth for every closed form in the package at small parameters: a
state is propagated by applying the exponential of the squeeze generator,
written in the truncated ladder operators, to its ket, so nothing here
shares code (or derivation steps) with the Gaussian modules.
A ket is a flat complex128 or float64 array of cutoff^3 amplitudes (``evolve`` keeps its
dtype); each reader raises InvalidParameterError for any other, and all but ``ladder`` for
one with a NaN or inf amplitude or norm 0.  Kronecker ordering is mode1 (x) mode2 (x)
mode3; basis index of the number state |n1 n2 n3> is (n1*cutoff + n2)*cutoff + n3, so a
ladder operator of mode i shifts the flat index by its stride (cutoff^2, cutoff, 1).
"""

import math

import numpy as np

from .errors import (MAX_MOMENT_ORDER, MAX_POWER, InvalidParameterError, TruncationError,
                     check_amplitudes, check_integer, check_numbers, check_strength)

__all__ = [
    "FockArena",
    "build_arena",
    "evolve",
    "coherent_ket",
    "ladder",
    "moment_x3",
    "mean_power",
    "displaced_parity",
    "convergence_report",
]

MIN_CUTOFF, MAX_CUTOFF = 2, 32

# Largest share of an evolved ket's probability on the outermost shell (any mode at n = cutoff-1),
# measured, not proven: oracle checks stay below 2e-3; the vacuum at strength 3 puts 0.11 there at
# cutoff 4, 0.29 at cutoff 6.  It bounds no value's relative error: at strength 0.8, alpha = (0.4,
# 0.5, 0.6) and cutoff 32, var-x3 passes 7% above its closed form with 1.6e-4 on that shell.
BOUNDARY_MASS_LIMIT = 1e-2

# Largest 1-norm of the generator in one Taylor step of `evolve` (no term of a
# step exceeds theta^theta/theta! = 416 times its input), and most steps taken.
TAYLOR_THETA, MAX_TAYLOR_STEPS = 8.0, 1000
_ROOT12 = 1 / math.sqrt(12)  # (Q1+Q2+Q3)/sqrt(6) = sum_i (a_i + a_i^dag) / sqrt(12)


class FockArena:
    """Ladder weights on shifted slices: ``lowering[i]`` = (stride_i, w) with
    (a_i v)[m] = w[m] v[m + stride_i], w[m] = sqrt(m_i+1) (0 at m_i = cutoff-1);
    ``pairs`` holds a_i a_j, i < j, alike at offset stride_i + stride_j."""

    def __init__(self, cutoff: int):
        self.cutoff = c = check_integer(cutoff, "cutoff")
        if not MIN_CUTOFF <= c <= MAX_CUTOFF:
            raise InvalidParameterError(
                f"cutoff must be in [{MIN_CUTOFF}, {MAX_CUTOFF}], got {c}"
            )
        self.dim = c**3
        occ = np.indices((c, c, c)).reshape(3, -1)
        roots = np.where(occ < c - 1, np.sqrt(occ + 1.0), 0.0)
        strides = (c * c, c, 1)
        self.lowering = [(s, roots[i, :-s]) for i, s in enumerate(strides)]
        self.pairs = [(strides[i] + strides[j], (roots[i] * roots[j])[:-strides[i] - strides[j]])
                      for i, j in ((0, 1), (0, 2), (1, 2))]
        self.parity_signs = np.where(occ.sum(axis=0) % 2, -1.0, 1.0)


def build_arena(cutoff: int) -> FockArena:
    """Construct the truncated space and its ladder weights."""
    return FockArena(cutoff)


def evolve(arena: FockArena, strength: float, ket: np.ndarray) -> np.ndarray:
    """e^{K}|ket> with K = i*strength*[Q1(P2+P3) + Q2(P1+P3) + Q3(P1+P2)].

    Modes commute even when truncated, so i(Q_i P_j + Q_j P_i) = a_i a_j - a_i^dag a_j^dag:
    K = strength * sum_{i<j} of these is real antisymmetric (the norm is kept, e^{-K} undoes
    the step).  Its entries are products of ladder weights sqrt(n), with no i left, so e^K
    maps a real ket to a real one: a ket with no imaginary part is evolved in real
    arithmetic, and the result has the ket's dtype.  Column m of K/|strength| sums
    sqrt(m_i m_j) + sqrt((m_i+1)(m_j+1)) over the pairs, the second term only while m_i,
    m_j <= c-2; each pair's sum peaks at 2c-3 for m_i = m_j = c-2 (it is at most c-1 if
    either is c-1), all three at m = (c-2, c-2, c-2), so ||K||_1 = ||K||_inf =
    |strength|(6c-9) >= ||K||_2.  Scaled Taylor sums (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)): ceil(||K||_1/TAYLOR_THETA) steps e^{K/steps} of 1-norm rho.
    Each term past the k-th shrinks by rho/(k+1) or more, so once k+1 > rho the tail is at
    most ||term_k|| rho/(k+1-rho); a step stops when that is below 2^-53 of its sum.  A term
    is six products, +w t[m + o] and -w t[m - o] for each pair's weights w and offset o, each
    in its own row of one buffer, and one np.add.reduce sums the rows from +0 in the order of
    slice-by-slice updates (a_i a_j, then a_i^dag a_j^dag, pair by pair): the same sums, so
    the same bits, and a sum from +0 is never -0, so the sign of a zero product cannot show.
    Raises InvalidParameterError for a ket that is not a finite, nonzero 1-D float64 or
    complex128 array of arena.dim amplitudes, and TruncationError past MAX_TAYLOR_STEPS, or
    with over BOUNDARY_MASS_LIMIT of the probability on the outermost shell, a limit
    measured, not proven, that bounds no value's relative error.
    """
    strength = check_strength(strength)
    _norm2(arena, ket)  # before the Taylor terms, in which an inf amplitude meets 0 * inf
    norm1 = abs(strength) * (6 * arena.cutoff - 9)
    if norm1 > MAX_TAYLOR_STEPS * TAYLOR_THETA:
        raise TruncationError(f"strength {strength:g} is too large for the Fock oracle")
    steps = max(1, math.ceil(norm1 / TAYLOR_THETA))
    rho, scale = norm1 / steps, strength / steps
    real = not ket.imag.any()  # K is real: a real ket stays real, in real arithmetic
    moved = ket.real if real else ket
    products = np.zeros((6, arena.dim), moved.dtype)  # entries no pair reaches stay 0
    term, total = np.empty_like(moved), moved.copy()
    plan = []  # (weights, slice of the term, product row it fills), weights cast once
    for (off, w), up, down in zip(arena.pairs, products[::2], products[1::2]):
        w = w.astype(moved.dtype)
        plan += [(w, term[off:], up[:-off]), (-w, term[:-off], down[off:])]
    # np.linalg.norm of a 1-D array by its own operations, so the same bits, without its dispatch
    norm = lambda x: math.sqrt(x.dot(x) if real else x.real.dot(x.real) + x.imag.dot(x.imag))
    for _ in range(steps):
        term[...], k = total, 0
        while k + 1 <= rho or norm(term) * rho > (k + 1 - rho) * 2.0**-53 * norm(total):
            k += 1
            for w, source, row in plan:
                np.multiply(w, source, out=row)
            np.add.reduce(products, out=term)  # row by row, from the identity +0
            term *= scale / k
            total += term
    moved = total
    weights = (np.abs(moved) ** 2).reshape((arena.cutoff,) * 3)
    total = weights.sum()
    boundary = (total - weights[:-1, :-1, :-1].sum()) / total
    if boundary > BOUNDARY_MASS_LIMIT:
        raise TruncationError(
            f"{boundary:.3e} of the probability sits on the outermost Fock shell "
            f"(limit {BOUNDARY_MASS_LIMIT:g}); increase the cutoff or reduce the strength"
        )
    return moved.astype(ket.dtype)


def _check_tail(amp, name: str, cutoff: int) -> None:
    # the tail guard |amp|^2 <= cutoff/4, compared unsquared so that it cannot overflow
    if abs(amp) > (limit := math.sqrt(cutoff) / 2):
        raise TruncationError(f"|{name}| = {abs(amp):.4g} too large for cutoff {cutoff} "
                              f"(limit {limit:.4g})")


def _check_ket(arena: FockArena, ket) -> None:
    # the one ket rule of the engine; mean_power's ket meets it in ladder.  evolve's term buffer
    # would broadcast a length-1 ket, and numpy alone answers a list or a (6, 36) array
    array = isinstance(ket, np.ndarray)
    if not (array and ket.dtype in (np.float64, np.complex128) and ket.shape == (arena.dim,)):
        got = f"{ket.dtype} of shape {ket.shape}" if array else type(ket).__name__
        raise InvalidParameterError(
            f"ket must be a 1-D float64 or complex128 array of {arena.dim} amplitudes, got {got}")


def _norm2(arena: FockArena, ket) -> float:
    # the ket rule and a squared norm to divide by: a NaN, inf or zero ket would answer NaN
    _check_ket(arena, ket)
    if not 0 < (norm2 := np.vdot(ket, ket).real) < math.inf:
        raise InvalidParameterError(f"ket must be finite and nonzero, got squared norm {norm2:g}")
    return norm2


def coherent_ket(arena: FockArena, alpha) -> np.ndarray:
    """Normalized truncated product coherent state |alpha1 alpha2 alpha3>."""
    alpha = check_amplitudes(alpha, "coherent ket")
    if alpha.shape != (3,):
        raise InvalidParameterError(f"coherent amplitudes must be one triple, got shape {alpha.shape}")
    factors = []
    n = np.arange(arena.cutoff)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, arena.cutoff)))])
    for amp in alpha:
        _check_tail(amp, "alpha", arena.cutoff)
        factors.append(np.exp(-abs(amp) ** 2 / 2) * amp**n / np.exp(log_fact / 2))
    ket = np.multiply.outer(np.multiply.outer(factors[0], factors[1]), factors[2]).reshape(-1)
    return ket / np.linalg.norm(ket)


def ladder(arena: FockArena, vec: np.ndarray, down, up=0.0) -> np.ndarray:
    """sum_i (down_i a_i + up_i a_i^dag) vec; one coefficient per mode, or one for all."""
    _check_ket(arena, vec)
    for c in (check_numbers(x, "ladder coefficients", "iufc") for x in (down, up)):  # validation only
        if c.shape not in ((), (3,)) or not np.isfinite(c).all():
            raise InvalidParameterError("ladder coefficients must be finite, one number or three")
    out = np.zeros(arena.dim, dtype=complex)
    for (stride, w), d, u in zip(arena.lowering, np.broadcast_to(down, 3), np.broadcast_to(up, 3)):
        out[:-stride] += d * w * vec[stride:]
        out[stride:] += u * w * vec[:-stride]
    return out


def _central_moment(quadrature, vec: np.ndarray, order: int) -> float:
    order = check_integer(order, "order")
    if order < 2 or order % 2 or order > MAX_MOMENT_ORDER:
        raise InvalidParameterError(f"order must be even and in 2..{MAX_MOMENT_ORDER}, got {order}")
    norm2 = np.vdot(vec, vec).real
    mean = np.vdot(vec, quadrature(vec)).real / norm2
    half = vec
    for _ in range(order // 2):
        half = quadrature(half) - mean * half
    return float(np.vdot(half, half).real / norm2)


def moment_x3(arena: FockArena, ket: np.ndarray, order: int) -> float:
    """Central moment <(X3 - <X3>)^order> of (Q1+Q2+Q3)/sqrt(6) = sum_i (a_i + a_i^dag)/sqrt(12)."""
    _norm2(arena, ket)
    return _central_moment(lambda v: ladder(arena, v, _ROOT12, _ROOT12), ket, order)


def mean_power(arena: FockArena, ket: np.ndarray, k: int) -> float:
    """<A^dag^k A^k> for the collective mode A = (a1+a2+a3)/sqrt(3)."""
    k = check_integer(k, "k")
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"k must be in 1..{MAX_POWER}, got {k}")
    vec, norm2 = ket, _norm2(arena, ket)
    for _ in range(k):
        vec = ladder(arena, vec, 1 / math.sqrt(3))
    return float(np.vdot(vec, vec).real / norm2)


def displaced_parity(arena: FockArena, ket: np.ndarray, betas) -> float | np.ndarray:
    """Expectation of the product of displaced parity operators at (beta1, beta2, beta3).

    One value per triple of ``betas`` (shape (..., 3)).  D(beta)^dag of each
    distinct beta is built once, as V diag(e^{i eps}) V^dag from the eigenpairs
    of the Hermitian i(beta a^dag - beta* a), and moves its mode; the parity is
    then read off the diagonal signs.
    """
    norm2 = _norm2(arena, ket)
    betas = check_amplitudes(betas, "displaced parity", "displacements")
    c = arena.cutoff
    lower = np.diag(np.sqrt(np.arange(1.0, c)), 1)
    inverse = {}
    for beta in set(betas.flat):
        _check_tail(beta, "beta", c)
        eps, vecs = np.linalg.eigh(1j * (beta * lower.T - np.conj(beta) * lower))
        inverse[beta] = (vecs * np.exp(1j * eps)) @ vecs.conj().T
    values = []
    for triple in betas.reshape(-1, 3):
        moved = ket  # as np.tensordot(D, cube, (1, mode)) would: mode in front, the rest in order
        for beta, axes in zip(triple, ((0, 1, 2), (1, 0, 2), (2, 1, 0))):  # of the last product
            moved = np.dot(inverse[beta], moved.reshape(c, c, c).transpose(axes).reshape(c, c * c))
        moved = moved.reshape(c, c, c).transpose(1, 2, 0).reshape(-1)  # back to (m0, m1, m2)
        values.append((arena.parity_signs * np.abs(moved) ** 2).sum() / norm2)
    values = np.reshape(values, betas.shape[:-1])
    return float(values) if values.ndim == 0 else values


def convergence_report(quantity, cutoffs) -> list[dict]:
    """Evaluate ``quantity(cutoff)`` over increasing cutoffs.

    Returns one dict per cutoff with the value, the delta to the previous
    cutoff, and a flag marking any non-monotone |delta| tail.
    """
    cutoffs = [check_integer(c, "cutoff") for c in cutoffs]
    if len(cutoffs) < 2 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise InvalidParameterError("need at least two strictly increasing cutoffs")
    rows, previous, last_delta = [], None, None
    for cut in cutoffs:
        value = float(quantity(cut))
        delta = None if previous is None else value - previous
        shrinking = last_delta is None or abs(delta) <= abs(last_delta)
        rows.append({"cutoff": cut, "value": value, "delta": delta, "shrinking": shrinking})
        previous, last_delta = value, delta
    return rows
