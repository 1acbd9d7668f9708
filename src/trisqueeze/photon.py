"""Higher-order photon statistics of the symmetric collective mode.

The collective mode A = (a1+a2+a3)/sqrt(3) of the squeezed coherent state
behaves like a single mode squeezed with twice the strength.  Two routes to
the factorial moments <A^dag^k A^k> live side by side:

* the *closed* route evaluates the published Hermite-polynomial formula
  verbatim, including its prefactors, so the published figure data can be
  regenerated exactly as printed (each order a call needs, 1 and k for P_k,
  summed term by term over one Hermite table);
* the *exact* route sums the Wick pairings of cosh(2s) A - sinh(2s) A^dag
  in closed form; it is cutoff-free and is validated against the
  brute-force Fock oracle and 60-digit symbolic normal ordering.

The two routes disagree by systematic factors (see the errata report); both
values are always carried so the discrepancy stays visible.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_POWER, InvalidParameterError, check_amplitudes, check_integer,
                     check_numbers, check_strength, refuse_overflow)
from .matrices import collective_factors

__all__ = ["PkResult", "gm_pair", "mean_power_paper", "mean_power_exact", "pk", "fig1_scan"]


@dataclass(frozen=True)
class PkResult:
    """Factorial-moment statistic P_k on both routes.

    P_k < 0 flags a narrower-than-Poisson photon-number distribution at
    order k.  ``paper_value`` is None when the closed route is singular
    (zero strength, or one so small that e^{-2s} - e^{2s} rounds to zero).
    For an array of amplitude triples the values are arrays of its leading
    shape.
    """

    k: int
    paper_value: float | np.ndarray | None
    exact_value: float | np.ndarray
    discrepancy: float | np.ndarray | None
    path: str

    @property
    def value(self) -> float | np.ndarray:
        return self.exact_value if self.path == "exact" else self.paper_value


def _answer(what: str, alpha, strength: float, compute, *args):
    """``compute(triples, strength, factors, *args)`` in one overflow scope, for the amplitude
    triples ``alpha`` (..., 3), given at least one axis, and the collective factors; checks the
    strength, then the amplitudes, naming ``what`` in a refusal.  A sum that overflows makes every
    value formed from it non-finite, so the scope refuses it, and :func:`_gm` does so before the
    closed route's singularity.  A single triple runs through the same array arithmetic as a grid
    of them, so its values equal that grid point's bit for bit, handed back as Python numbers.
    """
    strength = check_strength(strength)
    alpha = check_amplitudes(alpha, what)
    single = alpha.ndim == 1
    values = refuse_overflow(what, strength, compute, alpha[None] if single else alpha, strength,
                             collective_factors(strength), *args)
    return [value.item() for value in values] if single else values


def _gm(triples: np.ndarray, strength: float, factors: tuple) -> np.ndarray:
    # (G, M) stacked; ``factors`` is collective_factors(strength), as in every helper below
    coll_sum, coll_diff = factors
    total = np.add.accumulate(triples, axis=-1)[..., -1]  # a1 + a2 + a3, in that order
    if coll_diff == 0:
        if not np.isfinite(total).all():
            raise OverflowError  # an amplitude sum that overflowed is refused first
        raise InvalidParameterError(f"closed route undefined at strength {strength:g}; "
                                    "use the exact route")
    root_sd = cmath.sqrt(2 * coll_sum / (3 * coll_diff))
    root_ds = (2.0 / 3.0) / root_sd  # ZeroDivisionError where only 3 coll_diff overflowed
    pair = np.array((np.conj(total), total))
    return 1j * (root_sd * pair - root_ds * pair[::-1])


def gm_pair(alpha, strength: float) -> tuple:
    """Amplitude pair (G, M) of the closed route.

    InvalidParameterError where coll_diff = e^{-2s} - e^{2s} rounds to zero
    (zero strength, and |s| below about 1e-17): the square roots divide by it.
    For |s| from about 354.34 to 354.54 their ratio is 0, because only
    3 coll_diff overflows, and NumericError is raised, as where G or M overflows.
    The two roots are branch-locked so that their product is 2/3: that
    choice reproduces the published expansions of G*M, G^2 and M^2 as real
    tanh/coth formulas, which a plain principal-branch pair does not.
    Broadcasts over the leading axes of ``alpha``.
    """
    g, m = _answer("closed-route amplitude pair", alpha, strength, _gm)
    return g, m


def mean_power_paper(k: int, alpha, strength: float) -> float | np.ndarray:
    """<A^dag^k A^k> from the published closed formula, taken verbatim.

    A value that overflows raises NumericError.  Broadcasts over the leading
    axes of ``alpha``.
    """
    return _mean_power(_printed, k, alpha, strength)


# ---------------------------------------------------------------------------
# exact route: Wick's theorem for the collective mode
# ---------------------------------------------------------------------------

@functools.cache
def _wick_table(k: int, ndim: int) -> tuple[np.ndarray, ...]:
    # (j, r1, r2, w) of each term of the Wick sum of order k (see mean_power_exact) and the exponents
    # 0..k on the leading axis of ndim + 1, as the powers cast them, and each term's l1 + l2 indexing
    # those; cached, since a build costs 40-45 us (2 cores) in each of the point workload's 800 pk calls
    j, l1, l2 = np.indices((k + 1,) * 3)
    r1, r2 = k - j - 2 * l1, k - j - 2 * l2
    j, l1, l2, r1, r2 = (index[(r1 >= 0) & (r2 >= 0)] for index in (j, l1, l2, r1, r2))
    f = np.cumprod([1, *range(1, k + 1)])  # factorials 0..k
    w = (f[k] ** 2 // (f[j] * f[l1] * f[l2] * 2 ** (l1 + l2) * f[r1] * f[r2])).astype(float)
    terms = j.astype(float), r1.astype(complex), r2.astype(complex), w, np.arange(k + 1.0)
    return *(part.reshape(-1, *(1,) * ndim) for part in terms), l1 + l2


def _wick_sum(k: int, beta: np.ndarray, n, m) -> np.ndarray:
    # the Wick sum of order k for means ``beta`` and pair moments ``n``, ``m`` (scalars or of
    # beta's shape); a running sum adds the terms in order, for one amplitude as for a grid.  m's
    # k + 1 powers are formed once: m < 0 at s > 0, where numpy's pow takes a 20 times slower loop
    j, r1, r2, w, exponents, l12 = _wick_table(k, beta.ndim)
    return np.add.accumulate(w * n**j * (m**exponents)[l12] * beta.conj() ** r1 * beta**r2)[-1].real


def _collective_mean(triples: np.ndarray, factors: tuple) -> tuple[np.ndarray, float, float]:
    # beta = c*a - t*conj(a) at collective amplitudes a = (a1 + a2 + a3)/sqrt(3), and c and t
    # (half the sum and minus half the difference)
    amp = np.add.accumulate(triples, axis=-1)[..., -1] / math.sqrt(3)
    c, t = factors[0] / 2, -factors[1] / 2
    return c * amp - t * np.conj(amp), c, t


def _exact(triples: np.ndarray, strength: float, factors: tuple, k: int) -> list:
    # <A^dag^k A^k> by the Wick sum, as _printed's one row; the caller refuses non-finite values
    beta, c, t = _collective_mean(triples, factors)
    return [_wick_sum(k, beta, t * t, -c * t)]


def mean_power_exact(k: int, alpha, strength: float) -> float | np.ndarray:
    """<A^dag^k A^k> from the exact Heisenberg map of the collective mode.

    A evolves to B = cA - tA^dag (c = cosh 2s, t = sinh 2s).  In the coherent
    state of collective amplitude a, B has mean beta = c*a - t*conj(a) and
    normal-ordered pair moments n = <dB^dag dB> = t^2, m = <dB dB> = -ct, so
    <e^{x B^dag} e^{y B}> = exp(x conj(beta) + y beta + xy n + (x^2 + y^2) m/2)
    by Wick's theorem.  (k!)^2 times its x^k y^k coefficient, from j factors
    xy n, l1 of x^2 m/2, l2 of y^2 m/2, r1 = k-j-2*l1 of x conj(beta) and
    r2 = k-j-2*l2 of y beta, is

        <B^dag^k B^k> = sum_{j,l1,l2} w n^j m^(l1+l2) conj(beta)^r1 beta^r2,
        w = (k!)^2 / (j! l1! l2! 2^(l1+l2) r1! r2!),

    w being the integer count of Wick pairings of that shape, tabled per k
    and grid rank.  Exact at every strength including zero; a value that
    overflows raises NumericError.  Broadcasts over the leading axes of ``alpha``.
    """
    return _mean_power(_exact, k, alpha, strength)


def _hermite_table(m: int, x) -> np.ndarray:
    # H_0(x), ..., H_m(x) for m >= 1, physicists' Hermite polynomials by the three-term
    # recurrence, along a new leading axis of the shape of the real, complex or array argument x
    table = np.ones((m + 1, *np.shape(x)), np.result_type(x, 1.0))
    twice_x = np.multiply(2.0, x, table[1, ...])
    for j in range(1, m):
        np.subtract(twice_x * table[j], (2.0 * j) * table[j - 1], table[j + 1, ...])
    return table


def _printed(triples: np.ndarray, strength: float, factors: tuple, *orders: int) -> list:
    # <A^dag^k A^k> by the published k-sums, a row per k of ``orders``; the caller refuses
    # non-finite values.  Their imaginary part is rounding alone and dropped: the branch-locked
    # pair has m = conj(g) for s > 0 and m = -conj(g) for s < 0, so H_j(g/2) H_j(m/2) is
    # |H_j(g/2)|^2 times 1 or (-1)^j (H_j is real and of parity j), and with the sign of
    # (-2 coll_diff)^n every term has the sign of s^k: nothing cancels to leave a residue
    coll_sum, coll_diff = factors
    table = _hermite_table(max(orders), _gm(triples, strength, factors) / 2)
    lead = (1,) * (triples.ndim - 1)
    f = math.factorial
    powers = []
    for k in orders:
        coef = np.array([(-2 * coll_diff) ** n * f(k) ** 2 / (16**n * coll_sum**n * f(k - n) ** 2 * f(n))
                         for n in range(k + 1)], complex).reshape(-1, *lead)
        terms = coef * table[k::-1, 0] * table[k::-1, 1]  # term n reads H_{k-n}(g/2), H_{k-n}(m/2)
        powers.append(((-coll_sum * coll_diff / 2) ** k * np.add.accumulate(terms)[-1]).real)
    return powers


def _mean_power(route, k: int, alpha, strength: float) -> float | np.ndarray:
    # <A^dag^k A^k> by ``route``, _printed or _exact
    k = check_integer(k, "power k")
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    return _answer("photon-number moment", alpha, strength, route, k)[0]


def pk(k: int, alpha, strength: float, path: str = "exact") -> PkResult:
    """Sub-/super-Poissonian statistic P_k = <A^dag^k A^k>/<A^dag A>^k - 1.

    Both routes are evaluated and stored (the closed route only where it is
    not singular); ``path`` selects which one ``value`` reports.  The exact
    route is one Wick sum scaled by <A^dag A>, with no power of it formed.
    Broadcasts over the leading axes of ``alpha``, every check applying to
    each amplitude: a vanishing mean photon number raises
    InvalidParameterError, and a value that overflows or is not finite
    raises NumericError.
    """
    k = check_integer(k, "k")
    if not 2 <= k <= MAX_POWER:
        raise InvalidParameterError(f"P_k needs 2 <= k <= {MAX_POWER}, got {k}")
    if path not in ("paper", "exact"):
        raise InvalidParameterError(f"path must be 'paper' or 'exact', got {path!r}")
    def statistics(triples, strength, factors):
        # the exact route, then the printed one unless it is singular (coll_diff = 0) and not
        # asked for; asked for, _gm refuses it there.  A Wick term has degree 2k in
        # (beta, sqrt(n), sqrt(m)); dividing beta by sqrt(N) and n, m by N, N = <A^dag A> =
        # |beta|^2 + t^2, gives P_k + 1 with no unscaled square for tiny amplitudes to underflow
        beta, c, t = _collective_mean(triples, factors)
        root = np.hypot(np.abs(beta), t)
        small = root < 2.0**-1022
        if small.any():
            if not root.all():
                raise InvalidParameterError("mean photon number 0.0 not positive")
            # 1/root overflows for a subnormal root; t = 0 there (|t| >= 1e-16 otherwise), so
            # P_k does not depend on the scale of beta, and 2^64 lifts it exactly; m is then 0
            beta = np.where(small, beta * 2.0**64, beta)
            root = np.where(small, np.abs(beta), root)
        scaled_t = t / root
        exact = _wick_sum(k, beta / root, scaled_t**2, (-c / root) * scaled_t) - 1
        if factors[1] == 0 and path == "exact":
            return (exact,)
        mean_photon, power = _printed(triples, strength, factors, 1, k)
        return exact, power / mean_photon**k - 1

    exact_value, *paper = _answer(f"P_{k}", alpha, strength, statistics)  # both routes, one scope
    paper_value = paper[0] if paper else None
    return PkResult(k=k, paper_value=paper_value, exact_value=exact_value, path=path,
                    discrepancy=None if paper_value is None else abs(paper_value - exact_value))


def fig1_scan(re_values, im_values) -> tuple[np.ndarray, ...]:
    """P_2 of the published scan: alpha = (1, 1, x + iy) at unit strength.

    Returns the columns (re_alpha3, im_alpha3, p2_paper, p2_exact), float64
    arrays with one entry per grid point, x outer and y inner, from one
    :func:`pk` call over the grid; any non-finite value aborts.
    """
    re_values = check_numbers(re_values, "scan grid")
    im_values = check_numbers(im_values, "scan grid")
    if re_values.size == 0 or im_values.size == 0:
        raise InvalidParameterError("empty scan grid")
    x, y = np.meshgrid(re_values, im_values, indexing="ij")
    ones = np.ones_like(x)
    result = pk(2, np.stack([ones, ones, x + 1j * y], axis=-1), 1.0)
    return x.ravel(), y.ravel(), result.paper_value.ravel(), result.exact_value.ravel()
