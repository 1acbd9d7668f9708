"""Higher-order photon statistics of the symmetric collective mode.

The collective mode A = (a1+a2+a3)/sqrt(3) of the squeezed coherent state
behaves like a single mode squeezed with twice the strength.  Two routes to
the factorial moments <A^dag^k A^k> live side by side:

* the *closed* route evaluates the published Hermite-polynomial formula
  verbatim, including its prefactors, so the published figure data can be
  regenerated exactly as printed;
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

from .errors import (InvalidParameterError, check_amplitudes, check_integer, check_numbers,
                     check_strength, refuse_overflow)
from .matrices import collective_factors

__all__ = [
    "PkResult",
    "gm_pair",
    "mean_power_paper",
    "mean_power_exact",
    "pk",
    "fig1_scan",
]

MAX_POWER = 6


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


def _triples(alpha, strength: float, what: str) -> tuple[np.ndarray, bool, tuple]:
    """The amplitude sums of ``alpha`` (..., 3), with at least one axis, whether it was one
    triple, and the collective factors; checks the strength, the amplitudes, then the sums.

    A single triple runs through the same array arithmetic as a grid of them,
    so its values equal that grid point's bit for bit; results for it are
    handed back as plain numbers by :func:`_plain`.
    """
    strength = check_strength(strength)
    alpha = check_amplitudes(alpha, what)
    single, factors = alpha.ndim == 1, collective_factors(strength)
    a = alpha[None] if single else alpha
    total = refuse_overflow(what, strength, lambda: a[..., 0] + a[..., 1] + a[..., 2])
    return total, single, factors


def _plain(values: np.ndarray, single: bool):
    return values[0].item() if single else values


def _gm(total: np.ndarray, strength: float, factors: tuple) -> tuple[np.ndarray, np.ndarray]:
    # ``factors`` is collective_factors(strength), as in every helper below that takes it
    coll_sum, coll_diff = factors
    if coll_diff == 0:
        raise InvalidParameterError(f"closed route undefined at strength {strength:g}; "
                                    "use the exact route")
    root_sd = cmath.sqrt(2 * coll_sum / (3 * coll_diff))
    root_ds = (2.0 / 3.0) / root_sd  # ZeroDivisionError where only 3 coll_diff overflowed
    conj = np.conj(total)
    g = 1j * (root_sd * conj - root_ds * total)
    m = 1j * (root_sd * total - root_ds * conj)
    return g, m


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
    what = "closed-route amplitude pair"
    total, single, factors = _triples(alpha, strength, what)
    g, m = refuse_overflow(what, strength, _gm, total, strength, factors)
    return _plain(g, single), _plain(m, single)


def _paper_power(k: int, table: list, factors: tuple) -> np.ndarray:
    # the published k-sum, from a Hermite table of order k or higher.  Its
    # imaginary part is rounding alone, so only the real part is kept: the
    # branch-locked pair has m = conj(g) for s > 0 and m = -conj(g) for s < 0,
    # so H_j(g/2) H_j(m/2) is |H_j(g/2)|^2 times 1 or (-1)^j (H_j is real and
    # of parity j), and with the sign of (-2 coll_diff)^n every term of the
    # sum has the sign of s^k: nothing cancels to leave a residue
    coll_sum, coll_diff = factors
    value = 0j
    for n in range(k + 1):
        coef = (
            (-2 * coll_diff) ** n
            * math.factorial(k) ** 2
            / (2 ** (4 * n) * coll_sum**n * math.factorial(k - n) ** 2 * math.factorial(n))
        )
        h_g, h_m = table[k - n]
        value += coef * h_g * h_m
    return ((-coll_sum * coll_diff / 2) ** k * value).real


def mean_power_paper(k: int, alpha, strength: float) -> float | np.ndarray:
    """<A^dag^k A^k> from the published closed formula, taken verbatim.

    A value that overflows raises NumericError.  Broadcasts over the leading
    axes of ``alpha``.
    """
    return _mean_power("paper", k, alpha, strength)


# ---------------------------------------------------------------------------
# exact route: Wick's theorem for the collective mode
# ---------------------------------------------------------------------------

@functools.cache
def _wick_table(k: int) -> tuple[np.ndarray, ...]:
    # (j, l1 + l2, r1, r2, w) of every term of the Wick sum of order k (see mean_power_exact)
    j, l1, l2 = np.indices((k + 1,) * 3).reshape(3, -1)
    r1, r2 = k - j - 2 * l1, k - j - 2 * l2
    j, l1, l2, r1, r2 = (index[(r1 >= 0) & (r2 >= 0)] for index in (j, l1, l2, r1, r2))
    f = np.cumprod([1, *range(1, k + 1)])  # factorials 0..k
    return j, l1 + l2, r1, r2, f[k] ** 2 // (f[j] * f[l1] * f[l2] * 2 ** (l1 + l2) * f[r1] * f[r2])


def _wick_sum(k: int, beta: np.ndarray, n, m) -> np.ndarray:
    # the Wick sum of order k for means ``beta`` (..., 1) and pair moments ``n``, ``m`` (scalars
    # or of beta's shape); a running sum adds the terms in order, for one amplitude as for a grid
    j, l12, r1, r2, w = _wick_table(k)
    return np.cumsum(w * n**j * m**l12 * np.conj(beta) ** r1 * beta**r2, axis=-1)[..., -1].real


def _collective_mean(total: np.ndarray, factors: tuple) -> tuple[np.ndarray, float, float]:
    # beta = c*a - t*conj(a) at collective amplitudes a = total/sqrt(3), with a
    # trailing axis for the Wick terms, and c and t (half the sum and minus half the difference)
    c, t, amp = factors[0] / 2, -factors[1] / 2, total[..., None] / math.sqrt(3)
    return c * amp - t * np.conj(amp), c, t


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

    w being the integer count of Wick pairings of that shape, tabled once
    per k.  Exact at every strength including zero; a value that overflows
    raises NumericError.  Broadcasts over the leading axes of ``alpha``.
    """
    return _mean_power("exact", k, alpha, strength)


def _hermite_table(m: int, x) -> list:
    # [H_0(x), ..., H_m(x)], physicists' Hermite polynomials by the three-term recurrence, each
    # an array of the shape of the real, complex or array argument x
    x = np.asarray(x)
    table = [np.ones_like(x), 2 * x]
    for k in range(1, m):
        table.append(2 * x * table[k] - 2 * k * table[k - 1])
    return table[: m + 1]


def _powers(path: str, orders: tuple, total: np.ndarray, strength: float, factors: tuple) -> list:
    # <A^dag^k A^k> on one route for each k of ``orders`` at amplitude sums ``total``;
    # the caller refuses values that are not finite
    if path == "paper":
        table = _hermite_table(max(orders), np.array(_gm(total, strength, factors)) / 2)
        return [_paper_power(k, table, factors) for k in orders]
    beta, c, t = _collective_mean(total, factors)
    return [_wick_sum(k, beta, t * t, -c * t) for k in orders]


def _mean_power(path: str, k: int, alpha, strength: float) -> float | np.ndarray:
    k = check_integer(k, "power k")
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    what = "photon-number moment"
    total, single, factors = _triples(alpha, strength, what)
    (value,) = refuse_overflow(what, strength, _powers, path, (k,), total, strength, factors)
    return _plain(value, single)


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
    what = f"P_{k}"
    total, single, factors = _triples(alpha, strength, what)

    def statistic(route):
        if route == "exact":
            # each Wick term has degree 2k in (beta, sqrt(n), sqrt(m)), so dividing beta by
            # sqrt(N) and n, m by N, N = <A^dag A> = |beta|^2 + t^2, gives P_k + 1; no
            # square is formed unscaled, so tiny amplitudes do not underflow
            beta, c, t = _collective_mean(total, factors)
            root = np.hypot(np.abs(beta), t)
            if (root == 0).any():
                raise InvalidParameterError("mean photon number 0.0 not positive")
            # 1/root overflows for a subnormal root; t = 0 there (|t| >= 1e-16 otherwise), so
            # P_k does not depend on the scale of beta, and 2^64 lifts it exactly; m is then 0
            small = root < 2.0**-1022
            if small.any():
                beta = np.where(small, beta * 2.0**64, beta)
                root = np.where(small, np.abs(beta), root)
            return _wick_sum(k, beta / root, (t / root) ** 2, -(c / root) * (t / root)) - 1
        mean_photon, power = _powers(route, (1, k), total, strength, factors)
        return power / mean_photon**k - 1

    exact_value = refuse_overflow(what, strength, statistic, "exact")
    closed = factors[1] != 0 or path == "paper"  # _gm refuses coll_diff = 0 for path "paper"
    paper_value = refuse_overflow(what, strength, statistic, "paper") if closed else None
    discrepancy = None if paper_value is None else _plain(np.abs(paper_value - exact_value), single)
    return PkResult(k=k, paper_value=None if paper_value is None else _plain(paper_value, single),
                    exact_value=_plain(exact_value, single), discrepancy=discrepancy, path=path)


def fig1_scan(re_values, im_values) -> list[tuple[float, float, float, float]]:
    """P_2 of the published scan: alpha = (1, 1, x + iy) at unit strength.

    Returns one row (re_alpha3, im_alpha3, p2_paper, p2_exact) per grid
    point, x outer and y inner, from one :func:`pk` call over the grid; any
    non-finite value aborts.
    """
    re_values = check_numbers(re_values, "scan grid")
    im_values = check_numbers(im_values, "scan grid")
    if re_values.size == 0 or im_values.size == 0:
        raise InvalidParameterError("empty scan grid")
    x, y = np.meshgrid(re_values, im_values, indexing="ij")
    ones = np.ones_like(x)
    result = pk(2, np.stack([ones, ones, x + 1j * y], axis=-1), 1.0, path="paper")
    return list(zip(x.ravel().tolist(), y.ravel().tolist(),
                    result.paper_value.ravel().tolist(), result.exact_value.ravel().tolist()))
