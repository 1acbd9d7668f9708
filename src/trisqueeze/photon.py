"""Higher-order photon statistics of the symmetric collective mode.

The collective mode A = (a1+a2+a3)/sqrt(3) of the squeezed coherent state
behaves like a single mode squeezed with twice the strength.  Two routes to
the factorial moments <A^dag^k A^k> live side by side:

* the *closed* route evaluates the published Hermite-polynomial formula
  verbatim, including its prefactors, so the published figure data can be
  regenerated exactly as printed;
* the *exact* route normal-orders (cosh(2s) A - sinh(2s) A^dag)^k
  symbolically and takes the coherent expectation, which is cutoff-free and
  is validated against the brute-force Fock oracle.

The two routes disagree by systematic factors (see the errata report); both
values are always carried so the discrepancy stays visible.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FormulaInconsistencyError,
    InvalidParameterError,
    NumericError,
    SingularParameterError,
)
from .matrices import hermite, hermite_table

__all__ = [
    "CollectiveMode",
    "GMPair",
    "PkResult",
    "collective_mode",
    "gm_pair",
    "mean_power_paper",
    "mean_power_exact",
    "mean_power_exact_fock",
    "pk",
    "fig1_scan",
]

MAX_POWER = 6


@dataclass(frozen=True)
class CollectiveMode:
    """Symmetric-mode reduction: amplitude (alpha1+alpha2+alpha3)/sqrt(3),
    squeeze = twice the three-mode strength."""

    amplitude: complex
    squeeze: float


@dataclass(frozen=True)
class GMPair:
    """The two conjugate amplitude combinations entering the closed route."""

    g: complex
    m: complex


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


def _triples(alpha) -> tuple[np.ndarray, bool]:
    """``alpha`` (shape (..., 3)) with at least one leading axis, and whether
    it was a single triple.

    A single triple runs through the same array arithmetic as a grid of them,
    so its values equal that grid point's bit for bit; results for it are
    handed back as plain numbers by :func:`_plain`.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape[-1:] != (3,):
        raise InvalidParameterError(f"coherent amplitudes must have shape (..., 3), got {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise InvalidParameterError("coherent amplitudes must be finite")
    single = alpha.ndim == 1
    return (alpha[None] if single else alpha), single


def _plain(values: np.ndarray, single: bool):
    return values[0].item() if single else values


def _amplitude_sum(triples: np.ndarray) -> np.ndarray:
    return triples[..., 0] + triples[..., 1] + triples[..., 2]


def collective_mode(alpha, strength: float) -> CollectiveMode:
    triples, single = _triples(alpha)
    return CollectiveMode(amplitude=_plain(_amplitude_sum(triples) / math.sqrt(3), single),
                          squeeze=2.0 * strength)


def _coll_factors(strength: float) -> tuple[float, float]:
    return math.exp(-2 * strength) + math.exp(2 * strength), math.exp(-2 * strength) - math.exp(
        2 * strength
    )


def _gm(total: np.ndarray, strength: float) -> tuple[np.ndarray, np.ndarray]:
    coll_sum, coll_diff = _coll_factors(strength)
    if coll_diff == 0:
        raise SingularParameterError(
            f"closed route undefined at strength {strength:g}; use the exact route"
        )
    root_sd = cmath.sqrt(2 * coll_sum / (3 * coll_diff))
    root_ds = (2.0 / 3.0) / root_sd
    conj = np.conj(total)
    g = 1j * (root_sd * conj - root_ds * total)
    m = 1j * (root_sd * total - root_ds * conj)
    return g, m


def gm_pair(alpha, strength: float) -> GMPair:
    """Amplitude pair (G, M) of the closed route.

    Singular where coll_diff = e^{-2s} - e^{2s} rounds to zero (zero
    strength, and |s| below about 1e-17): the square roots divide by it.
    The two roots are branch-locked so that their product is 2/3: that
    choice reproduces the published expansions of G*M, G^2 and M^2 as real
    tanh/coth formulas, which a plain principal-branch pair does not.
    Broadcasts over the leading axes of ``alpha``.
    """
    triples, single = _triples(alpha)
    g, m = _gm(_amplitude_sum(triples), strength)
    return GMPair(g=_plain(g, single), m=_plain(m, single))


def _paper_table(k: int, total: np.ndarray, strength: float) -> list:
    # Hermite orders 0..k of both arguments G/2 and M/2 at amplitude sums
    # ``total``, from one recurrence
    return hermite_table(k, np.array(_gm(total, strength)) / 2)


def _paper_power(k: int, table: list, strength: float) -> np.ndarray:
    # the published k-sum, from a _paper_table of order k or higher
    coll_sum, coll_diff = _coll_factors(strength)
    value = 0j
    for n in range(k + 1):
        coef = (
            (-2 * coll_diff) ** n
            * math.factorial(k) ** 2
            / (2 ** (4 * n) * coll_sum**n * math.factorial(k - n) ** 2 * math.factorial(n))
        )
        h_g, h_m = table[k - n]
        value += coef * h_g * h_m
    value = (-coll_sum * coll_diff / 2) ** k * value
    residue = np.abs(value.imag)
    if (residue > 1e-9 * np.maximum(1.0, np.abs(value.real))).any():
        worst = residue.max()
        raise FormulaInconsistencyError(
            f"closed formula returned imaginary residue {worst:.3e}", worst
        )
    return value.real


def mean_power_paper(k: int, alpha, strength: float) -> float | np.ndarray:
    """<A^dag^k A^k> from the published closed formula, taken verbatim.

    The result must be real; an imaginary residue above 1e-9 (relative to
    the magnitude) at any amplitude raises FormulaInconsistencyError
    carrying the largest residue.  Broadcasts over the leading axes of
    ``alpha``.
    """
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    triples, single = _triples(alpha)
    table = _paper_table(k, _amplitude_sum(triples), strength)
    return _plain(_paper_power(k, table, strength), single)


def _paper_k1(alpha, strength: float) -> float:
    """k=1 specialization as printed: (GM - tanh(-2s)/8) sinh(4s)."""
    pair = gm_pair(alpha, strength)
    gm = (pair.g * pair.m).real
    return (gm - math.tanh(-2 * strength) / 8) * math.sinh(4 * strength)


def _paper_k2(alpha, strength: float) -> float:
    """k=2 specialization as printed (Hermite form of the bracket)."""
    pair = gm_pair(alpha, strength)
    coll_sum, coll_diff = _coll_factors(strength)
    bracket = (
        coll_diff**2 / (2**5 * coll_sum**2)
        - coll_diff / (2 * coll_sum) * hermite(1, pair.g / 2) * hermite(1, pair.m / 2)
        + hermite(2, pair.g / 2) * hermite(2, pair.m / 2)
    )
    return ((coll_sum * coll_diff) ** 2 / 4 * bracket).real


# ---------------------------------------------------------------------------
# exact route: symbolic normal ordering over the single collective mode
# ---------------------------------------------------------------------------

def _shift_right(poly: dict, cosh2s: float, sinh2s: float) -> dict:
    """Multiply a normal-ordered polynomial on the right by cosh*a - sinh*a^dag."""
    out: dict = {}

    def add(key, val):
        out[key] = out.get(key, 0j) + val

    for (m, n), coef in poly.items():
        add((m, n + 1), coef * cosh2s)
        add((m + 1, n), -coef * sinh2s)
        if n:
            add((m, n - 1), -coef * sinh2s * n)
    return out


def _normal_product(left: dict, right: dict) -> dict:
    """Normal-order the product of two normal-ordered polynomials."""
    out: dict = {}
    for (m1, n1), c1 in left.items():
        for (m2, n2), c2 in right.items():
            for j in range(min(n1, m2) + 1):
                key = (m1 + m2 - j, n1 + n2 - j)
                val = c1 * c2 * math.comb(n1, j) * math.comb(m2, j) * math.factorial(j)
                out[key] = out.get(key, 0j) + val
    return out


# distinct (k, squeeze) pairs kept; a fig1 scan needs two
_POWER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_POWER_CACHE_SIZE)
def _normal_ordered_power(k: int, squeeze: float) -> tuple:
    """Normal-ordered A^dag^k A^k of the squeezed mode as term arrays (m, n, coef).

    Normal-orders (cosh(squeeze) A - sinh(squeeze) A^dag)^k symbolically;
    term t stands for coef[t] * A^dag^m[t] A^n[t].  The arrays are read-only
    so the cached value cannot be changed by a caller.
    """
    cosh2s, sinh2s = math.cosh(squeeze), math.sinh(squeeze)
    poly = {(0, 0): 1.0 + 0j}
    for _ in range(k):
        poly = _shift_right(poly, cosh2s, sinh2s)
    lowered = {(n, m): np.conj(c) for (m, n), c in poly.items()}
    terms = _normal_product(lowered, poly)
    m, n = np.array(list(terms)).T
    coef = np.array(list(terms.values()), dtype=complex)
    for array in (m, n, coef):
        array.flags.writeable = False
    return m, n, coef


def _exact_power(k: int, amp: np.ndarray, strength: float) -> np.ndarray:
    # the coherent expectation at collective amplitudes ``amp``
    amp = amp[..., None]
    m, n, coef = _normal_ordered_power(k, 2.0 * strength)
    # a running sum adds the terms in order, for one amplitude as for a grid
    return np.cumsum(coef * np.conj(amp) ** m * amp**n, axis=-1)[..., -1].real


def mean_power_exact(k: int, alpha, strength: float) -> float | np.ndarray:
    """<A^dag^k A^k> from the exact Heisenberg map of the collective mode.

    Normal-orders (cosh(2s) A - sinh(2s) A^dag)^k symbolically and evaluates
    the coherent expectation at the collective amplitude; exact at every
    strength including zero.  Broadcasts over the leading axes of ``alpha``.
    """
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    triples, single = _triples(alpha)
    return _plain(_exact_power(k, _amplitude_sum(triples) / math.sqrt(3), strength), single)


def mean_power_exact_fock(
    k: int, alpha, strength: float, tol: float = 1e-10, max_cutoff: int = 512
) -> float:
    """Same quantity measured on a truncated single-mode Fock grid.

    Grows the cutoff until two successive values agree to ``tol`` relative;
    provides the brute-force half of the internal consistency check.
    """
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    mode = collective_mode(alpha, strength)
    cosh2s, sinh2s = math.cosh(mode.squeeze), math.sinh(mode.squeeze)
    previous = None
    cutoff = 32
    while cutoff <= max_cutoff:
        lower = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
        op = cosh2s * lower - sinh2s * lower.conj().T
        n = np.arange(cutoff)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, cutoff)))])
        ket = np.exp(-abs(mode.amplitude) ** 2 / 2) * mode.amplitude**n / np.exp(log_fact / 2)
        ket = ket.astype(complex)
        vec = ket.copy()
        for _ in range(k):
            vec = op @ vec
        value = float((vec.conj() @ vec).real / (ket.conj() @ ket).real)
        if previous is not None and abs(value - previous) <= tol * max(1.0, abs(value)):
            return value
        previous = value
        cutoff *= 2
    raise NumericError(f"single-mode Fock value did not settle below cutoff {max_cutoff}")


def pk(k: int, alpha, strength: float, path: str = "exact") -> PkResult:
    """Sub-/super-Poissonian statistic P_k = <A^dag^k A^k>/<A^dag A>^k - 1.

    Both routes are evaluated and stored (the closed route only where it is
    not singular); ``path`` selects which one ``value`` reports.  Broadcasts
    over the leading axes of ``alpha``, every check applying to each
    amplitude: a vanishing mean photon number raises DomainError, and a
    value that overflows or is not finite raises NumericError.
    """
    if not math.isfinite(strength):
        raise InvalidParameterError("strength must be finite")
    if not 2 <= k <= MAX_POWER:
        raise InvalidParameterError(f"P_k needs 2 <= k <= {MAX_POWER}, got {k}")
    if path not in ("paper", "exact"):
        raise InvalidParameterError(f"path must be 'paper' or 'exact', got {path!r}")
    triples, single = _triples(alpha)
    total = _amplitude_sum(triples)

    def statistic(power_fn, data):
        mean_photon = power_fn(1, data, strength)
        if (mean_photon <= 0).any():
            bad = float(mean_photon[mean_photon <= 0][0])
            raise DomainError(f"mean photon number {bad!r} not positive")
        value = power_fn(k, data, strength) / mean_photon**k - 1
        if not np.isfinite(value).all():
            raise NumericError(f"P_{k} is not finite in double precision at strength {strength:g}")
        return value

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
            exact_value = statistic(_exact_power, total / math.sqrt(3))
            try:
                paper_value = statistic(_paper_power, _paper_table(k, total, strength))
            except SingularParameterError:
                if path == "paper":
                    raise
                paper_value = None
    except OverflowError:
        raise NumericError(f"P_{k} overflows double precision at strength {strength:g}") from None
    discrepancy = None if paper_value is None else _plain(np.abs(paper_value - exact_value), single)
    return PkResult(k=k, paper_value=None if paper_value is None else _plain(paper_value, single),
                    exact_value=_plain(exact_value, single), discrepancy=discrepancy, path=path)


def fig1_scan(re_values, im_values) -> list[tuple[float, float, float, float]]:
    """P_2 of the published scan: alpha = (1, 1, x + iy) at unit strength.

    Returns one row (re_alpha3, im_alpha3, p2_paper, p2_exact) per grid
    point, x outer and y inner, from one :func:`pk` call over the grid; any
    non-finite value aborts.
    """
    re_values = np.asarray(re_values, dtype=float)
    im_values = np.asarray(im_values, dtype=float)
    if re_values.size == 0 or im_values.size == 0:
        raise InvalidParameterError("empty scan grid")
    x, y = np.meshgrid(re_values, im_values, indexing="ij")
    ones = np.ones_like(x)
    result = pk(2, np.stack([ones, ones, x + 1j * y], axis=-1), 1.0, path="paper")
    return list(zip(x.ravel().tolist(), y.ravel().tolist(),
                    result.paper_value.ravel().tolist(), result.exact_value.ravel().tolist()))
