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
from .matrices import hermite

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
    (zero strength).
    """

    k: int
    paper_value: float | None
    exact_value: float
    discrepancy: float | None
    path: str

    @property
    def value(self) -> float:
        return self.exact_value if self.path == "exact" else self.paper_value


def collective_mode(alpha, strength: float) -> CollectiveMode:
    alpha = np.asarray(alpha, dtype=complex).reshape(3)
    if not np.all(np.isfinite(alpha.view(float))):
        raise InvalidParameterError("coherent amplitudes must be finite")
    return CollectiveMode(amplitude=complex(alpha.sum() / math.sqrt(3)), squeeze=2.0 * strength)


def _coll_factors(strength: float) -> tuple[float, float]:
    return math.exp(-2 * strength) + math.exp(2 * strength), math.exp(-2 * strength) - math.exp(
        2 * strength
    )


def gm_pair(alpha, strength: float) -> GMPair:
    """Amplitude pair (G, M) of the closed route.

    Singular at zero strength (the square roots divide by coll_diff).  The
    two roots are branch-locked so that their product is 2/3: that choice
    reproduces the published expansions of G*M, G^2 and M^2 as real
    tanh/coth formulas, which a plain principal-branch pair does not.
    """
    if strength == 0:
        raise SingularParameterError("closed route undefined at zero strength; use the exact route")
    alpha = np.asarray(alpha, dtype=complex).reshape(3)
    total = complex(alpha.sum())
    coll_sum, coll_diff = _coll_factors(strength)
    root_sd = complex(np.lib.scimath.sqrt(2 * coll_sum / (3 * coll_diff)))
    root_ds = (2.0 / 3.0) / root_sd
    g = 1j * (root_sd * np.conj(total) - root_ds * total)
    m = 1j * (root_sd * total - root_ds * np.conj(total))
    return GMPair(g=g, m=m)


def _paper_raw(k: int, alpha, strength: float) -> complex:
    coll_sum, coll_diff = _coll_factors(strength)
    pair = gm_pair(alpha, strength)
    total = 0j
    for n in range(k + 1):
        coef = (
            (-2 * coll_diff) ** n
            * math.factorial(k) ** 2
            / (2 ** (4 * n) * coll_sum**n * math.factorial(k - n) ** 2 * math.factorial(n))
        )
        total += coef * hermite(k - n, pair.g / 2) * hermite(k - n, pair.m / 2)
    return (-coll_sum * coll_diff / 2) ** k * total


def mean_power_paper(k: int, alpha, strength: float) -> float:
    """<A^dag^k A^k> from the published closed formula, taken verbatim.

    The result must be real; an imaginary residue above 1e-9 (relative to
    the magnitude) raises FormulaInconsistencyError carrying the residue.
    """
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    value = _paper_raw(k, alpha, strength)
    residue = abs(value.imag)
    if residue > 1e-9 * max(1.0, abs(value.real)):
        raise FormulaInconsistencyError(
            f"closed formula returned imaginary residue {residue:.3e}", residue
        )
    return float(value.real)


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
    """Normal-ordered A^dag^k A^k of the squeezed mode as ((m, n), coef) terms.

    Normal-orders (cosh(squeeze) A - sinh(squeeze) A^dag)^k symbolically; a
    term stands for coef * A^dag^m A^n.  Returned as a tuple so the cached
    value cannot be changed by a caller.
    """
    cosh2s, sinh2s = math.cosh(squeeze), math.sinh(squeeze)
    poly = {(0, 0): 1.0 + 0j}
    for _ in range(k):
        poly = _shift_right(poly, cosh2s, sinh2s)
    lowered = {(n, m): np.conj(c) for (m, n), c in poly.items()}
    return tuple(_normal_product(lowered, poly).items())


def mean_power_exact(k: int, alpha, strength: float) -> float:
    """<A^dag^k A^k> from the exact Heisenberg map of the collective mode.

    Normal-orders (cosh(2s) A - sinh(2s) A^dag)^k symbolically and evaluates
    the coherent expectation at the collective amplitude; exact at every
    strength including zero.
    """
    if not 1 <= k <= MAX_POWER:
        raise InvalidParameterError(f"power k must be in 1..{MAX_POWER}, got {k}")
    mode = collective_mode(alpha, strength)
    amp = mode.amplitude
    value = sum(
        c * np.conj(amp) ** m * amp**n for (m, n), c in _normal_ordered_power(k, mode.squeeze)
    )
    return float(value.real)


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

    Both routes are evaluated and stored (the closed route only when the
    strength is nonzero); ``path`` selects which one ``value`` reports.  A
    vanishing mean photon number on the chosen path raises DomainError.
    """
    if not math.isfinite(strength):
        raise InvalidParameterError("strength must be finite")
    if k < 2:
        raise InvalidParameterError(f"P_k needs k >= 2, got {k}")
    if path not in ("paper", "exact"):
        raise InvalidParameterError(f"path must be 'paper' or 'exact', got {path!r}")

    def statistic(power_fn):
        mean_photon = power_fn(1, alpha, strength)
        if mean_photon <= 0:
            raise DomainError(f"mean photon number {mean_photon!r} not positive")
        return power_fn(k, alpha, strength) / mean_photon**k - 1

    try:
        exact_value = statistic(mean_power_exact)
        paper_value = None if strength == 0 else statistic(mean_power_paper)
    except OverflowError:
        raise NumericError(f"P_{k} overflows double precision at strength {strength:g}") from None
    if paper_value is None and path == "paper":
        raise SingularParameterError("closed route undefined at zero strength")
    discrepancy = None if paper_value is None else abs(paper_value - exact_value)
    return PkResult(k=k, paper_value=paper_value, exact_value=exact_value,
                    discrepancy=discrepancy, path=path)


def fig1_scan(re_values, im_values) -> list[tuple[float, float, float, float]]:
    """P_2 of the published scan: alpha = (1, 1, x + iy) at unit strength.

    Returns one row (re_alpha3, im_alpha3, p2_paper, p2_exact) per grid
    point, both routes always evaluated; any non-finite value aborts.
    """
    re_values = np.asarray(re_values, dtype=float)
    im_values = np.asarray(im_values, dtype=float)
    if re_values.size == 0 or im_values.size == 0:
        raise InvalidParameterError("empty scan grid")
    rows = []
    for x in re_values:
        for y in im_values:
            alpha = np.array([1.0, 1.0, x + 1j * y])
            result = pk(2, alpha, 1.0, path="paper")
            if not (math.isfinite(result.paper_value) and math.isfinite(result.exact_value)):
                raise NumericError(f"non-finite P_2 at alpha3 = {x}+{y}j")
            rows.append((float(x), float(y), result.paper_value, result.exact_value))
    return rows
