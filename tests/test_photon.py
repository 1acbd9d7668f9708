import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trisqueeze import (
    InvalidParameterError,
    NumericError,
    build_arena,
    coherent_ket,
    evolve,
    fig1_scan,
    gm_pair,
    mean_power,
    mean_power_exact,
    mean_power_paper,
    pk,
)
from trisqueeze.matrices import collective_factors
from trisqueeze.photon import _hermite_table


def _paper_k1(alpha, strength: float) -> float:
    """k=1 specialization as printed: (GM - tanh(-2s)/8) sinh(4s)."""
    g, m = gm_pair(alpha, strength)
    gm = (g * m).real
    return (gm - math.tanh(-2 * strength) / 8) * math.sinh(4 * strength)


def _paper_k2(alpha, strength: float) -> float:
    """k=2 specialization as printed (Hermite form of the bracket)."""
    g, m = gm_pair(alpha, strength)
    coll_sum, coll_diff = collective_factors(strength)
    h_g, h_m = _hermite_table(2, g / 2), _hermite_table(2, m / 2)
    bracket = (
        coll_diff**2 / (2**5 * coll_sum**2)
        - coll_diff / (2 * coll_sum) * h_g[1] * h_m[1]
        + h_g[2] * h_m[2]
    )
    return ((coll_sum * coll_diff) ** 2 / 4 * bracket).real


# ---------------------------------------------------------------------------
# closed (printed) route
# ---------------------------------------------------------------------------

def test_gm_vanishes_at_zero_amplitude():
    assert gm_pair([0, 0, 0], 0.7) == (0, 0)


def test_gm_product_real_for_real_amplitudes():
    for strength in (0.3, 1.0, -0.6):
        g, m = gm_pair([0.4, -0.2, 0.9], strength)
        assert abs((g * m).imag) < 1e-12


def test_gm_product_matches_printed_expansion():
    # direct evaluation of the printed expansion at alpha=(1,1,1), strength 1:
    # (2/3)*sum_{jk}(a*_k a*_j + a_k a_j) - (4/3)*coth(-4)*sum_{jk} a*_j a_k
    # = 12 + 12*coth(4)
    g, m = gm_pair([1, 1, 1], 1.0)
    expected = 12 + 12 / math.tanh(4.0)
    assert (g * m).real == pytest.approx(expected, rel=1e-12)


def test_gm_product_matches_printed_expansion_generic():
    rng = np.random.default_rng(9)
    for _ in range(10):
        strength = rng.uniform(0.2, 1.2)
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        total = alpha.sum()
        g, m = gm_pair(alpha, strength)
        printed = (2 / 3) * (np.conj(total) ** 2 + total**2) - (4 / 3) * (
            1 / math.tanh(-4 * strength)
        ) * abs(total) ** 2
        assert complex(g * m) == pytest.approx(complex(printed), rel=1e-10)


def test_gm_squares_match_printed_expansions():
    # G^2 and M^2 must reproduce the printed tanh/coth forms:
    # G^2 = (4/3)|S|^2 + (2/3)[S^2 tanh(2s) + conj(S)^2 coth(2s)], M^2 conjugate
    rng = np.random.default_rng(21)
    for _ in range(8):
        strength = rng.uniform(0.2, 1.1)
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        total = alpha.sum()
        g, m = gm_pair(alpha, strength)
        t, c = math.tanh(2 * strength), 1 / math.tanh(2 * strength)
        printed_g2 = (4 / 3) * abs(total) ** 2 + (2 / 3) * (
            total**2 * t + np.conj(total) ** 2 * c
        )
        printed_m2 = (4 / 3) * abs(total) ** 2 + (2 / 3) * (
            total**2 * c + np.conj(total) ** 2 * t
        )
        assert complex(g**2) == pytest.approx(complex(printed_g2), rel=1e-10)
        assert complex(m**2) == pytest.approx(complex(printed_m2), rel=1e-10)


def test_gm_singular_at_zero_strength():
    with pytest.raises(InvalidParameterError, match="closed route undefined"):
        gm_pair([1, 0, 0], 0.0)
    with pytest.raises(InvalidParameterError, match="closed route undefined"):
        mean_power_paper(1, [1, 0, 0], 0.0)


def test_paper_route_specializations_agree():
    rng = np.random.default_rng(31)
    for _ in range(8):
        strength = rng.uniform(-1.0, 1.0)
        if abs(strength) < 1e-3:
            strength = 0.5
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        general_1 = mean_power_paper(1, alpha, strength)
        general_2 = mean_power_paper(2, alpha, strength)
        assert general_1 == pytest.approx(_paper_k1(alpha, strength), rel=1e-12, abs=1e-12)
        assert general_2 == pytest.approx(_paper_k2(alpha, strength), rel=1e-12, abs=1e-12)


def test_paper_route_vacuum_value_and_discrepancy():
    # the printed formula gives sinh^2(2s)/4 at zero amplitude; the exact
    # route gives sinh^2(2s): the factor-4 gap is carried, never hidden
    strength = 0.3
    paper = mean_power_paper(1, [0, 0, 0], strength)
    exact = mean_power_exact(1, [0, 0, 0], strength)
    assert paper == pytest.approx(math.sinh(0.6) ** 2 / 4, rel=1e-12)
    assert exact == pytest.approx(math.sinh(0.6) ** 2, rel=1e-12)
    result = pk(2, [0, 0, 0], strength, path="exact")
    assert result.discrepancy == pytest.approx(abs(result.paper_value - result.exact_value))
    assert result.discrepancy > 1 and result.value == result.exact_value  # each path reports its own
    assert pk(2, [0, 0, 0], strength, path="paper").value == result.paper_value


def test_paper_route_validation():
    with pytest.raises(InvalidParameterError):
        mean_power_paper(0, [1, 0, 0], 0.3)
    with pytest.raises(InvalidParameterError):
        mean_power_paper(7, [1, 0, 0], 0.3)


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------

def test_exact_route_poissonian_at_zero_strength():
    alpha = [0.7, -0.3 + 0.4j, 0.2]
    amp = complex(sum(alpha)) / math.sqrt(3)
    for k in range(1, 5):
        assert mean_power_exact(k, alpha, 0.0) == pytest.approx(abs(amp) ** (2 * k), rel=1e-12)


def test_exact_route_squeezed_vacuum_moments():
    strength = 0.3
    s, c = math.sinh(0.6), math.cosh(0.6)
    assert mean_power_exact(1, [0, 0, 0], strength) == pytest.approx(s**2, rel=1e-12)
    # Wick pairing on the squeezed vacuum: <adag adag><a a> + 2<adag a>^2
    assert mean_power_exact(2, [0, 0, 0], strength) == pytest.approx(
        (c * s) ** 2 + 2 * s**4, rel=1e-12
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("strength", [0.0, 0.2, 0.5])
def test_exact_routes_internally_consistent(k, strength, mean_power_grid):
    # the Wick sum against 60-digit symbolic normal ordering of (cA^dag - tA)^k (cA - tA^dag)^k
    cases = [(alpha, value) for order, s, alpha, value in mean_power_grid if (order, s) == (k, strength)]
    assert len(cases) == 3
    for alpha, reference in cases:
        assert mean_power_exact(k, alpha, strength) == pytest.approx(reference, rel=1e-13, abs=1e-13)


HIGH_POWER_ALPHA = [0.8, 0.4, 0.2 - 0.3j]


@pytest.fixture(scope="module")
def oracle32():
    arena = build_arena(32)
    return arena, evolve(arena, 0.3, coherent_ket(arena, HIGH_POWER_ALPHA))


@pytest.mark.parametrize("k", [4, 5, 6])
def test_exact_routes_consistent_at_high_powers(k, oracle32):
    # the three-mode Fock oracle at its largest cutoff: 1.6e-13 relative at k = 6
    brute = mean_power(*oracle32, k)
    assert brute == pytest.approx(mean_power_exact(k, HIGH_POWER_ALPHA, 0.3), rel=1e-11)


def test_exact_route_against_three_mode_oracle(arena14):
    strength = 0.2
    alpha = [0.3, 0.3, 0.3]
    ket = evolve(arena14, strength, coherent_ket(arena14, alpha))
    for k in (1, 2):
        assert mean_power(arena14, ket, k) == pytest.approx(
            mean_power_exact(k, alpha, strength), abs=1e-5, rel=1e-5
        )


# ---------------------------------------------------------------------------
# P_k statistic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(2, 7))
def test_pk_single_amplitude_equals_its_grid_element(k):
    # a single triple runs through the same arithmetic as a grid of them
    rng = np.random.default_rng(40 + k)
    grid = rng.uniform(-2, 2, (7, 3)) + 1j * rng.uniform(-2, 2, (7, 3))
    for strength in (-1.3, 0.0, 0.4, 2.5):
        batch = pk(k, grid, strength)
        for i, alpha in enumerate(grid):
            single = pk(k, alpha, strength)
            assert isinstance(single.exact_value, float)
            assert single.exact_value == batch.exact_value[i]
            if strength:
                assert single.paper_value == batch.paper_value[i]


@pytest.mark.parametrize("k", range(1, 7))
def test_mean_power_exact_single_amplitude_equals_its_grid_element(k):
    rng = np.random.default_rng(50 + k)
    grid = rng.uniform(-2, 2, (2, 5, 3)) + 1j * rng.uniform(-2, 2, (2, 5, 3))
    for strength in (-0.7, 0.0, 1.1, 3.0):
        batch = mean_power_exact(k, grid, strength)
        for index in np.ndindex(grid.shape[:2]):
            assert mean_power_exact(k, grid[index], strength) == batch[index]


@pytest.mark.parametrize("k", range(1, 7))
def test_mean_power_paper_single_amplitude_equals_its_grid_element(k):
    rng = np.random.default_rng(60 + k)
    grid = rng.uniform(-2, 2, (2, 5, 3)) + 1j * rng.uniform(-2, 2, (2, 5, 3))
    for strength in (-0.7, 1e-8, 1.1, 3.0):
        batch = mean_power_paper(k, grid, strength)
        for index in np.ndindex(grid.shape[:2]):
            assert mean_power_paper(k, grid[index], strength) == batch[index]


# float.hex of (paper_value, exact_value) of the calls in test_pk_bits_are_pinned
PK_BITS_DIGEST = "433526b2629c2620816bf203ade0f5869cb368ee508fbf4682569bb8259ec00e"


def test_pk_takes_a_grid_in_any_memory_layout():
    # a transposed grid is not contiguous: a plain .view(float) of it raised numpy's ValueError
    grid = (np.arange(12).reshape(3, 4) * (0.1 + 0.05j) + 0.2).T
    assert not grid.flags.c_contiguous
    got, want = pk(2, grid, 0.3), pk(2, np.ascontiguousarray(grid), 0.3)
    assert np.array_equal(got.exact_value, want.exact_value)
    assert np.array_equal(got.paper_value, want.paper_value)


def test_pk_bits_are_pinned():
    # both routes bit for bit over 200 seeded single triples: reordering a sum or a product,
    # or changing how a route rounds, moves some of them
    rng = np.random.default_rng(2029)
    cells = []
    for _ in range(200):
        k, path = int(rng.integers(2, 7)), str(rng.choice(["paper", "exact"]))
        strength = float(rng.uniform(-3, 3))
        alpha = 10 ** rng.uniform(-2, 2) * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        result = pk(k, alpha, strength, path=path)
        cells += [result.paper_value.hex(), result.exact_value.hex()]
    assert hashlib.sha256(" ".join(cells).encode()).hexdigest() == PK_BITS_DIGEST


# float.hex of every value of the calls in test_grid_bits_are_pinned, or the refusal's class
GRID_BITS_DIGEST = "664fe276baba3ca8a1ab442866d6d28d6bbfd95fe4c29cb2971f5c78e40bed88"


def _grid_cells(function, *args, **kwargs) -> list[str]:
    try:
        values = function(*args, **kwargs)
    except (InvalidParameterError, NumericError) as refusal:
        return [type(refusal).__name__]
    if not isinstance(values, np.ndarray):  # a PkResult
        values = [values.paper_value, values.exact_value]
    return ["None" if v is None else " ".join(x.hex() for x in np.ravel(v).tolist()) for v in values]


def test_grid_bits_are_pinned():
    # both routes bit for bit on seeded amplitude grids, which sum each value's terms for many
    # triples at once; the strengths include the closed route's singular one and overflows
    rng = np.random.default_rng(2030)
    cells = []
    for shape in ((4, 3), (2, 5, 3)):
        for strength in (0.0, 1e-8, -0.7, 1.1, float(rng.uniform(-3, 3)), 300.0):
            alpha = 10 ** rng.uniform(-2, 2, shape) * (rng.uniform(-1, 1, shape)
                                                       + 1j * rng.uniform(-1, 1, shape))
            for k in range(1, 7):
                cells += _grid_cells(mean_power_paper, k, alpha, strength)
                cells += _grid_cells(mean_power_exact, k, alpha, strength)
            for k in range(2, 7):
                for path in ("paper", "exact"):
                    cells += _grid_cells(pk, k, alpha, strength, path=path)
    assert hashlib.sha256(" ".join(cells).encode()).hexdigest() == GRID_BITS_DIGEST


def test_pk_poissonian_baseline():
    # a coherent state has P_k = 0 at every amplitude scale: the exact route
    # forms no power of the mean photon number, so nothing under- or overflows
    for k in range(2, 7):
        for magnitude in (1e-160, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e150):
            for phase in (1, 1j, (1 - 1j) / math.sqrt(2)):
                alpha = magnitude * phase * np.array([0.6, 0.2, -0.3])
                result = pk(k, alpha, 0.0, path="exact")
                assert result.exact_value == pytest.approx(0.0, abs=1e-12), (k, magnitude)
                assert result.paper_value is None
                assert result.discrepancy is None


def test_pk_squeezed_vacuum_super_poissonian():
    # exact collective-mode statistic of the squeezed vacuum, verified
    # against the truncated-Fock oracle: P2 = 1 + coth(2s)^2
    strength = 0.3
    result = pk(2, [0, 0, 0], strength, path="exact")
    assert result.exact_value == pytest.approx(1 + 1 / math.tanh(0.6) ** 2, rel=1e-8)
    assert result.exact_value > 0


def test_pk_paper_path_negative_window():
    for x in (-0.4, -0.2, 0.0, 0.2, 0.4):
        result = pk(2, [1, 1, x], 1.0, path="paper")
        assert result.value < 0


def test_pk_permutation_symmetry():
    alpha = np.array([0.5, -0.3 + 0.2j, 0.8])
    base = pk(2, alpha, 0.6, path="exact")
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        shuffled = pk(2, alpha[perm], 0.6, path="exact")
        assert shuffled.exact_value == pytest.approx(base.exact_value, rel=1e-12)
        assert shuffled.paper_value == pytest.approx(base.paper_value, rel=1e-12)


def test_pk_phase_invariance_at_zero_amplitude():
    base = mean_power_exact(2, [0, 0, 0], 0.4)
    assert mean_power_exact(2, [0, 0, 0], 0.4) == pytest.approx(base, rel=1e-14)
    # a global phase on nonzero amplitudes acts only through the collective
    # amplitude, so the k=1 modulus pattern shifts accordingly
    rotated = [0.3 * np.exp(0.7j), 0.3 * np.exp(0.7j), 0.3 * np.exp(0.7j)]
    plain = [0.3, 0.3, 0.3]
    assert mean_power_exact(1, rotated, 0.0) == pytest.approx(
        mean_power_exact(1, plain, 0.0), rel=1e-12
    )


def test_pk_validation():
    with pytest.raises(InvalidParameterError):
        pk(1, [1, 0, 0], 0.3)
    with pytest.raises(InvalidParameterError):
        pk(2, [1, 0, 0], 0.3, path="mean")
    with pytest.raises(InvalidParameterError, match="mean photon number"):
        pk(2, [0, 0, 0], 0.0, path="exact")
    with pytest.raises(InvalidParameterError, match="closed route undefined"):
        pk(2, [1, 0, 0], 0.0, path="paper")


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_pk_rejects_non_finite_amplitudes_and_overflow():
    with pytest.raises(InvalidParameterError):
        pk(2, [np.nan, 0, 0], 0.3)
    with pytest.raises(NumericError):
        pk(2, [1, 1, 1], 400)  # cosh(800) overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            pk(2, [1, 1, 1], 100)  # the closed route overflows (the exact ratio is finite)


def test_mean_powers_raise_on_overflow_without_warnings():
    # warnings are errors in this suite, so a numpy warning fails the raises
    for strength in (100, 400, 1e308):
        for route in (mean_power_exact, mean_power_paper):
            with pytest.raises(NumericError):
                route(2, [1, 1, 1], strength)
    with pytest.raises(InvalidParameterError):
        mean_power_exact(2, [1, 1, 1], math.nan)


def test_amplitude_sums_that_overflow_raise_without_warnings():
    # the sum of the three amplitudes overflowed outside any np.errstate; parts of 7e307 pass
    # the amplitude check, and three of them sum past the largest double
    big = [1e308, 1e308, 0]
    for alpha in (big, [7e307] * 3, [[1, 1, 1], [7e307j] * 3]):
        for route in (mean_power_exact, mean_power_paper):
            with pytest.raises(NumericError):
                route(2, alpha, 0.3)
        for path in ("exact", "paper"):
            with pytest.raises(NumericError):
                pk(2, alpha, 0.3, path=path)
    with pytest.raises(NumericError, match="amplitude pair overflows"):
        gm_pair(big, 0.3)
    with pytest.raises(NumericError, match="amplitude pair overflows"):
        gm_pair([7e307] * 3, 0.3)
    with pytest.raises(NumericError, match="amplitude pair overflows"):
        gm_pair([1e308, 0, 0], 0.01)  # the sum is finite, G and M are not


def test_pk_closed_route_singular_where_coll_diff_rounds_to_zero():
    # e^{-2s} - e^{2s} is exactly 0 in double precision at s = 1e-300
    result = pk(2, [1, 1, 1], 1e-300)
    assert result.paper_value is None and result.discrepancy is None
    assert result.exact_value == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidParameterError, match="closed route undefined"):
        pk(2, [1, 1, 1], 1e-300, path="paper")
    with pytest.raises(InvalidParameterError, match="closed route undefined"):
        gm_pair([1, 0, 0], -1e-300)
    # the message names the strength given, which only at s = 0 reads as a strength of 0 would
    for call in (lambda: mean_power_paper(2, (1, 0, 0), 1e-18),
                 lambda: pk(2, (1, 0, 0), 1e-18, "paper")):
        with pytest.raises(InvalidParameterError) as refusal:
            call()
        assert str(refusal.value) == "closed route undefined at strength 1e-18; use the exact route"


def test_pk_refuses_an_overflowing_sum_before_the_closed_route():
    # at zero strength the closed route is singular, but an amplitude sum that overflows is
    # refused first, and so is a vanishing mean photon number
    with pytest.raises(NumericError):
        pk(2, [7e307] * 3, 0.0, path="paper")
    for strength in (0.0, 1e-300):
        with pytest.raises(NumericError):
            mean_power_paper(2, [[1, 1, 1], [7e307] * 3], strength)
        with pytest.raises(NumericError, match="amplitude pair overflows"):
            gm_pair([7e307j] * 3, strength)
    with pytest.raises(InvalidParameterError, match="mean photon number"):
        pk(2, [0, 0, 0], 0.0, path="paper")


def test_pk_checks_every_amplitude_of_a_batch():
    assert pk(2, np.zeros((0, 3)), 0.3).exact_value.shape == (0,)  # an empty batch answers empty
    with pytest.raises(InvalidParameterError, match="mean photon number"):
        pk(2, [[1, 0, 0], [0, 0, 0]], 0.0)  # vacuum: no photons at zero strength
    with pytest.raises(NumericError):
        pk(2, [[1, 1, 1], [1e200, 0, 0]], 0.3)
    with pytest.raises(InvalidParameterError):
        pk(2, [[1, 1, 1], [np.inf, 0, 0]], 0.3)


def test_fig1_scan_equals_point_calls():
    re_values = np.array([-0.9, -0.3, 0.0, 0.45, 1.2])
    im_values = np.array([-0.7, 0.0, 0.25, 0.8])
    rows = list(zip(*fig1_scan(re_values, im_values)))
    expected = []
    for x in re_values:
        for y in im_values:
            single = pk(2, [1, 1, x + 1j * y], 1.0, path="paper")
            assert isinstance(single.paper_value, float)
            expected.append((float(x), float(y), single.paper_value, single.exact_value))
    assert rows == expected


def test_fig1_scan_grid_shape():
    rows = list(zip(*fig1_scan(np.arange(-1, 1.0001, 0.05), np.arange(-1, 1.0001, 0.05))))
    assert len(rows) == 41 * 41
    xs = sorted({row[0] for row in rows})
    assert xs[0] == pytest.approx(-1.0) and xs[-1] == pytest.approx(1.0)
    assert all(math.isfinite(row[2]) and math.isfinite(row[3]) for row in rows)


def test_fig1_scan_near_flat_along_imaginary_axis():
    # the printed route drifts only weakly with Im(alpha3); the residual
    # drift is real (see the discrepancy report) and stays below 1e-3
    rows = list(zip(*fig1_scan([0.3], np.arange(-1, 1.0001, 0.25))))
    values = [row[2] for row in rows]
    assert max(values) - min(values) < 1e-3


def test_fig1_scan_rejects_empty_grid():
    with pytest.raises(InvalidParameterError):
        fig1_scan([], [0.0])
    with pytest.raises(InvalidParameterError):
        fig1_scan([0.0], [])


# ---------------------------------------------------------------------------
# hermite
# ---------------------------------------------------------------------------

def hermite(m, x):
    return _hermite_table(max(m, 1), x)[m]


def test_hermite_base_cases():
    assert hermite(0, 0.3) == pytest.approx(1.0)
    assert hermite(1, 0.3) == pytest.approx(0.6)
    assert hermite(2, 0.0) == pytest.approx(-2.0)
    x = 0.37
    assert hermite(2, x) == pytest.approx(4 * x * x - 2)


def test_hermite_complex_and_array():
    z = 0.4 + 0.9j
    assert hermite(3, z) == pytest.approx(8 * z**3 - 12 * z)
    xs = np.linspace(-1, 1, 5)
    assert_allclose(hermite(2, xs), 4 * xs**2 - 2, rtol=1e-14)


def test_hermite_derivative_identity():
    # d/dx H_3 at x=1 equals 2*3*H_2(1) = 12, checked by central differences
    h = 1e-6
    numeric = (hermite(3, 1 + h) - hermite(3, 1 - h)) / (2 * h)
    assert numeric == pytest.approx(2 * 3 * hermite(2, 1.0), abs=1e-6)
    assert 2 * 3 * hermite(2, 1.0) == pytest.approx(12.0)


@pytest.mark.parametrize("m", range(7))
def test_hermite_generating_function(m):
    # H_m(x) = d^m/dt^m exp(2xt - t^2) at t=0; the derivative is extracted
    # numerically from samples on a small circle around t=0
    x = 0.6
    radius, samples = 0.5, 128
    angles = 2 * np.pi * np.arange(samples) / samples
    ts = radius * np.exp(1j * angles)
    values = np.exp(2 * x * ts - ts**2)
    derivative = math.factorial(m) * np.mean(values * np.exp(-1j * m * angles)).real / radius**m
    assert derivative == pytest.approx(float(hermite(m, x)), rel=1e-10, abs=1e-6)
