import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (circulant_maps, cov, double_factorial, mean, normal_order_coefficients,
                     wigner_normalization, x3_query, y3_query)
from trisqueeze import (
    InvalidParameterError,
    MomentQuery,
    NumericError,
    central_moment,
    hos_x,
    hos_y,
    make_state,
    two_mode_baseline_variance,
    wigner,
)
from trisqueeze.fock import _central_moment, build_arena, coherent_ket, evolve, ladder
from trisqueeze.matrices import mode_gains


def test_vacuum_state():
    state = make_state(0.0, [0, 0, 0])
    assert_allclose(mean(state), np.zeros(6), atol=0)
    assert_allclose(cov(state), np.eye(6) / 2, atol=1e-15)


def test_coherent_displacement_at_zero_strength():
    state = make_state(0.0, [1, 1j, 0])
    expected = np.array([math.sqrt(2), 0, 0, 0, math.sqrt(2), 0])
    assert_allclose(mean(state), expected, atol=1e-15)


def test_covariance_structure():
    rng = np.random.default_rng(3)
    for _ in range(5):
        strength = rng.uniform(-1, 1)
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = make_state(strength, alpha)
        assert_allclose(cov(state), cov(state).T, atol=1e-15)
        assert_allclose(cov(state)[:3, 3:], np.zeros((3, 3)), atol=0)
        assert np.linalg.eigvalsh(cov(state)).min() > 0
        # purity of a pure Gaussian state
        assert np.linalg.det(cov(state)) == pytest.approx(0.5**6, rel=1e-12)


@pytest.mark.parametrize("strength", [-0.7, 0.0, 0.25, 1.0])
def test_collective_variances(strength):
    state = make_state(strength, [0.3 - 0.2j, 0.1, -0.4j])
    assert central_moment(state, x3_query(2)) == pytest.approx(
        math.exp(-4 * strength) / 4, rel=1e-12
    )
    assert central_moment(state, y3_query(2)) == pytest.approx(
        math.exp(4 * strength) / 4, rel=1e-12
    )


def test_heisenberg_floor_exact():
    for strength in (-1.0, -0.2, 0.0, 0.4, 1.3):
        state = make_state(strength, [0.2, 0.5j, -0.1])
        product = central_moment(state, x3_query(2)) * central_moment(state, y3_query(2))
        assert product == pytest.approx(1 / 16, abs=1e-12)


def test_fourth_moment_gaussian_law():
    rng = np.random.default_rng(11)
    state = make_state(0.4, rng.normal(size=3) + 1j * rng.normal(size=3))
    coeffs = rng.normal(size=6)
    sigma2 = coeffs @ cov(state) @ coeffs
    assert central_moment(state, MomentQuery(coeffs, 4)) == pytest.approx(3 * sigma2**2, rel=1e-12)


def test_coherent_benchmark_moment():
    # at zero strength the collective fourth moment is 3/16
    state = make_state(0.0, [0.7, -0.2j, 0.5])
    assert central_moment(state, x3_query(4)) == pytest.approx(3 / 16, rel=1e-12)


def test_moment_alpha_independence():
    rng = np.random.default_rng(5)
    strength = 0.35
    reference = [hos_x(strength, m) for m in range(1, 7)]
    for _ in range(20):
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = make_state(strength, alpha)
        for m, expected in zip(range(1, 7), reference):
            assert central_moment(state, x3_query(2 * m)) == pytest.approx(expected, rel=1e-10)


def test_central_moment_matches_fock_oracle_on_random_quadratures():
    # c . (Q, P) with c a random unit vector over all six components is
    # sum_j (down_j a_j + up_j a_j^dag), down = (c_q - i c_p)/sqrt(2) and
    # up = (c_q + i c_p)/sqrt(2), applied to the propagated Fock ket
    rng = np.random.default_rng(29)
    arena = build_arena(20)
    for _ in range(12):
        strength = rng.uniform(-0.3, 0.3)
        alpha = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
        coeffs = rng.normal(size=6)
        coeffs /= np.linalg.norm(coeffs)
        c_q, c_p = coeffs[:3], coeffs[3:]
        down, up = (c_q - 1j * c_p) / math.sqrt(2), (c_q + 1j * c_p) / math.sqrt(2)
        ket = evolve(arena, strength, coherent_ket(arena, alpha))
        state = make_state(strength, alpha)
        for order in (2, 4, 6):
            oracle = _central_moment(lambda v: ladder(arena, v, down, up), ket, order)
            assert central_moment(state, MomentQuery(coeffs, order)) == pytest.approx(
                oracle, rel=1e-7
            )


def test_moment_overflow_raises():
    for strength, queries in ((60.0, [y3_query(16)]), (-60.0, [x3_query(16)]),
                              (100.0, [x3_query(16), y3_query(16)])):
        state = make_state(strength, [0, 0, 0])
        for query in queries:
            with pytest.raises(NumericError, match="overflows"):
                central_moment(state, query)


def test_moment_validation():
    state = make_state(0.1, [0, 0, 0])
    with pytest.raises(InvalidParameterError):
        central_moment(state, x3_query(3))
    with pytest.raises(InvalidParameterError):
        central_moment(state, x3_query(18))
    with pytest.raises(InvalidParameterError):
        make_state(0.1, [float("nan"), 0, 0])


def test_make_state_refuses_amplitudes_whose_displacement_overflows():
    # sqrt(6) times 7e307, the largest displacement on a normal mode, is finite;
    # larger parts printed a numpy overflow warning before the refusal
    for alpha in ([7e307, 7e307, 7e307], [-7e307j, -7e307j, -7e307j], [7e307 - 7e307j, 0, 1e-320]):
        assert np.isfinite(make_state(0.0, alpha).displacement).all()
    for alpha in ([1.7e308, 0, 0], [0, 7.1e307j, 0], [1e308, 1e308, 1e308]):
        with pytest.raises(NumericError, match="7e307"):
            make_state(0.1, alpha)
    for alpha in ([math.inf, 0, 0], [0, complex(0, math.nan), 0], [1.7e308, math.nan, 0]):
        with pytest.raises(InvalidParameterError, match="finite"):
            make_state(0.1, alpha)


# ---------------------------------------------------------------------------
# closed-form moment laws
# ---------------------------------------------------------------------------

def test_hos_closed_forms():
    assert hos_x(0.3, 1) * hos_y(0.3, 1) == pytest.approx(1 / 16, rel=1e-14)
    for m in range(1, 7):
        benchmark = 0.25**m * double_factorial(2 * m - 1)
        assert hos_x(0.0, m) == pytest.approx(benchmark, rel=1e-14)
        assert hos_y(0.0, m) == pytest.approx(benchmark, rel=1e-14)
    assert hos_x(0.25, 2) == pytest.approx(3 / 16 * math.exp(-2), rel=1e-12)
    assert hos_x(0.25, 2) == pytest.approx(0.0253754, abs=1e-7)


def test_hos_matches_moment_engine():
    state_alpha = [0.4 + 0.1j, -0.3, 0.2j]
    for strength in (-0.5, 0.2, 0.8):
        state = make_state(strength, state_alpha)
        for m in range(1, 7):
            assert central_moment(state, x3_query(2 * m)) == pytest.approx(
                hos_x(strength, m), rel=1e-10
            )
            assert central_moment(state, y3_query(2 * m)) == pytest.approx(
                hos_y(strength, m), rel=1e-10
            )


def test_moment_engine_follows_the_law_at_large_strength():
    # the squeezed variance e^{-4s}/4 is a normal-mode variance, read without
    # cancelling entries of size e^{2|s|}
    alpha = [0.4 + 0.1j, -0.3, 0.2j]
    for strength in np.linspace(-8, 8, 17):
        state = make_state(strength, alpha)
        for m in range(1, 5):
            assert central_moment(state, x3_query(2 * m)) == pytest.approx(
                hos_x(strength, m), rel=1e-10
            )


def test_all_even_orders_squeezed():
    for m in range(1, 7):
        for strength in (0.1, 0.5, 1.0):
            assert hos_x(strength, m) < hos_x(0.0, m)


def test_two_mode_baseline():
    assert two_mode_baseline_variance(0.0) == (pytest.approx(0.25), pytest.approx(0.25))
    x, y = two_mode_baseline_variance(0.5)
    assert x == pytest.approx(math.exp(-1) / 4, rel=1e-14)
    assert y == pytest.approx(math.e / 4, rel=1e-14)
    for strength in np.linspace(0.05, 1.0, 20):
        assert hos_x(strength, 1) < two_mode_baseline_variance(strength)[0]
    for strength in (400.0, -400.0):
        with pytest.raises(NumericError):
            two_mode_baseline_variance(strength)


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------

def test_wigner_vacuum_peak():
    state = make_state(0.0, [0, 0, 0])
    assert wigner(state, np.zeros(3), np.zeros(3)) == pytest.approx(1 / math.pi**3, rel=1e-14)


def test_wigner_peak_at_mean():
    rng = np.random.default_rng(23)
    for _ in range(6):
        state = make_state(rng.uniform(-0.8, 0.8), rng.normal(size=3) + 1j * rng.normal(size=3))
        peak = wigner(state, mean(state)[:3], mean(state)[3:])
        assert peak == pytest.approx(1 / math.pi**3, abs=1e-10, rel=1e-10)
        # any other point lies strictly below the peak
        off = wigner(state, mean(state)[:3] + 0.3, mean(state)[3:] - 0.2)
        assert 0 < off < peak


def test_wigner_normalization():
    for strength, alpha in [(0.0, [0, 0, 0]), (0.35, [0.3 + 0.2j, -0.1, 0.4 - 0.3j])]:
        total = wigner_normalization(make_state(strength, alpha))
        assert total == pytest.approx(1.0, abs=1e-3)
    # the symmetric mode narrows as e^{-2s} while the plane modes widen as
    # e^{s}; a box on the normal modes resolves both at every strength
    for strength in (0.7, 1.0, 3.0, -4.0):
        total = wigner_normalization(make_state(strength, [0.3, 0.1j, 1]))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_wigner_q_marginal():
    # integrating over p on a grid reproduces the Gaussian q-marginal
    state = make_state(0.3, [0.4, 0.2 - 0.1j, -0.3j])
    q_map, _ = circulant_maps(mode_gains(0.3))
    cov_q = q_map @ q_map.T / 2
    inv_q = np.linalg.inv(cov_q)
    centre = mean(state)
    mean_q = centre[:3]

    sigmas = np.sqrt(np.diag(cov(state)))[3:]
    grids = [np.linspace(centre[3 + j] - 6 * sigmas[j], centre[3 + j] + 6 * sigmas[j], 41)
             for j in range(3)]
    weights = []
    for grid in grids:
        w = np.full(grid.size, grid[1] - grid[0])
        w[0] /= 2
        w[-1] /= 2
        weights.append(w)
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 3)
    weight = np.einsum("i,j,k->ijk", *weights).reshape(-1)

    rng = np.random.default_rng(2)
    for _ in range(4):
        q = mean_q + rng.normal(scale=0.4, size=3)
        values = wigner(state, q, mesh)
        marginal = float(values @ weight)
        diff = q - mean_q
        expected = (2 * math.pi) ** -1.5 * np.linalg.det(cov_q) ** -0.5 * math.exp(
            -0.5 * diff @ inv_q @ diff
        )
        assert marginal == pytest.approx(expected, rel=1e-3)


def test_wigner_input_validation():
    state = make_state(0.1, [0, 0, 0])
    with pytest.raises(InvalidParameterError):
        wigner(state, np.zeros(2), np.zeros(3))
    with pytest.raises(InvalidParameterError, match="must be real numbers, got complex128 values$"):
        wigner(state, np.zeros(3), np.ones(3) * 1j)


def test_wigner_rejects_non_finite_points_and_overflow():
    state = make_state(0.1, [0, 0, 0])
    q = np.zeros((4, 3))
    q[2, 1] = np.nan
    with pytest.raises(InvalidParameterError):
        wigner(state, q, np.zeros(3))
    with pytest.raises(NumericError):
        make_state(400, [0, 0, 0])  # e^{2s} overflows
    large = make_state(200, [0, 0, 0])
    assert wigner(large, np.zeros(3), np.zeros(3)) == 1 / math.pi**3
    with pytest.raises(NumericError):
        wigner(large, np.ones(3), np.zeros(3))  # (e^{400} sqrt(3))^2 overflows
    with pytest.raises(NumericError):  # the mode sums overflow, and TwoSum's inf - inf is NaN
        wigner(state, [1e308, 1e308, 0], np.zeros(3))
    with pytest.raises(NumericError, match="overflows double precision at strengths 0.1 to 200$"):
        wigner(make_state([0.1, 200], [0, 0, 0]), np.ones((2, 3)), np.zeros(3))


def _near_mean(rng, state, shape):
    # points a standard normal draw from the mean on every normal mode: the
    # q modes have widths gains[1]/sqrt(2), the p modes gains[0]/sqrt(2)
    modes = np.array([[1, 1, 1], [1, -1, 0], [1, 1, -2]]) / np.sqrt([[3], [2], [6]])
    z = rng.normal(size=shape + (2, 3)) * state.gains[..., ::-1, :] / math.sqrt(2)
    return mean(state)[..., :3] + z[..., 0, :] @ modes, mean(state)[..., 3:] + z[..., 1, :] @ modes


def test_wigner_batch_equals_point_calls():
    rng = np.random.default_rng(17)
    state = make_state(0.7, [0.3 - 0.2j, 0.1j, -0.4])
    q = rng.normal(size=(6, 5, 3))
    p = rng.normal(size=(5, 3))
    batch = wigner(state, q, p)
    assert batch.shape == (6, 5)
    for i, j in np.ndindex(6, 5):
        assert batch[i, j] == wigner(state, q[i, j], p[j])
    for strength in (3.0, 5.0, 6.0):
        state = make_state(strength, [0.3 - 0.2j, 0.1j, -0.4])
        q, p = _near_mean(rng, state, (6, 5))
        batch = wigner(state, q, p[0])
        assert batch.shape == (6, 5) and (batch > 1e-6).all()
        for i, j in np.ndindex(6, 5):
            assert batch[i, j] == wigner(state, q[i, j], p[0, j])


def test_wigner_on_strength_batch_equals_single_states():
    rng = np.random.default_rng(23)
    strengths = np.array([-0.6, 0.0, 0.45, 1.3, 3.0, 5.0, 6.0])
    alpha = [0.3 - 0.2j, 0.1j, -0.4]
    batch = make_state(strengths, alpha)
    assert mean(batch).shape == (7, 6) and cov(batch).shape == (7, 6, 6)
    q = rng.normal(size=(7, 5, 3))
    p = rng.normal(size=(5, 3))
    values = wigner(batch, q, p)
    assert values.shape == (7, 5)
    for i, s in enumerate(strengths):
        single = make_state(float(s), alpha)
        assert values[i].tolist() == [wigner(single, q[i, j], p[j]) for j in range(5)]
    # near the mean, where W does not vanish at the large strengths
    q, p = _near_mean(rng, batch[:, None], (5,))
    values = wigner(batch, q, p)
    assert (values > 1e-6).all()
    for i, s in enumerate(strengths):
        single = make_state(float(s), alpha)
        assert values[i].tolist() == [wigner(single, q[i, j], p[i, j]) for j in range(5)]
    with pytest.raises(InvalidParameterError):
        wigner(batch, np.zeros(3), np.zeros(3))  # no leading axis for the strengths


def _wigner_bits(state, q, p):
    return np.asarray(wigner(state, q, p)).view(np.int64)


def _cut(x, shape):
    # x (..., 3) cut down to ``shape``: its first index on each axis that ``shape`` lacks or has as 1
    x = x[(0,) * (x.ndim - len(shape))]
    return x[tuple(slice(None) if n > 1 else slice(0, 1) for n in shape)]


@pytest.mark.parametrize("q_shape, p_shape", [
    ((4, 1, 3), (1, 5, 3)), ((1, 5, 3), (4, 1, 3)), ((3,), (5, 3)), ((5, 3), (3,)), ((2, 1, 3), (3, 3)),
])
def test_wigner_on_unequal_shapes_equals_the_broadcast_points(q_shape, p_shape):
    # q and p of different shapes are summed each at its own shape, and only the q row + p row
    # of the exponent broadcasts; the values are those of the broadcast points bit for bit
    rng = np.random.default_rng(29)
    alpha = [0.3 - 0.2j, 0.1j, -0.4]
    for strength in (-0.6, 0.0, 0.45, 3.0, 6.0):
        state = make_state(strength, alpha)
        # near the mean, where W does not vanish at the large strengths
        q, p = _near_mean(rng, state, np.broadcast_shapes(q_shape, p_shape)[:-1])
        q, p = _cut(q, q_shape), _cut(p, p_shape)
        assert np.array_equal(_wigner_bits(state, q, p), _wigner_bits(state, *np.broadcast_arrays(q, p)))
    # a batched state: its strength axis lines up with the first axis of the broadcast points
    strengths = np.array([-0.6, 0.0, 0.45, 3.0])
    batch = make_state(strengths, alpha)
    for q_shape, p_shape in (((4, 1, 3), (1, 5, 3)), ((4, 5, 3), (5, 3)), ((1, 5, 3), (4, 1, 3)),
                             ((3,), (4, 5, 3)), ((4, 1, 3), (5, 3))):
        q, p = rng.normal(size=q_shape) * 0.5, rng.normal(size=p_shape) * 0.5
        assert np.array_equal(_wigner_bits(batch, q, p), _wigner_bits(batch, *np.broadcast_arrays(q, p)))
        values, (wide_q, wide_p) = wigner(batch, q, p), np.broadcast_arrays(q, p)
        for i, s in enumerate(strengths):
            assert np.array_equal(values[i], wigner(make_state(float(s), alpha), wide_q[i], wide_p[i]))


def test_wigner_on_unequal_shapes_refuses_as_on_equal_ones():
    state = make_state(0.1, [0, 0, 0])
    q, p = np.zeros((4, 1, 3)), np.zeros((1, 5, 3))
    for half in (0, 1):
        bad = [q.copy(), p.copy()]
        bad[half][0, 0, 1] = np.nan
        with pytest.raises(InvalidParameterError, match="^phase-space points must be finite$"):
            wigner(state, *bad)
    with pytest.raises(InvalidParameterError, match=r"^q \(4, 3\) and p \(5, 3\) do not broadcast$"):
        wigner(state, np.zeros((4, 3)), np.zeros((5, 3)))
    batch = make_state([0.1, 0.2, 0.3], [0, 0, 0])
    for q_shape in ((3,), (5, 3)):  # the second, equal shapes, for the same message
        with pytest.raises(InvalidParameterError, match=r"^points \(5,\) do not line up with strengths \(3,\)$"):
            wigner(batch, np.zeros(q_shape), np.zeros((5, 3)))
    with pytest.raises(InvalidParameterError, match="^points need a leading axis for each strength axis"):
        wigner(make_state(np.zeros((2, 3)), [0, 0, 0]), np.zeros(3), np.zeros((1, 3)))
    # e^{400} stretches the symmetric mode of q at s = 200 and of p at s = -200
    for s, q, p in ((200, np.ones((2, 1, 3)), np.zeros((1, 4, 3))), (-200, np.zeros((2, 1, 3)), np.ones((1, 4, 3)))):
        with pytest.raises(NumericError, match=f"^wigner exponent overflows double precision at strength {s}$"):
            wigner(make_state(s, [0, 0, 0]), q, p)


def test_strength_batch_slices_equal_single_states():
    # fig2_scan builds one batch and scans each strength on its slice
    strengths = np.concatenate([[-0.6, 3.0, 5.0, 6.0, 6.4630967461221465, 200.0], np.arange(51) * 0.02])
    alpha = [0.4, 0.5 - 0.1j, 0.6]
    batch = make_state(strengths, alpha)
    singles = [make_state(s, alpha) for s in strengths]
    for i, single in enumerate(singles):
        part = batch[i]
        for name in ("strength", "gains", "displacement"):
            assert np.array_equal(getattr(part, name), getattr(single, name))
        single_maps = circulant_maps(mode_gains(strengths[i]))
        for batch_map, single_map in zip(circulant_maps(batch.gains), single_maps):
            assert np.array_equal(batch_map[i], single_map)
    # the strengths' shape, here (2, 3), leads on strength and gains (GaussianState's docstring)
    grid = make_state(strengths[:6].reshape(2, 3), alpha)
    assert grid.strength.shape == (2, 3) and grid.gains.shape == (2, 3, 2, 3)
    assert np.array_equal(grid[1, 2].gains, singles[5].gains)


def test_wigner_exact_where_the_numeric_determinant_fails():
    # det(cov) evaluated in floating point is negative at this strength; the
    # normal-mode exponent needs no determinant, so W at the mean is exactly
    # 1/pi^3 with no NaN (a warning, made an error by the suite settings)
    state = make_state(6.4630967461221465, [0, 0, 0])
    assert wigner(state, np.zeros(3), np.zeros(3)) == 1 / math.pi**3


def test_batched_state_refused_where_one_strength_is_needed():
    batch = make_state(np.array([0.1, 0.2]), [0.1, 0, 0])
    with pytest.raises(InvalidParameterError):
        central_moment(batch, x3_query(2))
    with pytest.raises(InvalidParameterError):
        make_state(np.array([]), [0, 0, 0])


# ---------------------------------------------------------------------------
# normal-ordered form coefficients
# ---------------------------------------------------------------------------

def test_normal_order_zero_strength():
    prefactor, pair = normal_order_coefficients(0.0)
    assert prefactor == pytest.approx(1.0, rel=1e-14)
    assert_allclose(pair, np.zeros((3, 3)), atol=1e-14)


def test_normal_order_structure():
    for strength in (-0.4, 0.2, 0.7, 5, 10, 15, 18, 30, 80, -120, 150, 354, -354):
        prefactor, pair = normal_order_coefficients(strength)
        assert 0 < prefactor <= 1
        expected = 1 / (math.sqrt(math.cosh(2 * strength)) * math.cosh(strength))
        assert prefactor == pytest.approx(expected, rel=1e-13)
        assert_allclose(pair, pair.T, atol=1e-14)
        # eigenstructure: -tanh(2s) on the symmetric direction, tanh(s) twice
        ones = np.ones(3) / math.sqrt(3)
        assert pair @ ones == pytest.approx(-math.tanh(2 * strength) * ones, rel=1e-12)
        w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        assert pair @ w == pytest.approx(math.tanh(strength) * w, rel=1e-12, abs=1e-12)
