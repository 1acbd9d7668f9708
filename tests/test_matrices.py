import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from trisqueeze.matrices import (circulant_maps, collective_factors, double_factorial, hermite_table,
                                 mode_gains)

GRID = [-1.0, -0.3, 0.0, 0.3, 1.0]
COUPLING = np.ones((3, 3)) - np.eye(3)  # 0 on the diagonal, 1 off it (eigenvalues 2, -1, -1)


def hermite(m, x):
    return hermite_table(m, x)[m]


def test_zero_strength_is_identity():
    q_map, p_map = circulant_maps(mode_gains(0.0))
    assert_allclose(q_map, np.eye(3), atol=1e-15)
    assert_allclose(p_map, np.eye(3), atol=1e-15)
    assert q_map[0, 0] == pytest.approx(1.0)
    assert q_map[0, 1] == pytest.approx(0.0)
    assert collective_factors(0.0) == pytest.approx((2.0, 0.0))


def test_log2_entries():
    # e^{-2s} = 1/4 and e^{s} = 2 at s = ln 2
    q_map, _ = circulant_maps(mode_gains(math.log(2)))
    assert q_map[0, 0] == pytest.approx(17 / 12, rel=1e-15)
    assert q_map[0, 1] == pytest.approx(-7 / 12, rel=1e-15)


@pytest.mark.parametrize("strength", GRID)
def test_maps_are_mutually_inverse_and_symmetric(strength):
    q_map, p_map = circulant_maps(mode_gains(strength))
    assert_allclose(q_map @ p_map, np.eye(3), atol=1e-12)
    assert_allclose(q_map, q_map.T, atol=0)
    assert_allclose(p_map, p_map.T, atol=0)
    # circulant symmetry: one diagonal and one off-diagonal value each
    off = q_map[~np.eye(3, dtype=bool)]
    assert np.ptp(off) == 0
    assert np.ptp(np.diag(q_map)) == 0


@pytest.mark.parametrize("strength", GRID)
def test_entry_sum_of_squared_map(strength):
    q_map, _ = circulant_maps(mode_gains(strength))
    assert (q_map @ q_map).sum() == pytest.approx(3 * math.exp(-4 * strength), abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("strength", GRID)
def test_eigenvector_action(strength):
    q_map, _ = circulant_maps(mode_gains(strength))
    ones = np.ones(3)
    assert_allclose(q_map @ ones, math.exp(-2 * strength) * ones, rtol=1e-12)
    for w in (np.array([1.0, -1.0, 0.0]), np.array([1.0, 1.0, -2.0])):
        assert_allclose(q_map @ w, math.exp(strength) * w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("strength", [0.1, 0.5, 1.0])
def test_series_exponential_matches_closed_form(strength):
    q_map, p_map = circulant_maps(mode_gains(strength))
    assert_allclose(scipy.linalg.expm(-strength * COUPLING), q_map, atol=1e-12)
    assert_allclose(scipy.linalg.expm(strength * COUPLING), p_map, atol=1e-12)


# ---------------------------------------------------------------------------
# hermite / double factorial
# ---------------------------------------------------------------------------

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


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(7) == 105
    assert double_factorial(9) == 945
