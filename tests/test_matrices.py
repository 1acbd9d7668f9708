import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from helpers import circulant_maps, double_factorial
from trisqueeze.matrices import collective_factors, mode_gains

GRID = [-1.0, -0.3, 0.0, 0.3, 1.0]
COUPLING = np.ones((3, 3)) - np.eye(3)  # 0 on the diagonal, 1 off it (eigenvalues 2, -1, -1)


@pytest.mark.parametrize("strength", [0.0, 1e-8, 0.2, 1.0, 10.0, 300.0])
def test_negated_strength_swaps_the_gain_rows(strength):
    # errata E1 evaluates the literal form, e^{-s*coupling} on q and e^{+s*coupling} on p, as
    # the Wigner function at strength -s; that is exact because the gains agree bit for bit
    for s in (strength, -strength):
        assert mode_gains(-s).tobytes() == mode_gains(s)[::-1].tobytes()


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
# double factorial
# ---------------------------------------------------------------------------

def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(7) == 105
    assert double_factorial(9) == 945
