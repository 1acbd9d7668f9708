import math

import numpy as np
import pytest

from trisqueeze import (
    FIG2_ALPHA,
    BellSetting,
    InvalidParameterError,
    b3,
    b3_oracle_check,
    fig2_scan,
    fig2_setting,
    make_state,
    wigner,
)
from trisqueeze.bell import maximize_b3_full


def test_all_zero_setting_doubles_origin_value():
    state = make_state(0.2, [0.1, -0.2j, 0.3])
    setting = BellSetting(beta=(0j, 0j, 0j), beta_prime=(0j, 0j, 0j))
    origin = math.pi**3 * wigner(state, np.zeros(3), np.zeros(3))
    assert b3(state, setting) == pytest.approx(2 * origin, rel=1e-12)


def test_vacuum_zero_setting_gives_two():
    state = make_state(0.0, [0, 0, 0])
    setting = BellSetting(beta=(0j, 0j, 0j), beta_prime=(0j, 0j, 0j))
    assert b3(state, setting) == pytest.approx(2.0, rel=1e-12)


def test_b3_bounded_by_four():
    rng = np.random.default_rng(13)
    for _ in range(30):
        state = make_state(rng.uniform(-1, 1), rng.normal(size=3) + 1j * rng.normal(size=3))
        setting = BellSetting(
            beta=tuple(rng.normal(size=3) + 1j * rng.normal(size=3)),
            beta_prime=tuple(rng.normal(size=3) + 1j * rng.normal(size=3)),
        )
        assert abs(b3(state, setting)) < 4


def test_fig2_setting_pattern():
    setting = fig2_setting(0.4)
    assert setting.beta == (0j, 0j, -0.4 + 0j)
    assert setting.beta_prime == (0.4 + 0j, 0.4 + 0j, 0j)
    with pytest.raises(InvalidParameterError):
        fig2_setting(0.0)


def test_small_displacement_limit():
    state = make_state(0.5, FIG2_ALPHA)
    origin = math.pi**3 * wigner(state, np.zeros(3), np.zeros(3))
    value = b3(state, fig2_setting(1e-8))
    assert value == pytest.approx(2 * origin, abs=1e-5)
    assert value <= 2


def test_b3_continuity_along_b():
    # smooth in b: no NaN and no step larger than 10x the median of the
    # neighboring steps (a local spike would flag a branch/quadrature bug)
    state = make_state(0.5, FIG2_ALPHA)
    bs = np.arange(0.01, 2.0001, 0.01)
    values = np.array([b3(state, fig2_setting(b)) for b in bs])
    assert np.all(np.isfinite(values))
    steps = np.abs(np.diff(values))
    for i, step in enumerate(steps):
        window = steps[max(0, i - 4) : i + 5]
        assert step <= 10 * max(float(np.median(window)), 1e-12)


def test_mode_exchange_symmetry():
    alpha = [0.4, 0.5, 0.6]
    swapped_alpha = [0.5, 0.4, 0.6]
    rng = np.random.default_rng(29)
    betas = rng.normal(size=3) + 1j * rng.normal(size=3)
    primes = rng.normal(size=3) + 1j * rng.normal(size=3)
    state = make_state(0.45, alpha)
    swapped_state = make_state(0.45, swapped_alpha)
    setting = BellSetting(beta=tuple(betas), beta_prime=tuple(primes))
    swapped_setting = BellSetting(
        beta=(betas[1], betas[0], betas[2]),
        beta_prime=(primes[1], primes[0], primes[2]),
    )
    assert b3(swapped_state, swapped_setting) == pytest.approx(b3(state, setting), rel=1e-12)


def test_b3_batch_equals_scalar_calls():
    # one batched Wigner call per setting array gives bit for bit the
    # values of one scalar call per setting
    rng = np.random.default_rng(41)
    state = make_state(0.6, FIG2_ALPHA)
    beta = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
    beta_prime = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    batch = b3(state, BellSetting(beta=beta, beta_prime=beta_prime))
    assert batch.shape == (5, 4)
    for i, j in np.ndindex(5, 4):
        single = b3(state, BellSetting(beta=tuple(beta[i, j]), beta_prime=tuple(beta_prime[j])))
        assert isinstance(single, float)
        assert batch[i, j] == single
    bs = np.arange(0.01, 2.0001, 0.01)
    grid = b3(state, fig2_setting(bs))
    assert grid.shape == bs.shape
    assert all(grid[i] == b3(state, fig2_setting(b)) for i, b in enumerate(bs))


def test_fig2_setting_batch_validation():
    with pytest.raises(InvalidParameterError, match="got -0.2"):
        fig2_setting(np.array([0.1, -0.2, 0.3]))
    with pytest.raises(InvalidParameterError):
        b3(make_state(0.1, FIG2_ALPHA), BellSetting(beta=np.zeros((2, 2)), beta_prime=(0, 0, 0)))


def test_fig2_scan_rows():
    rows = fig2_scan([0.0, 0.5], np.arange(0.01, 1.0001, 0.01))
    assert len(rows) == 2
    strength0, b0, best0 = rows[0]
    assert strength0 == 0.0
    assert best0 <= 2 + 1e-9
    for _, b_star, best in rows:
        assert 0 < b_star <= 1.0
        assert abs(best) < 4


def test_fig2_scan_refinement_beats_grid():
    bs = np.arange(0.05, 1.0001, 0.05)
    rows = fig2_scan([0.8], bs)
    _, b_star, best = rows[0]
    state = make_state(0.8, FIG2_ALPHA)
    grid_best = max(b3(state, fig2_setting(b)) for b in bs)
    assert best >= grid_best - 1e-12


def test_fig2_scan_validation():
    with pytest.raises(InvalidParameterError):
        fig2_scan([], [0.1])


def test_oracle_check_agreement():
    analytic, oracle = b3_oracle_check(0.2, FIG2_ALPHA, fig2_setting(0.3), cutoff=12)
    assert analytic == pytest.approx(oracle, abs=1e-3)


def test_oracle_check_regime_guard():
    with pytest.raises(InvalidParameterError):
        b3_oracle_check(0.5, FIG2_ALPHA, fig2_setting(0.3), cutoff=10)


def test_full_search_does_not_regress_seed():
    seed_state = make_state(0.4, FIG2_ALPHA)
    seed_value = b3(seed_state, fig2_setting(0.3))
    best, setting, strength = maximize_b3_full(0.4, b_seed=0.3, max_iterations=400)
    assert best >= seed_value - 1e-12
    assert abs(best) < 4
    assert len(setting.beta) == 3 and len(setting.beta_prime) == 3
