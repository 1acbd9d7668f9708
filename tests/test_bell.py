import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from helpers import mean
from trisqueeze import (
    FIG2_ALPHA,
    BellSetting,
    InvalidParameterError,
    NumericError,
    b3,
    b3_oracle_check,
    build_arena,
    coherent_ket,
    displaced_parity,
    evolve,
    fig2_scan,
    fig2_setting,
    make_state,
    wigner,
)
from trisqueeze import bell
from trisqueeze.bell import max_b3
from trisqueeze.gaussian import _mode_sums

DATA = Path(__file__).parent / "data"


def _rows(columns):
    # the scans return one array per column; these tests read them a row per strength
    return list(zip(*columns))


# max B(3) over symmetric settings, found numerically on the two-variable
# B(a, b) of max_b3's docstring: by BFGS and by Newton steps, which agree to
# 1e-11 (at s = 1e-3 by BFGS and by Nelder-Mead, where Newton stalled at 2)
MAX_B3_TABLE = {
    1e-3: 2.00001196010, 0.01: 2.00116100971, 0.05: 2.02556535289, 0.1: 2.08801280467,
    0.2: 2.26494547547, 0.3: 2.45316796298, 0.5: 2.74237492779, 0.7: 2.89398904301,
    1.0: 2.97557831618, 2.0: 2.99988392699, 4.0: 2.99999999861,
}


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
    with pytest.raises(InvalidParameterError, match="got inf"):
        fig2_setting(np.array([0.1, math.inf]))
    with pytest.raises(InvalidParameterError):
        b3(make_state(0.1, FIG2_ALPHA), BellSetting(beta=np.zeros((2, 2)), beta_prime=(0, 0, 0)))


def test_fig2_scan_rows():
    rows = _rows(fig2_scan([0.0, 0.5], np.arange(0.01, 1.0001, 0.01)))
    assert len(rows) == 2
    strength0, b0, best0 = rows[0]
    assert strength0 == 0.0
    assert best0 <= 2 + 1e-9
    for _, b_star, best in rows:
        assert 0 < b_star <= 1.0
        assert abs(best) < 4


def test_fig2_scan_refinement_beats_grid():
    bs = np.arange(0.05, 1.0001, 0.05)
    rows = _rows(fig2_scan([0.8], bs))
    _, b_star, best = rows[0]
    state = make_state(0.8, FIG2_ALPHA)
    grid_best = max(b3(state, fig2_setting(b)) for b in bs)
    assert best >= grid_best - 1e-12


def test_b3_on_strength_batch_equals_single_states():
    # the strength axis of a batched state lines up with the first leading
    # axis of the settings; every value equals the single-strength state's
    strengths = np.array([0.0, 0.35, 1.2, -0.4])
    batch = make_state(strengths, FIG2_ALPHA)
    bs = np.array([[0.1, 0.7], [0.2, 0.3], [0.05, 1.9], [0.6, 0.6]])
    values = b3(batch, fig2_setting(bs))
    assert values.shape == (4, 2)
    for i, s in enumerate(strengths):
        single = make_state(float(s), FIG2_ALPHA)
        assert values[i].tolist() == [b3(single, fig2_setting(b)) for b in bs[i]]


def test_fig2_scan_lockstep_rows_equal_single_strength_scans():
    # on this b grid the maximum sits on the first grid point (strengths 0
    # and 2), on the last (0.9, 1.0) and inside (1.2); the grid point beats
    # the refined point at 0, 0.9 and 2; the last-cell brackets (0.9, 1.0)
    # are narrower and converge two golden-section steps before the others
    bs = np.array([0.1, 0.2, 0.25, 0.3])
    strengths = [0.0, 0.9, 1.0, 1.2, 2.0]
    rows = _rows(fig2_scan(strengths, bs))
    assert rows == [_rows(fig2_scan([s], bs))[0] for s in strengths]
    assert [row[1] in bs for row in rows] == [True, True, False, False, True]
    assert rows[1][1:] == (0.3, b3(make_state(0.9, FIG2_ALPHA), fig2_setting(0.3)))


def test_fig2_scan_validation():
    with pytest.raises(InvalidParameterError):
        fig2_scan([], [0.1])


def test_fig2_scan_takes_a_plain_strength():
    # a 0-d strength ended in "TypeError: 'float' object is not subscriptable"
    assert _rows(fig2_scan(0.5, [0.1, 0.2])) == _rows(fig2_scan([0.5], [0.1, 0.2]))
    assert _rows(fig2_scan(0.5, 0.1)) == _rows(fig2_scan([0.5], [0.1]))  # a 0-d b grid is one point
    assert _rows(max_b3(0.5)) == _rows(max_b3([0.5]))


def test_b3_refuses_settings_without_an_axis_per_strength():
    # the four correlation points are no strength axis: four strengths and one
    # setting gave one float that mixed the four states' correlations
    for strengths in ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2]):
        batch = make_state(np.array(strengths), FIG2_ALPHA)
        with pytest.raises(InvalidParameterError, match="leading axis for each strength axis"):
            b3(batch, fig2_setting(0.3))
    batch = make_state(np.array([0.1, 0.2, 0.3, 0.4]), FIG2_ALPHA)
    values = b3(batch, fig2_setting(np.full(4, 0.3)))
    assert values.tolist() == [b3(batch[i], fig2_setting(0.3)) for i in range(4)]


def test_b3_refuses_displacements_that_overflow_without_a_warning():
    # sqrt(2) beta overflowed outside any np.errstate, and numpy warned first; the settings are
    # finite, so their overflow is a numeric failure, and a non-finite setting an invalid one,
    # named as the settings it is (it was refused as "phase-space points")
    state = make_state(0.0, (0, 0, 0))
    for setting in (BellSetting((1.7e308, 0, 0), (0, 0, 0)), fig2_setting(1.7e308)):
        with pytest.raises(NumericError, match="^wigner exponent overflows double precision at strength 0$"):
            b3(state, setting)
    with pytest.raises(InvalidParameterError, match="^Bell settings must be finite$"):
        b3(state, BellSetting((math.inf, 0, 0), (0, 0, 0)))


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def test_fig2_setting_is_the_unit_pattern_scaled_bit_for_bit():
    # fig2_setting(b) is (0, 0, -b), (b, b, 0), and b times the scan's unit
    # points are sqrt(2) (q, p) of the four points b3 forms from it
    bs = np.exp(np.random.default_rng(43).uniform(-20, 20, size=64))
    setting = fig2_setting(bs)
    zero = np.zeros_like(bs)
    assert np.array_equal(_bits(setting.beta), _bits(np.stack([zero, zero, -bs], axis=-1)))
    assert np.array_equal(_bits(setting.beta_prime), _bits(np.stack([bs, bs, zero], axis=-1)))
    for b in bs[:8]:
        single = fig2_setting(b)
        assert single.beta == (0j, 0j, complex(-b))
        assert single.beta_prime == (complex(b), complex(b), 0j)
    points = np.where(bell._PRIMED, setting.beta_prime[:, None, :], setting.beta[:, None, :])
    formed = math.sqrt(2) * np.stack([points.real, points.imag], axis=-2)
    assert np.array_equal(_bits(formed), _bits(bs[:, None, None, None] * bell._FIG2_POINTS))


def test_fig2_modes_are_the_integer_pattern_scaled():
    # each entry of b * _FIG2_POINTS is 0 or +-c, c = fl(b sqrt(2)), so every sum of _mode_sums
    # on those points is exact or rounds once, to fl(k c): the c * _FIG2_MODES that the scan's
    # kernel forms are its bits (== ignores the sign of zero, which the Wigner exponent squares
    # away).  Where 2c or 3c overflows, both are non-finite (TwoSum's inf - inf gives NaN, the pattern inf)
    bs = np.append(np.exp(np.random.default_rng(43).uniform(-20, 20, size=64)),
                   [5e-324, 1e-300, 8e307, 1.2e308])
    with np.errstate(over="ignore", invalid="ignore"):
        summed = _mode_sums(bs[:, None, None, None] * bell._FIG2_POINTS)
        modes = (bs[:, None, None, None] * math.sqrt(2)) * bell._FIG2_MODES
    finite = np.isfinite(summed)
    assert finite.reshape(bs.size, -1).all(axis=1).tolist() == [True] * 66 + [False] * 2
    assert np.array_equal(np.isfinite(modes), finite) and np.isinf(modes[~finite]).all()
    assert (summed[finite] == modes[finite]).all()
    # a scan whose grid reaches those magnitudes answers, or refuses, as it did when every
    # step summed modes: rows pinned by a digest of their float.hex recorded then
    grid = np.sort(bs[:-2])
    rows = _rows(fig2_scan([0.0, -0.4, 1.2, 5.0], grid))
    assert hashlib.sha256(repr([tuple(v.hex() for v in row) for row in rows]).encode()).hexdigest() \
        == "a866a3f94c0e5de3447981a2a20fcdfd3ee70b272523c2232c8dd82c5aac75bb"
    for top in bs[-2:]:  # the first strength in scan order is named, whichever overflows too
        for strengths, named in (([1.2, 0.0], "1.2"), ([0.0, 1.2], "0")):
            with pytest.raises(NumericError) as refusal:
                fig2_scan(strengths, np.append(grid, top))
            assert str(refusal.value) == f"wigner exponent overflows double precision at strength {named}"
    # past about 1.27e308, b sqrt(2) overflows too, and inf times the pattern's zeros is NaN:
    # refused by the package, not by numpy's warning, as the overflow it is, since b is finite
    with pytest.raises(NumericError, match="^wigner exponent overflows double precision at strength 1.2$"):
        fig2_scan([1.2], [1.5e308])


def test_fig2_kernel_moves_only_the_q_half_off_the_origin():
    # the scan's kernel evaluates only the q half of the last three correlation points: the p
    # half is zero (the settings are real) and the first point (b1, b2, b3') is the origin, so
    # those rows are the displacement's squares at every b; six q entries move with b.  The p
    # rows it drops are 0, since FIG2_ALPHA is real and so is its displacement
    q_half, p_half = bell._FIG2_MODES[:, 0], bell._FIG2_MODES[:, 1]
    assert not p_half.any() and not q_half[0].any()
    assert np.count_nonzero(q_half) == 6
    assert not make_state([0.0, 1.2], FIG2_ALPHA).displacement[1].any()


def test_fig2_scan_values_equal_b3():
    # the scan projects its points itself, without b3, yet each value is
    # b3 at fig2_setting bit for bit; on a one-point grid both the grid
    # stage and the refinement evaluate that point
    for s in (0.0, -0.4, 1.2, 5.0, -300.0):
        state = make_state(s, FIG2_ALPHA)
        for b in (1e-3, 0.1, 0.3, 1.7):
            assert _rows(fig2_scan([s], [b]))[0] == (s, b, b3(state, fig2_setting(b)))


@pytest.mark.parametrize("bs", [[0.3, 0.25, 0.2, 0.1], [0.1, 0.2, 0.2, 0.3], [0.0, 0.1],
                                [-0.1], [0.1, math.nan, 0.3], [0.1, math.inf]])
def test_fig2_scan_rejects_b_grid_not_positive_and_increasing(bs):
    # a descending grid used to skip the refinement silently: (0.2, 0.61869)
    # in place of the ascending grid's maximum
    with pytest.raises(InvalidParameterError, match="strictly increasing"):
        fig2_scan([1.2], bs)
    ((_, b_star, best),) = _rows(fig2_scan([1.2], [0.1, 0.2, 0.25, 0.3]))
    assert b_star == pytest.approx(0.20914, abs=1e-5) and best == pytest.approx(0.61930, abs=1e-5)


def test_oracle_check_agreement():
    analytic, oracle = b3_oracle_check(0.2, FIG2_ALPHA, fig2_setting(0.3), cutoff=12)
    assert analytic == pytest.approx(oracle, abs=1e-3)


def test_oracle_check_batch_equals_single_settings():
    # the oracle summed the first four settings of a batch as if they were one setting's
    # correlations: 2.0219 next to four analytic values
    rng = np.random.default_rng(1)
    beta, beta_prime = 0.2 * rng.normal(size=(2, 4, 3))
    analytic, oracle = b3_oracle_check(0.2, (0, 0, 0), BellSetting(beta, beta_prime), cutoff=8)
    singles = [b3_oracle_check(0.2, (0, 0, 0), BellSetting(tuple(b), tuple(bp)), cutoff=8)
               for b, bp in zip(beta, beta_prime)]
    assert analytic.tolist() == [single[0] for single in singles]
    assert oracle.tolist() == [single[1] for single in singles]


def test_oracle_check_regime_guard():
    for strength in (0.5, -0.5):  # -0.5 was accepted, 1.5e-3 off at cutoff 8
        with pytest.raises(InvalidParameterError):
            b3_oracle_check(strength, FIG2_ALPHA, fig2_setting(0.3), cutoff=10)


def test_max_b3_table():
    rows = _rows(max_b3(list(MAX_B3_TABLE)))
    assert [row[0] for row in rows] == list(MAX_B3_TABLE)
    for (_, a, b, value), expected in zip(rows, MAX_B3_TABLE.values()):
        assert value == pytest.approx(expected, abs=1e-9)
        assert 2 < value < 3
        assert a >= 0 > b
    assert _rows(max_b3([0.0])) == [(0.0, 0.0, 0.0, 2.0)]
    (_, *negative), (_, *positive) = _rows(max_b3([-0.5, 0.5]))
    assert negative == positive  # the same numbers along p, bit for bit
    for bad, error in (([], InvalidParameterError), ([math.nan], InvalidParameterError),
                       ([400.0], NumericError)):
        with pytest.raises(error):
            max_b3(bad)


def test_max_b3_not_beaten_by_random_full_search():
    # BFGS over all 12 real setting components from random starts never
    # climbs above the symmetric maximum
    rng = np.random.default_rng(7)
    for strength in (0.2, 0.5):
        state = make_state(strength, (0, 0, 0))
        best = _rows(max_b3([strength]))[0][3]

        def negative(x):
            z = x.view(complex)
            return -b3(state, BellSetting(beta=z[:3], beta_prime=z[3:]))

        for _ in range(5):
            result = optimize.minimize(negative, rng.normal(scale=0.3, size=12), method="BFGS")
            assert -result.fun <= best + 1e-9


def test_max_b3_against_fock_oracle():
    (_, a, b, value), = _rows(max_b3([0.3]))
    setting = BellSetting(beta=(a, a, a), beta_prime=(b, b, b))
    analytic, oracle = b3_oracle_check(0.3, (0, 0, 0), setting, cutoff=20)
    assert analytic == value
    assert oracle == pytest.approx(value, abs=1e-10)
    # past b3_oracle_check's strength limit, from the Fock engine directly
    (_, a, b, value), = _rows(max_b3([0.5]))
    arena = build_arena(26)
    ket = evolve(arena, 0.5, coherent_ket(arena, (0, 0, 0)))
    corr = displaced_parity(arena, ket, [[a, a, b], [a, b, a], [b, a, a], [b, b, b]])
    assert corr[0] + corr[1] + corr[2] - corr[3] == pytest.approx(value, abs=1e-7)


def test_max_b3_independent_of_alpha():
    # a coherent amplitude translates the Wigner function: settings shifted
    # by the mean amplitude give the alpha = 0 maximum
    strengths = [-0.5, 0.3, 0.5, 1.0]
    for strength, a, b, value in _rows(max_b3(strengths)):
        state = make_state(strength, FIG2_ALPHA)
        centre = mean(state)
        mu = (centre[:3] + 1j * centre[3:]) / math.sqrt(2)
        axis = 1j if strength < 0 else 1
        setting = BellSetting(beta=mu + a * axis, beta_prime=mu + b * axis)
        assert b3(state, setting) == pytest.approx(value, rel=1e-12)


def test_max_b3_beats_printed_pattern_on_fig2_rows():
    with open(DATA / "fig2_default.csv", newline="") as handle:
        rows = [(float(row["lambda"]), float(row["b3_max"])) for row in csv.DictReader(handle)]
    symmetric = _rows(max_b3([strength for strength, _ in rows]))
    assert all(best[3] >= printed for best, (_, printed) in zip(symmetric, rows))
