"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three clauses encode printed closed-form claims that the independent oracles
in this package contradict (the brute-force Fock engine and the exact
collective-mode reduction).  They are implemented exactly as stated and FAIL
BY DESIGN rather than being loosened to pass; the errata report
(`trisqueeze errata`) carries the numeric evidence:

* criterion 6c: the printed squeezed-vacuum value 2 + 2*coth(2s)^2 (the
  oracle-verified statistic is 1 + coth(2s)^2);
* criterion 7b/7c: a positive-P2 flank and exact Im-invariance of the
  printed scan formula (it is negative on the whole grid and drifts ~5e-5
  along the imaginary axis);
* criterion 9b/9d: Bell violation above 2 at the published scan settings
  (the physical correlations are bounded by ~0.65 there at every strength).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

import trisqueeze as tz
from helpers import (circulant_maps, cov, double_factorial, mean, moment_y3,
                     normal_order_coefficients, wigner_normalization, x3_query, y3_query)
from trisqueeze.cli import run
from trisqueeze.matrices import mode_gains


def _report(number, ok, message):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")


def _finish(number, message, checks):
    ok = all(checks)
    _report(number, ok, message)
    assert ok, f"criterion {number}: {message}"


def test_criterion_01_matrix_identities():
    start = time.perf_counter()
    checks = []
    for strength in (-1.0, -0.3, 0.0, 0.3, 1.0):
        q_map, p_map = circulant_maps(mode_gains(strength))
        checks.append(np.abs(q_map @ p_map - np.eye(3)).max() < 1e-10)
        checks.append(np.abs(q_map - q_map.T).max() < 1e-10)
        checks.append(abs((q_map @ q_map).sum() - 3 * math.exp(-4 * strength)) < 1e-10)
    coupling = np.ones((3, 3)) - np.eye(3)
    for strength in (0.1, 0.5, 1.0):
        q_map, _ = circulant_maps(mode_gains(strength))
        series = scipy.linalg.expm(-strength * coupling)
        checks.append(np.abs(series - q_map).max() < 1e-12)
    _finish(1, f"matrix identities ({time.perf_counter()-start:.2f}s)", checks)


def test_criterion_02_squeezing_law(arena14):
    start = time.perf_counter()
    checks = []
    for strength in (-0.5, 0.0, 0.2, 0.7):
        state = tz.make_state(strength, [0.2, -0.1j, 0.3])
        var_x = tz.central_moment(state, x3_query(2))
        var_y = tz.central_moment(state, y3_query(2))
        checks.append(abs(var_x - math.exp(-4 * strength) / 4) < 1e-12)
        checks.append(abs(var_y - math.exp(4 * strength) / 4) < 1e-12)
        checks.append(abs(var_x * var_y - 1 / 16) < 1e-12)
    ket = tz.evolve(arena14, 0.2, tz.coherent_ket(arena14, [0, 0, 0]))
    checks.append(abs(tz.moment_x3(arena14, ket, 2) - math.exp(-0.8) / 4) < 1e-5)
    checks.append(abs(moment_y3(arena14, ket, 2) - math.exp(0.8) / 4) < 1e-5)
    _finish(2, f"squeezing law, Gaussian + Fock oracle ({time.perf_counter()-start:.1f}s)", checks)


def test_criterion_03_all_even_orders():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    strength = 0.4
    checks = []
    for _ in range(20):
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = tz.make_state(strength, alpha)
        for m in range(1, 7):
            engine = tz.central_moment(state, x3_query(2 * m))
            closed = 0.25**m * double_factorial(2 * m - 1) * math.exp(-4 * m * strength)
            checks.append(abs(engine - closed) <= 1e-10 * closed)
            checks.append(abs(tz.hos_x(strength, m) - closed) <= 1e-12 * closed)
    _finish(3, f"all-even-order squeezing law, alpha-independent ({time.perf_counter()-start:.2f}s)", checks)


def test_criterion_04_enhancement():
    start = time.perf_counter()
    checks = []
    for strength in np.arange(0.02, 1.0001, 0.02):
        three_mode = tz.hos_x(strength, 1)
        two_mode = tz.two_mode_baseline_variance(strength)[0]
        checks.append(three_mode < two_mode)
    _finish(4, f"three-mode squeezes harder than the two-mode benchmark ({time.perf_counter()-start:.2f}s)", checks)


def test_criterion_05_normal_ordered_form(arena14):
    start = time.perf_counter()
    checks = []
    for strength in (0.1, 0.2):
        prefactor, pair = normal_order_coefficients(strength)
        vacuum_column = tz.evolve(arena14, strength, tz.coherent_ket(arena14, [0, 0, 0]))
        amp0 = vacuum_column[0]
        checks.append(abs(amp0 - prefactor) < 1e-5)
        for j in range(3):
            for k in range(3):
                if j == k:
                    occ = [0, 0, 0]
                    occ[j] = 2
                    ratio = vacuum_column[np.ravel_multi_index(occ, (arena14.cutoff,) * 3)] / amp0
                    checks.append(abs(math.sqrt(2) * ratio - pair[j, j]) < 1e-5)
                else:
                    occ = [0, 0, 0]
                    occ[j] = occ[k] = 1
                    ratio = vacuum_column[np.ravel_multi_index(occ, (arena14.cutoff,) * 3)] / amp0
                    checks.append(abs(ratio - pair[j, k]) < 1e-5)
    _finish(5, f"normal-ordered amplitude + pair matrix vs Fock oracle ({time.perf_counter()-start:.1f}s)", checks)


def test_criterion_06_photon_exact_paths(mean_power_grid):
    start = time.perf_counter()
    checks = []
    # the Wick sum against 60-digit symbolic normal ordering
    for k, strength, alpha, reference in mean_power_grid:
        if strength in (0.0, 0.25, 0.5):
            exact = tz.mean_power_exact(k, alpha, strength)
            checks.append(abs(exact - reference) <= 1e-13 * max(1.0, abs(reference)))
    checks.append(len(checks) == 27)
    # cross-check against the three-mode oracle
    arena = tz.build_arena(20)
    for strength in (0.2, 0.3):
        for alpha in ([0, 0, 0], [0.3, 0.3, 0.3]):
            ket = tz.evolve(arena, strength, tz.coherent_ket(arena, alpha))
            for k in (1, 2):
                oracle = tz.mean_power(arena, ket, k)
                exact = tz.mean_power_exact(k, alpha, strength)
                checks.append(abs(oracle - exact) <= 1e-9 * abs(exact))
    _finish(6, f"exact photon route vs 60-digit values + oracle-backed ({time.perf_counter()-start:.1f}s)", checks)


def test_criterion_06c_printed_squeezed_vacuum_p2():
    """Printed claim, verbatim: P2 of the squeezed vacuum equals
    2 + 2*coth(2s)^2 to 1e-8.  The Fock oracle and the exact reduction both
    give 1 + coth(2s)^2 instead, so this fails by design."""
    strength = 0.3
    result = tz.pk(2, [0, 0, 0], strength, path="exact")
    printed = 2 + 2 / math.tanh(2 * strength) ** 2
    ok = abs(result.exact_value - printed) <= 1e-8
    _report("6c", ok, f"printed squeezed-vacuum P2 value (got {result.exact_value:.9f}, printed {printed:.9f})")
    assert ok, "printed value contradicted by the oracle-verified statistic 1 + coth(2s)^2"


@pytest.fixture(scope="module")
def fig1_rows():
    return list(zip(*tz.fig1_scan(np.arange(-1, 1.0001, 0.05), np.arange(-1, 1.0001, 0.05))))


def test_criterion_07a_fig1_negative_window(fig1_rows):
    start = time.perf_counter()
    checks = [row[2] < 0 for row in fig1_rows if abs(row[0]) < 0.45]
    emitted_both = all(math.isfinite(row[3]) for row in fig1_rows)
    checks.append(emitted_both)
    checks.append(len(fig1_rows) == 41 * 41)
    _finish("7a", f"printed-route P2 negative for |Re alpha3| < 0.45, exact route emitted ({time.perf_counter()-start:.1f}s)", checks)


def test_criterion_07b_fig1_positive_flanks(fig1_rows):
    """Printed claim, verbatim: P2 > 0 for |Re(alpha3)| > 0.55 at unit
    strength.  The printed formula evaluates negative over the whole grid,
    so this fails by design."""
    flank = [row[2] for row in fig1_rows if abs(row[0]) > 0.55]
    ok = all(value > 0 for value in flank)
    _report("7b", ok, f"printed-route P2 positive flanks (max flank value {max(flank):.6f})")
    assert ok, "printed route stays negative on the flanks"


def test_criterion_07c_fig1_im_invariance(fig1_rows):
    """Printed claim, verbatim: P2 constant along Im(alpha3) to 1e-9.  The
    printed formula drifts at the 5e-5 level, so this fails by design."""
    by_re = {}
    for re, _, p2_paper, _ in fig1_rows:
        by_re.setdefault(re, []).append(p2_paper)
    spread = max(max(vals) - min(vals) for vals in by_re.values())
    ok = spread <= 1e-9
    _report("7c", ok, f"printed-route P2 invariance along Im(alpha3) (spread {spread:.3e})")
    assert ok, "printed route is only approximately Im-invariant"


def test_criterion_08_wigner(arena14):
    start = time.perf_counter()
    checks = []
    rng = np.random.default_rng(8)

    for _ in range(10):
        state = tz.make_state(rng.uniform(-0.8, 0.8), rng.normal(size=3) + 1j * rng.normal(size=3))
        q = rng.normal(size=3)
        p = rng.normal(size=3)
        a = tz.wigner(state, q, p)  # the closed form, on the normal modes
        # the generic Gaussian form; det(cov) = 2^-6 makes its prefactor 1/pi^3
        r = np.concatenate([q, p]) - mean(state)
        b = math.exp(-0.5 * r @ np.linalg.inv(cov(state)) @ r) / math.pi**3
        checks.append(abs(a - b) <= 1e-10 * max(a, b))
    state = tz.make_state(0.35, [0.3 + 0.2j, -0.1, 0.4 - 0.3j])
    checks.append(abs(wigner_normalization(state) - 1.0) <= 1e-3)
    peak = tz.wigner(state, mean(state)[:3], mean(state)[3:])
    checks.append(abs(peak - 1 / math.pi**3) <= 1e-10)

    strength = 0.2
    alpha = [0.3, 0.2 + 0.1j, -0.25]
    state = tz.make_state(strength, alpha)
    ket = tz.evolve(arena14, strength, tz.coherent_ket(arena14, alpha))
    for betas in ([0, 0, 0], [0.25 + 0.1j, -0.15, 0.1 - 0.2j], [0.2, 0.2, 0.2]):
        betas = np.asarray(betas, dtype=complex)
        analytic = math.pi**3 * tz.wigner(
            state, math.sqrt(2) * betas.real, math.sqrt(2) * betas.imag
        )
        oracle = tz.displaced_parity(arena14, ket, betas)
        checks.append(abs(analytic - oracle) <= 1e-3)
    _finish(8, f"Wigner: route equality, normalization, peak, parity oracle ({time.perf_counter()-start:.1f}s)", checks)


@pytest.fixture(scope="module")
def fig2_rows():
    return list(zip(*tz.fig2_scan(np.arange(0.0, 1.0001, 0.02), np.arange(0.01, 2.0001, 0.01))))


@pytest.fixture(scope="module")
def plateau_rows():
    return list(zip(*tz.fig2_scan(np.arange(3.0, 5.0001, 0.25), np.arange(0.01, 2.0001, 0.01))))


def test_criterion_09a_bell_local_bound_and_plateau_shape(fig2_rows, plateau_rows):
    start = time.perf_counter()
    checks = []
    zero_row = fig2_rows[0]
    checks.append(zero_row[0] == 0.0)
    checks.append(zero_row[2] <= 2 + 1e-9)
    plateau_values = [row[2] for row in plateau_rows]
    checks.append(max(plateau_values) - min(plateau_values) <= 1e-3)
    checks.append(all(abs(row[2]) < 4 for row in fig2_rows + plateau_rows))
    _finish("9a", f"Bell scan: local bound at zero strength, flat large-strength plateau ({time.perf_counter()-start:.1f}s)", checks)


def test_criterion_09b_bell_violation_band(fig2_rows):
    """Printed claim, verbatim: max_b B(3) > 2 for every strength in
    (0.05, 1].  The physical correlations at the published displacement
    pattern are bounded near 0.65, so this fails by design."""
    band = [(s, best) for s, _, best in fig2_rows if 0.05 < s <= 1.0]
    ok = all(best > 2 for _, best in band)
    worst = max(best for _, best in band)
    _report("9b", ok, f"Bell violation band (largest max_b B(3) on the band: {worst:.6f})")
    assert ok, "no Bell violation at the published scan settings"


def test_criterion_09d_bell_plateau_exceeds_two(plateau_rows):
    """Printed claim, verbatim: the large-strength plateau stays above 2.
    The physical plateau sits near 3*exp(-2*|sqrt(2)alpha|^2/2) ~ 0.643,
    so this fails by design."""
    plateau_values = [row[2] for row in plateau_rows]
    ok = min(plateau_values) > 2
    _report("9d", ok, f"Bell plateau level (plateau at {np.mean(plateau_values):.6f})")
    assert ok, "plateau converges to a constant below 2"


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    checks = []
    invocations = [
        ["moments", "--lambda", "0.2", "--m-max", "6"],
        ["fig1", "--re=-0.5:0.25:0.5", "--im=-0.5:0.25:0.5"],
        ["fig2", "--lambda", "0:0.25:1", "--b", "0.05:0.05:1"],
        ["errata"],
    ]
    for idx, args in enumerate(invocations):
        first = tmp_path / f"first_{idx}"
        second = tmp_path / f"second_{idx}"
        checks.append(run(args + ["--out", str(first)]) == 0)
        checks.append(run(args + ["--out", str(second)]) == 0)
        checks.append(first.read_bytes() == second.read_bytes())
    _finish(10, f"identical CLI invocations are byte-identical ({time.perf_counter()-start:.1f}s)", checks)
