import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import moment_y3, normal_order_coefficients, x3_query, y3_query
from trisqueeze import (
    InvalidParameterError,
    TruncationError,
    build_arena,
    coherent_ket,
    convergence_report,
    displaced_parity,
    evolve,
    mean_power,
    moment_x3,
)
from trisqueeze.fock import TAYLOR_THETA, ladder


def test_arena_validation():
    with pytest.raises(InvalidParameterError):
        build_arena(1)
    with pytest.raises(InvalidParameterError):
        build_arena(33)


def _dense(arena, down, up=0.0):
    """The matrix of sum_i (down_i a_i + up_i a_i^dag), column by column from basis kets."""
    return np.column_stack([ladder(arena, basis, down, up) for basis in np.eye(arena.dim)])


def _kron_generator(cutoff, strength):
    """The literal i*s*[Q1(P2+P3) + Q2(P1+P3) + Q3(P1+P2)] from dense single-mode Q and P."""
    lower = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)
    single_q = (lower + lower.T) / math.sqrt(2)
    single_p = (lower - lower.T) / (1j * math.sqrt(2))

    def embed(op, mode):
        factors = [eye, eye, eye]
        factors[mode] = op
        return np.kron(np.kron(factors[0], factors[1]), factors[2])

    q1, q2, q3 = (embed(single_q, mode) for mode in range(3))
    p1, p2, p3 = (embed(single_p, mode) for mode in range(3))
    return 1j * strength * (q1 @ (p2 + p3) + q2 @ (p1 + p3) + q3 @ (p1 + p2))


def test_lowering_operator_embedding():
    arena = build_arena(2)
    a1 = _dense(arena, (1, 0, 0))
    assert a1.shape == (8, 8)
    single = np.array([[0, 1], [0, 0]], dtype=complex)
    assert_allclose(a1, np.kron(np.kron(single, np.eye(2)), np.eye(2)), atol=0)
    assert_allclose(_dense(arena, (0, 0, 1)), np.kron(np.eye(4), single), atol=0)
    assert_allclose(_dense(arena, 0, (0, 1, 0)),
                    np.kron(np.kron(np.eye(2), single.T), np.eye(2)), atol=0)


def test_number_operator_spectrum():
    arena = build_arena(4)
    a1 = _dense(arena, (1, 0, 0))
    number = a1.conj().T @ a1
    values = np.sort(np.linalg.eigvalsh(number).round(12))
    expected = np.sort(np.repeat(np.arange(4), 16))
    assert_allclose(values, expected, atol=1e-10)
    ket = coherent_ket(arena, [0.5, 0.2j, 0])
    lowered = ladder(arena, ket, (1, 0, 0))
    mean_number = np.vdot(lowered, lowered).real
    assert np.vdot(ket, number @ ket).real == pytest.approx(
        mean_number, abs=1e-14
    )


def test_commutator_defect_confined_to_top_level():
    arena = build_arena(5)
    a1 = _dense(arena, (1, 0, 0))
    defect = (a1 @ a1.conj().T - a1.conj().T @ a1) - np.eye(arena.dim)
    # the defect only touches basis states with n1 = cutoff-1
    bad = np.argwhere(np.abs(defect) > 1e-12)
    assert len(bad) > 0
    for i, j in bad:
        assert i == j
        assert i // arena.cutoff**2 == arena.cutoff - 1


def test_quadratures_hermitian():
    arena = build_arena(4)
    for mode in np.eye(3):
        for down, up in ((mode, mode), (-1j * mode, 1j * mode)):  # sqrt(2) Q_i and sqrt(2) P_i
            dense = _dense(arena, down, up)
            assert_allclose(dense, dense.conj().T, atol=1e-14)
    assert_allclose(arena.parity_signs, arena.parity_signs.real, atol=0)


def test_pair_diagonals_are_the_literal_generator():
    # the three stored pair diagonals rebuild i*s*[Q1(P2+P3) + ...] entry for entry,
    # and its 1-norm is |s|(6c-9), the bound evolve's step count rests on
    for cutoff in (2, 3, 5):
        arena = build_arena(cutoff)
        generator = np.zeros((arena.dim, arena.dim))
        for off, w in arena.pairs:
            generator += np.diag(w, off) - np.diag(w, -off)
        literal = _kron_generator(cutoff, 0.7)
        assert_allclose(0.7 * generator, literal, atol=1e-14)
        norm1 = np.abs(literal).sum(axis=0).max()
        assert norm1 == pytest.approx(0.7 * (6 * cutoff - 9), rel=1e-14)


def test_zero_strength_unitary_is_identity(arena8):
    ket = coherent_ket(arena8, [0.3, -0.2j, 0.1])
    assert_allclose(evolve(arena8, 0.0, ket), ket, atol=1e-14)


def test_unitary_even_when_truncated(monkeypatch):
    # the truncated generator is still exactly anti-Hermitian, so the norm
    # is kept for any cutoff/strength; the norm cannot reveal truncation,
    # hence the boundary-mass guard (lifted here)
    from trisqueeze import fock as fock_module

    monkeypatch.setattr(fock_module, "BOUNDARY_MASS_LIMIT", 1.0)
    arena = build_arena(3)
    ket = coherent_ket(arena, [0.2, 0, 0])
    assert np.linalg.norm(evolve(arena, 2.5, ket)) == pytest.approx(np.linalg.norm(ket), abs=1e-12)


def test_evolve_guards():
    arena = build_arena(4)
    vac = coherent_ket(arena, [0, 0, 0])
    with pytest.raises(InvalidParameterError):
        evolve(arena, math.nan, vac)
    with pytest.raises(TruncationError, match="outermost Fock shell"):
        evolve(arena, 3.0, vac)
    evolve(arena, 0.2, vac)  # boundary mass 1.1e-3: below the limit
    # more Taylor steps than MAX_TAYLOR_STEPS; 8008/15 first, where ||K||_1 = 15 s = 8008 is just
    # past the cap, so that without it the test fails in 1001 steps, not millions
    for strength in (8008 / 15, 1e6, -1e300, 1e308):
        with pytest.raises(TruncationError, match="too large for the Fock oracle"):
            evolve(arena, strength, vac)


def test_evolve_matches_dense_exponential():
    from scipy.linalg import expm

    arena = build_arena(6)
    ket = coherent_ket(arena, [0.3, 0.2 + 0.1j, -0.25])
    assert_allclose(evolve(arena, -0.2, ket),
                    expm(_kron_generator(6, -0.2)) @ ket, atol=1e-13)


@pytest.mark.parametrize("strength", [1.5, -1.5])
def test_evolve_many_taylor_steps_matches_dense_exponential(monkeypatch, strength):
    from scipy.linalg import expm

    from trisqueeze import fock as fock_module

    monkeypatch.setattr(fock_module, "BOUNDARY_MASS_LIMIT", 1.0)
    assert math.ceil(abs(strength) * (6 * 6 - 9) / fock_module.TAYLOR_THETA) >= 3
    arena = build_arena(6)
    ket = coherent_ket(arena, [0.3, 0.2 + 0.1j, -0.25])
    assert_allclose(evolve(arena, strength, ket),
                    expm(_kron_generator(6, strength)) @ ket, atol=1e-12)


def test_evolve_matches_expm_multiply_at_cutoff_20():
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    from trisqueeze import FIG2_ALPHA

    cutoff, strength = 20, 0.5
    lower = sparse.diags(np.sqrt(np.arange(1.0, cutoff)), 1, format="csr")
    eye = sparse.identity(cutoff, format="csr")
    ops = [sparse.kron(sparse.kron(lower, eye), eye), sparse.kron(sparse.kron(eye, lower), eye),
           sparse.kron(eye, sparse.kron(eye, lower))]
    pair = lambda i, j: ops[i] @ ops[j] - ops[i].T @ ops[j].T
    generator = (strength * (pair(0, 1) + pair(0, 2) + pair(1, 2))).tocsr()
    arena = build_arena(cutoff)
    ket = coherent_ket(arena, FIG2_ALPHA)
    assert_allclose(evolve(arena, strength, ket),
                    expm_multiply(generator, ket), atol=1e-12)


def _evolve_reference(arena, strength, ket):
    """evolve's Taylor loop as first written: real pair weights, np.linalg.norm in the stopping test."""
    norm1 = abs(strength) * (6 * arena.cutoff - 9)
    steps = max(1, math.ceil(norm1 / TAYLOR_THETA))
    rho, scale = norm1 / steps, strength / steps
    moved = ket
    for _ in range(steps):
        term, total, k = moved, moved.copy(), 0
        while k + 1 <= rho or (np.linalg.norm(term) * rho
                               > (k + 1 - rho) * 2.0**-53 * np.linalg.norm(total)):
            k += 1
            applied = np.zeros_like(term)
            for off, w in arena.pairs:
                applied[:-off] += w * term[off:]
                applied[off:] -= w * term[:-off]
            term = applied * (scale / k)
            total += term
        moved = total
    return moved


@pytest.mark.parametrize("cutoff", [6, 10, 14, 20])
def test_evolve_is_bit_identical_to_the_reference_loop(monkeypatch, cutoff):
    # each term is the sum of six product rows, taken row by row from +0 in the reference's order
    # (a_i a_j, then -a_i^dag a_j^dag, pair by pair), and the norms skip numpy's dispatch: no bit
    # changes, signed zeros included, so each ket also takes the same number of Taylor terms.  A
    # sum from +0 is never -0, so no zero's sign tells the reference's subtractions from the
    # rows' negated weights.  The last ket is -0 from its middle amplitude up: one term at
    # strength 1e-10 turns the middle -0s to +0 only if each sum starts from +0, not from row 0
    from trisqueeze import FIG2_ALPHA
    from trisqueeze import fock as fock_module
    from trisqueeze.errata import _PROBE_ALPHA

    monkeypatch.setattr(fock_module, "BOUNDARY_MASS_LIMIT", 1.0)
    arena = build_arena(cutoff)
    vacuum = np.zeros(arena.dim)
    vacuum[0] = 1.0
    signed = vacuum.copy()
    signed[arena.dim // 2:] = -0.0
    for ket, strengths in ((coherent_ket(arena, FIG2_ALPHA), (0.2, -0.3, 0.7)),
                           (coherent_ket(arena, _PROBE_ALPHA), (0.2, -0.3, 0.7)),
                           (vacuum, (0.2, -0.3, 0.7)), (signed, (1e-10,))):
        for strength in strengths:
            got, expected = evolve(arena, strength, ket), _evolve_reference(arena, strength, ket)
            assert got.dtype == expected.dtype == ket.dtype
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("cutoff", [6, 10, 14])
def test_evolve_is_the_same_in_either_field(cutoff):
    # K is real, so a ket with no imaginary part is evolved in real arithmetic and i times it
    # in complex arithmetic: the two agree exactly, both come back complex, and neither
    # input is written to
    arena = build_arena(cutoff)
    for alpha in ((0, 0, 0), (0.3, -0.2, 0.25)):
        ket = coherent_ket(arena, alpha)
        for strength in (-0.3, 0.2):
            rotated = 1j * ket
            inputs = ket.copy(), rotated.copy()
            moved = evolve(arena, strength, ket)
            moved_rotated = evolve(arena, strength, rotated)
            assert moved.dtype == moved_rotated.dtype == complex
            assert np.array_equal(moved_rotated, 1j * moved)
            assert np.array_equal(ket, inputs[0]) and np.array_equal(rotated, inputs[1])


def test_coherent_ket_basics(arena14):
    vac = coherent_ket(arena14, [0, 0, 0])
    assert vac[0] == pytest.approx(1.0)
    assert np.linalg.norm(vac) == pytest.approx(1.0, abs=1e-12)

    ket = coherent_ket(arena14, [1, 0, 0])
    lowered = ladder(arena14, ket, (1, 0, 0))  # <n1> = |a1 ket|^2
    assert np.vdot(lowered, lowered).real == pytest.approx(1.0, abs=1e-6)
    assert abs(ket[0]) == pytest.approx(math.exp(-0.5), abs=1e-9)
    assert np.linalg.norm(ket) <= 1 + 1e-9


def test_coherent_tail_guard():
    arena = build_arena(8)
    with pytest.raises(TruncationError, match=r"^\|alpha\| = 2 too large for cutoff 8 \(limit 1.414\)$"):
        coherent_ket(arena, [2.0, 0, 0])


def test_vacuum_quadrature_variance(arena8):
    vac = coherent_ket(arena8, [0, 0, 0])
    assert moment_x3(arena8, vac, 2) == pytest.approx(0.25, abs=1e-12)
    assert moment_y3(arena8, vac, 2) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        moment_x3(arena8, vac, 3)


def test_squeezed_variances_match_closed_form(arena14):
    strength = 0.2
    ket = evolve(arena14, strength, coherent_ket(arena14, [0, 0, 0]))
    assert moment_x3(arena14, ket, 2) == pytest.approx(math.exp(-0.8) / 4, abs=1e-5)
    assert moment_y3(arena14, ket, 2) == pytest.approx(math.exp(0.8) / 4, abs=1e-5)
    assert moment_x3(arena14, ket, 4) == pytest.approx(3 / 16 * math.exp(-1.6), abs=1e-4)


def test_vacuum_amplitude_matches_normal_ordered_form(arena14):
    vac = coherent_ket(arena14, [0, 0, 0])
    for strength in (0.1, 0.2):
        prefactor, pair = normal_order_coefficients(strength)
        vacuum_amp = evolve(arena14, strength, vac)[0]
        assert vacuum_amp.real == pytest.approx(prefactor, abs=1e-6)
        assert abs(vacuum_amp.imag) < 1e-9


def test_parity_identities(arena14):
    vac = coherent_ket(arena14, [0, 0, 0])
    assert displaced_parity(arena14, vac, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    coh = coherent_ket(arena14, [0.5, 0, 0])
    assert displaced_parity(arena14, coh, [0, 0, 0]) == pytest.approx(
        math.exp(-2 * 0.25), abs=1e-9
    )

    ket = evolve(arena14, 0.2, coherent_ket(arena14, [0.2, 0.1j, 0]))
    value = displaced_parity(arena14, ket, [0.3, -0.2 + 0.1j, 0.15])
    assert -1 <= value <= 1


def test_parity_matches_dense_displacements(arena8):
    # each mode's D(beta)^dag from eigh equals the matrix exponential, and a batch of
    # triples gives the values of one call per triple
    from scipy.linalg import expm

    ket = evolve(arena8, 0.2, coherent_ket(arena8, [0.2, 0.1j, -0.1]))
    triples = np.array([[0.3, -0.2 + 0.1j, 0.15], [0.3, 0.1j, 0.15], [-0.2 + 0.1j, 0.3, 0]])
    lower = np.diag(np.sqrt(np.arange(1.0, 8)), 1)
    batch = displaced_parity(arena8, ket, triples)
    assert batch.shape == (3,)
    for triple, value in zip(triples, batch):
        moved = ket.reshape(8, 8, 8)
        for axis, beta in enumerate(triple):
            inverse = expm(np.conj(beta) * lower - beta * lower.T)
            moved = np.moveaxis(np.tensordot(inverse, moved, axes=(1, axis)), 0, axis)
        expected = float(arena8.parity_signs @ np.abs(moved.reshape(-1)) ** 2)
        assert value == pytest.approx(expected, abs=1e-14)
        assert displaced_parity(arena8, ket, triple) == value
    with pytest.raises(InvalidParameterError):
        displaced_parity(arena8, ket, [0.1, math.nan, 0])


def test_parity_tail_guard(arena8):
    vac = coherent_ket(arena8, [0, 0, 0])
    with pytest.raises(TruncationError):
        displaced_parity(arena8, vac, [2.0, 0, 0])
    with pytest.raises(TruncationError):  # |beta|^2 would overflow, and warn
        displaced_parity(arena8, vac, [1e200, 0, 0])


def test_mean_power_validation(arena8):
    vac = coherent_ket(arena8, [0, 0, 0])
    with pytest.raises(InvalidParameterError):
        mean_power(arena8, vac, 0)
    assert mean_power(arena8, vac, 1) == pytest.approx(0.0, abs=1e-12)


def test_convergence_report_variance():
    strength = 0.2

    def variance(cutoff):
        arena = build_arena(cutoff)
        ket = evolve(arena, strength, coherent_ket(arena, [0, 0, 0]))
        return moment_x3(arena, ket, 2)

    rows = convergence_report(variance, [6, 8, 10, 12])
    assert rows[0]["delta"] is None
    deltas = [abs(row["delta"]) for row in rows[1:]]
    assert deltas == sorted(deltas, reverse=True)
    assert all(row["shrinking"] for row in rows)
    assert rows[-1]["value"] == pytest.approx(math.exp(-0.8) / 4, abs=1e-6)


def test_convergence_report_vacuum_norm():
    def norm(cutoff):
        return np.linalg.norm(coherent_ket(build_arena(cutoff), [0, 0, 0]))

    rows = convergence_report(norm, [2, 4, 6])
    assert all(row["value"] == pytest.approx(1.0, abs=1e-12) for row in rows)


def test_convergence_report_compares_sizes_of_deltas():
    # deltas 1, -2 and 0.5: the second grew in size though it is smaller
    rows = convergence_report({2: 0.0, 3: 1.0, 4: -1.0, 5: -0.5}.get, [2, 3, 4, 5])
    assert [row["shrinking"] for row in rows] == [True, True, False, True]


def test_convergence_report_vacuum_amplitude():
    strength = 0.3

    def amplitude(cutoff):
        arena = build_arena(cutoff)
        return evolve(arena, strength, coherent_ket(arena, [0, 0, 0]))[0].real

    rows = convergence_report(amplitude, [10, 12, 14])
    assert abs(rows[-1]["delta"]) < 1e-5
    prefactor, _ = normal_order_coefficients(strength)
    assert rows[-1]["value"] == pytest.approx(prefactor, abs=1e-5)


def test_convergence_report_validation():
    with pytest.raises(InvalidParameterError):
        convergence_report(lambda c: 0.0, [8])
    with pytest.raises(InvalidParameterError):
        convergence_report(lambda c: 0.0, [8, 8])


def test_oracle_against_analytic_modules_sweep(arena14):
    # consolidated cross-validation: every analytic quantity against the
    # brute-force engine at small parameters
    from trisqueeze import (
        central_moment,
        displaced_parity,
        make_state,
        mean_power,
        mean_power_exact,
        wigner,
    )

    alpha = [0.0, 0.3, 0.5 * (1 + 1j) / math.sqrt(2)]
    for strength in (0.1, 0.2, 0.3):
        ket = evolve(arena14, strength, coherent_ket(arena14, alpha))
        state = make_state(strength, alpha)

        pairs = [
            (moment_x3(arena14, ket, 2), central_moment(state, x3_query(2))),
            (moment_y3(arena14, ket, 2), central_moment(state, y3_query(2))),
            (moment_x3(arena14, ket, 4), central_moment(state, x3_query(4))),
            (moment_y3(arena14, ket, 4), central_moment(state, y3_query(4))),
            (mean_power(arena14, ket, 1), mean_power_exact(1, alpha, strength)),
            (mean_power(arena14, ket, 2), mean_power_exact(2, alpha, strength)),
            (
                evolve(arena14, strength, coherent_ket(arena14, [0, 0, 0]))[0].real,
                normal_order_coefficients(strength)[0],
            ),
            (
                displaced_parity(arena14, ket, [0, 0, 0]),
                math.pi**3 * wigner(state, np.zeros(3), np.zeros(3)),
            ),
        ]
        for oracle_value, analytic_value in pairs:
            assert oracle_value == pytest.approx(analytic_value, rel=1e-4, abs=1e-6)
