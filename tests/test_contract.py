"""The parameter domain of ``errors.py`` at every public entry point that takes
a strength, coherent amplitudes or an integer: a strength is a real number,
checked before the amplitudes, from Python and from the CLI, and an order, a
power or a cutoff is an integer; points, settings and grids are numbers; one
value is answered as a Python float; one rule for every ket the Fock engine
reads; a source check that no module keeps its own copy of the overflow refusal;
one that every cache is one a benchmark pass pays for; a source check of the
public surface; and that importing the CLI loads every module the benchmark
tracer wraps."""

import ast
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import trisqueeze
from trisqueeze import (BellSetting, MomentQuery, b3, b3_oracle_check, build_arena,
                        central_moment, coherent_ket, convergence_report, displaced_parity,
                        evolve, fig1_scan, fig2_scan, fig2_setting, gm_pair, hos_x, hos_y,
                        make_state, mean_power, mean_power_exact, mean_power_paper, moment_x3,
                        pk, two_mode_baseline_variance, wigner)
from trisqueeze.bell import max_b3
from trisqueeze.cli import run
from trisqueeze.errors import InvalidParameterError, NumericError, check_strength
from trisqueeze.fock import ladder

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "trisqueeze"
ARENA = build_arena(6)
KET = coherent_ket(ARENA, (0.1, 0, 0))

# (name, the inputs it takes: s for a strength, a for amplitudes, call(strength, amplitudes))
ENTRY_POINTS = [
    ("make_state", "sa", lambda s, a: make_state(s, a)),
    ("pk", "sa", lambda s, a: pk(2, a, s)),
    ("gm_pair", "sa", lambda s, a: gm_pair(a, s)),
    ("mean_power_exact", "sa", lambda s, a: mean_power_exact(2, a, s)),
    ("mean_power_paper", "sa", lambda s, a: mean_power_paper(2, a, s)),
    ("hos_x", "s", lambda s, a: hos_x(s, 1)),
    # checks its own strength: the matrices helper under it takes a checked one
    ("two_mode_baseline_variance", "s", lambda s, a: two_mode_baseline_variance(s)),
    ("evolve", "s", lambda s, a: evolve(ARENA, s, KET)),
    # np.asarray(strengths, dtype=float) read max_b3([True]) and fig2_scan(["0.3"], ...) as floats
    ("fig2_scan", "s", lambda s, a: fig2_scan([s], [0.3])),
    ("max_b3", "s", lambda s, a: max_b3([s])),
    ("coherent_ket", "a", lambda s, a: coherent_ket(ARENA, a)),
    ("displaced_parity", "a", lambda s, a: displaced_parity(ARENA, KET, a)),
]
# what each entry point that takes amplitudes names as overflowing from a part above 7e307
OVERFLOWING = {"make_state": "coherent displacement", "pk": "P_2",
               "gm_pair": "closed-route amplitude pair", "mean_power_exact": "photon-number moment",
               "mean_power_paper": "photon-number moment", "coherent_ket": "coherent ket",
               "displaced_parity": "displaced parity"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, inputs, call", ENTRY_POINTS,
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_points_share_one_domain(name, inputs, call):
    inside = (0.1, 0.2j, 0)
    call(0.1, inside)
    if "s" in inputs:  # float() raised OverflowError on 10**400
        for bad, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                           (10**400, "inf"), (-10**400, "-inf")):
            with pytest.raises(InvalidParameterError, match=f"strength must be finite, got {shown}$"):
                call(bad, inside)
    for bad in (math.nan, math.inf, -math.inf):
        if "a" in inputs:
            for alpha in ((bad, 0, 0), (0, complex(0, bad), 0)):
                with pytest.raises(InvalidParameterError):
                    call(0.3, alpha)
    if "a" in inputs:
        # np.asarray(alpha, dtype=complex) read these as (1, 0, 0)
        for alpha in (("1", "0", "0"), (True, False, False)):
            with pytest.raises(InvalidParameterError, match="must be numbers"):
                call(0.3, alpha)
        # finite parts above 7e307; gm_pair answered (1e308, 0, 0) at s = 0.3
        amplitudes = "displacements" if name == "displaced_parity" else "coherent amplitudes"
        for alpha in ((1e308, 0, 0), (0, 0, -1e308j)):
            with pytest.raises(NumericError) as refusal:
                call(0.3, alpha)
            assert str(refusal.value) == \
                f"{OVERFLOWING[name]} overflows double precision: {amplitudes} above 7e307"
    if "s" in inputs:
        # float() took these: hos_x("0.3", 1) was 0.0753, make_state(True, ...) had strength 1
        for bad in (True, np.bool_(False), "0.3", 0.3 + 0j, None):
            with pytest.raises(InvalidParameterError, match="must be a real number"):
                call(bad, inside)
    if inputs == "sa":  # the strength is checked before the amplitudes
        with pytest.raises(InvalidParameterError, match="strength must be finite"):
            call(math.nan, (1.7e308, 0, 0))


def test_strength_is_a_python_or_numpy_real():
    for real in (2, np.int64(2), np.uint8(2), 2.0, np.float32(2), np.float64(2)):
        assert check_strength(real) == 2.0
    # the scans take an array of strengths; np.array(strengths, dtype=float) read [True] and
    # ["0.3"] as floats
    for scan in (lambda strengths: fig2_scan(strengths, [0.3]), max_b3):
        assert scan(np.arange(3))[0].tolist() == [0.0, 1.0, 2.0]
        for strengths in ([True], ["0.3"], [0.1, 0.3j], [0.1, None]):
            with pytest.raises(InvalidParameterError, match="must be a real number"):
                scan(strengths)


STATE = make_state(0.1, (0.1, 0, 0))
# (name, call(n), least and largest n) of every entry point that takes an order, a power or a
# cutoff; the range is None where the caller sets it.  The caps are errors.MAX_MOMENT_ORDER and
# errors.MAX_POWER
INTEGER_ENTRY_POINTS = [
    ("central_moment", lambda n: central_moment(STATE, MomentQuery(np.ones(6), n)), 2, 16),
    ("hos_x", lambda n: hos_x(0.3, n), 1, 8),
    ("hos_y", lambda n: hos_y(0.3, n), 1, 8),
    ("pk", lambda n: pk(n, (1, 0, 0), 0.3), 2, 6),
    ("mean_power_exact", lambda n: mean_power_exact(n, (1, 0, 0), 0.3), 1, 6),
    ("mean_power_paper", lambda n: mean_power_paper(n, (1, 0, 0), 0.3), 1, 6),
    ("fock.mean_power", lambda n: mean_power(ARENA, KET, n), 1, 6),
    ("moment_x3", lambda n: moment_x3(ARENA, KET, n), 2, 16),
    ("build_arena", lambda n: build_arena(n), 2, 32),
    ("convergence_report", lambda n: convergence_report(lambda cutoff: 0.0, [n, 3]), None, None),
]


@pytest.mark.parametrize("call", [entry[1] for entry in INTEGER_ENTRY_POINTS],
                         ids=[entry[0] for entry in INTEGER_ENTRY_POINTS])
def test_integer_parameters_share_one_type_rule(call):
    # int() truncated 2.5 and read True as 1, build_arena('8') and hos_x(0.3, 2.0) raised a
    # bare TypeError, and central_moment took the order "2"
    call(np.int64(2))
    for bad in (2.0, 2.5, True, np.bool_(True), "2"):
        with pytest.raises(InvalidParameterError, match="must be an integer, got"):
            call(bad)


@pytest.mark.parametrize("bad, got", [(np.arange(100), "int64 of shape (100,)"),
                                      (list(range(100)), "list of length 100")])
def test_a_refused_array_is_named_on_one_line(bad, got):
    # a strength or an order was quoted by its repr: hos_x(np.arange(100.), 1) raised an 8-line
    # message and pk(np.arange(100), ...) a 6-line one; a scalar keeps its repr (got '0.3' above)
    for name, inputs, call in ENTRY_POINTS:
        if inputs != "a" and name not in ("fig2_scan", "max_b3"):  # the scans take arrays
            with pytest.raises(InvalidParameterError) as refusal:
                call(bad, (0.1, 0.2j, 0))
            assert str(refusal.value) == f"squeezing strength must be a real number, got {got}"
    for _, call, *_ in INTEGER_ENTRY_POINTS:
        with pytest.raises(InvalidParameterError) as refusal:
            call(bad)
        assert "\n" not in str(refusal.value) and str(refusal.value).endswith(f" must be an integer, got {got}")


RANGED = [entry for entry in INTEGER_ENTRY_POINTS if entry[2] is not None]


@pytest.mark.parametrize("call, least, largest", [entry[1:] for entry in RANGED],
                         ids=[entry[0] for entry in RANGED])
def test_integer_parameters_are_refused_outside_their_range(call, least, largest):
    # hos_x(0.1, 0) answered 1.0, moment_x3 1e99 at order 200 and the ket's norm at order 0 (an
    # even order below 2), and fock.mean_power made one ladder pass per unit of k, so 10**30
    # never returned
    call(least)
    call(largest)
    for bad in (least - 2, least - 1, largest + 1, largest + 2, 10**30):  # an order must be even too
        with pytest.raises(InvalidParameterError):
            call(bad)


# (name, call) of malformed arrays that numpy refused with a bare ValueError or TypeError, or
# that central_moment took for an overflow or read as real numbers; np.asarray(..., dtype=float
# or complex) read the strings and bools of points, settings and grids as numbers (wigner gave
# 0.00199, b3 0.105, and both scans a row)
MALFORMED = [
    ("string and bool points", lambda: wigner(STATE, ["1", "0", "0"], [True, False, False])),
    ("string and bool settings", lambda: b3(STATE, BellSetting(("1", "0", "0"),
                                                               (True, False, False)))),
    ("string magnitude", lambda: fig2_setting("0.3")),
    ("string b grid", lambda: fig2_scan([0.3], ["0.3", "0.5"])),
    ("string and bool fig1 grids", lambda: fig1_scan(["1"], [True])),
    ("complex points", lambda: wigner(STATE, np.zeros(3), np.ones(3) * 1j)),
    ("ragged points", lambda: wigner(STATE, [[0, 0, 0], [0, 0]], [0, 0, 0])),
    ("ragged amplitudes", lambda: make_state(0.3, [[0, 0, 0], [0, 0]])),
    ("wigner leading axes", lambda: wigner(STATE, np.zeros((2, 3)), np.zeros((3, 3)))),
    ("b3 leading axes", lambda: b3(STATE, BellSetting(np.zeros((2, 3)), np.zeros((3, 3))))),
    ("make_state two triples", lambda: make_state(0.3, np.zeros((2, 3)))),
    # each of these got past a shape rule that no other row trips: pk answered P_2 of a pair,
    # b3 0.524 from one value broadcast to all three modes, and the others raised numpy's
    # ValueError, an IndexError or an AttributeError
    ("pk two amplitudes", lambda: pk(2, (1, 1), 0.2)),
    ("one and five point components", lambda: wigner(STATE, [0.1], [0.1] * 5)),
    ("one q component", lambda: wigner(STATE, [0.1], np.zeros(3))),
    ("one p component", lambda: wigner(STATE, np.zeros(3), [0.1])),
    ("one-mode settings", lambda: b3(make_state(0.2, (0, 0, 0)), BellSetting((0.3,), (0.1,)))),
    ("one-mode beta", lambda: b3(STATE, BellSetting((0.3,), (0.1, 0, 0)))),
    ("one-mode beta prime", lambda: b3(STATE, BellSetting((0.1, 0, 0), (0.3,)))),
    ("empty b grid", lambda: fig2_scan([0.1], [])),
    ("bool fig1 imaginary grid", lambda: fig1_scan([0.1], [True])),
    ("string fig1 real grid", lambda: fig1_scan(["1"], [0.0])),
    ("ragged strengths", lambda: fig2_scan([[0.1, 0.2], [0.3]], [0.3])),
    ("ragged max_b3 strengths", lambda: max_b3([[0.1, 0.2], [0.3]])),
    # np.asarray(strengths) read a bool among floats as 1.0
    ("bool among fig2 strengths", lambda: fig2_scan([0.1, True], [0.3])),
    ("bool among max_b3 strengths", lambda: max_b3([0.1, True])),
    ("coherent_ket two triples", lambda: coherent_ket(ARENA, np.zeros((2, 3)))),
    ("five coefficients", lambda: central_moment(STATE, MomentQuery(np.ones(5), 2))),
    ("string coefficients", lambda: central_moment(STATE, MomentQuery(["x"] * 6, 2))),
    ("numeric string coefficients", lambda: central_moment(STATE, MomentQuery(["1"] * 6, 2))),
    ("bool coefficients", lambda: central_moment(STATE, MomentQuery([True] * 6, 2))),
    ("complex coefficients", lambda: central_moment(STATE, MomentQuery(np.ones(6) * (1 + 1j), 2))),
    ("nan coefficients", lambda: central_moment(make_state(0.3, (0, 0, 0)),
                                                MomentQuery([math.nan] * 6, 2))),
    ("infinite coefficient", lambda: central_moment(STATE, MomentQuery([math.inf] + [0] * 5, 2))),
    # ladder raised numpy's ValueError on two coefficients and UFuncTypeError on a string, and
    # answered a NaN vector for a NaN coefficient
    ("two ladder coefficients", lambda: ladder(ARENA, KET, [1, 2])),
    ("string ladder coefficient", lambda: ladder(ARENA, KET, "a")),
    ("nan ladder coefficient", lambda: ladder(ARENA, KET, math.nan)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [entry[1] for entry in MALFORMED],
                         ids=[entry[0] for entry in MALFORMED])
def test_malformed_arrays_are_invalid_parameters(call):
    with pytest.raises(InvalidParameterError):
        call()


# (name, call(ket)) of every function that reads a ket
KET_READERS = [
    ("evolve", lambda ket: evolve(ARENA, 0.1, ket)),
    ("ladder", lambda ket: ladder(ARENA, ket, 1.0)),
    ("moment_x3", lambda ket: moment_x3(ARENA, ket, 2)),
    ("fock.mean_power", lambda ket: mean_power(ARENA, ket, 2)),
    ("displaced_parity", lambda ket: displaced_parity(ARENA, ket, (0.1, 0, 0))),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [entry[1] for entry in KET_READERS],
                         ids=[entry[0] for entry in KET_READERS])
def test_kets_share_one_rule(call):
    # a wrong-length ket raised numpy's ValueError, an int ket UFuncTypeError in evolve, a list
    # was answered by mean_power and raised AttributeError in evolve, and displaced_parity
    # answered a (6, 36) array; evolve's term buffer would have taken a length-1 ket broadcast
    call(KET)
    call(KET.real)  # float64, and strided
    for bad, got in ((KET[:-1], "complex128 of shape (215,)"),
                     (KET[:1], "complex128 of shape (1,)"),
                     (KET.reshape(6, 36), "complex128 of shape (6, 36)"),
                     (np.ones(216, np.int64), "int64 of shape (216,)"),
                     (KET.astype(np.complex64), "complex64 of shape (216,)"),
                     (list(KET), "list"), (None, "NoneType")):
        with pytest.raises(InvalidParameterError) as refusal:
            call(bad)
        assert str(refusal.value) == \
            f"ket must be a 1-D float64 or complex128 array of 216 amplitudes, got {got}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [entry[1] for entry in KET_READERS if entry[0] != "ladder"],
                         ids=[entry[0] for entry in KET_READERS if entry[0] != "ladder"])
def test_kets_that_cannot_be_normalised_are_refused(call):
    # each answered NaN, or met numpy's RuntimeWarning from 0 * inf or 0 / 0 on the way
    for value, ket in ((math.nan, KET), (math.inf, KET), (math.nan, KET.real), (-math.inf, KET.real)):
        bad = ket.copy()
        bad[7] = value
        with pytest.raises(InvalidParameterError, match="^ket must be finite and nonzero"):
            call(bad)
    for dtype in (complex, float):
        with pytest.raises(InvalidParameterError, match=r"got squared norm 0$"):
            call(np.zeros(216, dtype))
    assert not ladder(ARENA, np.zeros(216), 1.0).any()  # a zero vector is ladder's to answer


def test_finite_coefficients_that_overflow_stay_numeric_errors():
    with pytest.raises(NumericError, match="moment overflows double precision"):
        central_moment(STATE, MomentQuery([1e200] * 6, 4))


# (name, call) of every public function that answers a number, with its values for one input:
# each is a Python float, as the docstrings say, not np.float64, whose repr differs under numpy 2;
# gm_pair's (G, M) are Python complex numbers, not np.complex128
FLOAT_RESULTS = [
    ("wigner", lambda: [wigner(STATE, np.zeros(3), np.zeros(3))]),
    ("b3", lambda: [b3(STATE, fig2_setting(0.3))]),
    ("b3_oracle_check", lambda: b3_oracle_check(0.1, (0.1, 0, 0), fig2_setting(0.3), 6)),
    ("central_moment", lambda: [central_moment(STATE, MomentQuery(np.ones(6), 2))]),
    ("central_moment of a numpy order",
     lambda: [central_moment(STATE, MomentQuery(np.ones(6), np.int64(4)))]),
    ("hos_x", lambda: [hos_x(0.3, 2)]),
    ("hos_y", lambda: [hos_y(0.3, 2)]),
    ("two_mode_baseline_variance", lambda: two_mode_baseline_variance(0.3)),
    ("gm_pair", lambda: list(gm_pair((1, 0, 0), 0.3))),
    ("mean_power_paper", lambda: [mean_power_paper(2, (1, 0, 0), 0.3)]),
    ("mean_power_exact", lambda: [mean_power_exact(2, (1, 0, 0), 0.3)]),
    ("pk", lambda: [getattr(pk(2, (1, 0, 0), 0.3), name)
                    for name in ("paper_value", "exact_value", "discrepancy", "value")]),
    ("moment_x3", lambda: [moment_x3(ARENA, KET, 2)]),
    ("fock.mean_power", lambda: [mean_power(ARENA, KET, 2)]),
    ("displaced_parity", lambda: [displaced_parity(ARENA, KET, (0.1, 0, 0))]),
]


@pytest.mark.parametrize("name, call", FLOAT_RESULTS, ids=[entry[0] for entry in FLOAT_RESULTS])
def test_one_value_is_a_python_float(name, call):
    values = call()
    kind = complex if name == "gm_pair" else float
    assert values and [type(value) for value in values] == [kind] * len(values)


@pytest.mark.parametrize("call, width", [
    (lambda: fig1_scan([0.1, 0.2], [0.0]), 4),
    (lambda: fig2_scan([0.1, 0.2], [0.1, 0.2]), 3),
    (lambda: max_b3([0.1, -0.2]), 4),
], ids=["fig1_scan", "fig2_scan", "max_b3"])
def test_scan_returns_float64_columns(call, width):
    # a scan hands back one float64 array per column, an entry per grid point or strength
    columns = call()
    assert [(type(column), column.dtype, column.shape) for column in columns] \
        == [(np.ndarray, np.float64, (2,))] * width


def test_fig2_setting_holds_complex_amplitudes():
    # BellSetting's six amplitudes are complex, for one b as for an array of them
    single, batch = fig2_setting(0.3), fig2_setting([0.3, 0.4])
    assert [type(value) for value in single.beta + single.beta_prime] == [np.complex128] * 6
    assert batch.beta.dtype == batch.beta_prime.dtype == np.complex128


@pytest.mark.parametrize("argv", [
    ["wigner", "--lambda", "nan", "--alpha", "1.7e308,0,0"],
    ["bell", "--lambda", "nan", "--alpha", "1.7e308,0,0"],
    ["oracle-check", "--lambda", "nan", "--alpha", "1.7e308,0,0"],
    ["oracle-check", "--quantity", "b3", "--lambda", "nan", "--alpha", "1.7e308,0,0"],
    ["pk", "--lambda", "nan", "--alpha", "1.7e308,0,0"],
])
def test_strength_is_refused_before_amplitudes(argv, capsys):
    # all but pk exited 3 on the amplitudes, which were read first
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: squeezing strength must be finite, got nan\n")


def _sites(path: Path) -> set:
    # (construct, module.function) of every `except OverflowError` and `np.errstate`,
    # named by the innermost function around it
    module, sites = path.stem, set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "OverflowError" in ast.unparse(node.type):
            sites.add(("except OverflowError", f"{module}.{owner}"))
        if isinstance(node, ast.Attribute) and node.attr == "errstate":
            sites.add(("np.errstate", f"{module}.{owner}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_overflow_refusal_has_one_owner():
    # errors.refuse_overflow is the refusal; _exponentials guards math.exp on every query
    # without numpy, and the lazy point checks of wigner, b3 and fig2_scan cost nothing
    # until an exponent is not finite.  check_strength refuses an input, not a result: an int
    # that float() cannot hold is a strength that is not finite
    sites = set().union(*(_sites(path) for path in SRC.glob("*.py")))
    assert sites == {
        ("except OverflowError", "errors.check_strength"),
        ("except OverflowError", "matrices._exponentials"),
        ("np.errstate", "errors.refuse_overflow"),
        ("np.errstate", "gaussian.wigner"),
        ("np.errstate", "bell.b3"),
        ("np.errstate", "bell.fig2_scan"),
    }


def test_every_cache_is_paid_for_end_to_end():
    # a cache stays where a benchmark pass pays for it, each site saying what it saves:
    # photon._wick_table, 40-45 us per build in each of the point pass's 800 pk calls, and
    # cli._command_parser, whose cold build costs about 0.4 ms: an oracle pass parses
    # oracle-check twice, the second time in 0.13 ms against 0.50 ms rebuilt (medians of 21
    # fresh interpreters, one core).  No pass builds the top-level parser, which is not cached.  The
    # printed route's coefficient cache saved about 3 ms of a point pass of about 183 ms, under
    # that pass's spread, and went: a cache that only a per-call timing keeps does not return
    names = {"cache", "lru_cache", "cached_property"}
    named = lambda node: node.name if isinstance(node, ast.alias) else \
        getattr(node, "attr", getattr(node, "id", None))
    sites, uses = set(), 0
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            uses += named(node) in names
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                sites |= {f"{path.stem}.{node.name}" for decorator in node.decorator_list
                          if named(decorator) in names}
    assert sites == {"photon._wick_table", "cli._command_parser"}
    assert uses == len(sites)  # no cache is imported, called or decorated any other way


# Names that no other module calls but that stay in src/: each states a result of the
# paper, is the oracle a later closed form is checked against, or is what the perfbench
# point workload calls
KEEP = {
    "bell.max_b3",  # the largest B(3) over symmetric settings, in closed form
    "gaussian.two_mode_baseline_variance",  # the two-mode benchmark of the enhancement claim
    "photon.mean_power_paper",  # the published photon-moment formula, taken verbatim
    "fock.mean_power",  # the Fock oracle of the photon route
    "gaussian.MomentQuery", "gaussian.central_moment", "bell.BellSetting",  # the point workload
}
LAYERS = ("bell", "errors", "fock", "gaussian", "photon")  # the modules the package exports


def _exports(tree, name: str = "__all__") -> list:
    # the literal __all__ (or other top-level ``name``) of a module, or [] without one
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    return []


def _references(tree, skip=None) -> set:
    # every name the code of a module reads, as a name, an attribute or an import, leaving
    # out the top-level definition named ``skip``
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def test_cli_import_loads_every_traced_layer():
    # perfbench's tracer reads each module of its LAYERS from sys.modules after importing the
    # CLI, so a layer that the CLI stops loading fails the traced benchmark with a KeyError
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = _exports(tracer, "LAYERS")
    assert traced
    probe = "import sys, trisqueeze.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert {f"trisqueeze.{layer}" for layer in traced} - set(loaded.stdout.split()) == set()


def test_each_public_name_is_written_once_and_serves_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py") if path.stem != "__init__"}
    perfbench = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                              for path in (ROOT / "perfbench").glob("*.py")))
    others = {module: perfbench.union(*(_references(tree) for name, tree in trees.items()
                                        if name != module)) for module in trees}
    unreached = {f"{module}.{name}" for module, tree in trees.items() for name in _exports(tree)
                 if name not in others[module] | _references(tree, skip=name)}
    assert unreached - KEEP == set()
    assert KEEP <= {f"{module}.{name}" for module, tree in trees.items() for name in _exports(tree)}
    lists = [_exports(trees[layer]) for layer in LAYERS]
    assert Counter(trisqueeze.__all__) == Counter(name for names in lists for name in names)
    assert len(set(trisqueeze.__all__)) == len(trisqueeze.__all__)
