import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import normal_order_coefficients
from trisqueeze import b3_oracle_check, cli, fig2_setting, make_state, wigner
from trisqueeze.cli import _parse_complex_triple, _parse_range, _table, run
from trisqueeze.errors import InvalidParameterError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def test_range_parsing_inclusive_ends():
    grid = _parse_range("-1:0.05:1")
    assert grid.size == 41
    assert grid[0] == pytest.approx(-1.0)
    assert grid[-1] == pytest.approx(1.0)
    assert_allclose(np.diff(grid), 0.05, rtol=1e-12)
    single = _parse_range("0.3:1:0.3")
    assert single.size == 1
    assert _parse_range("0:1:999").size == 1000  # the largest range accepted


def test_range_parsing_errors():
    # the last four ask for more points than a grid may hold
    for bad in ("1:0.1", "0:-0.1:1", "1:0.1:0", "a:b:c", "0.01:1e-300:2", "0:1e-9:1",
                "-1e308:1:1e308", "0:1:1000"):
        with pytest.raises(InvalidParameterError):
            _parse_range(bad)
    # without their own refusal these read as ranges of more than 1000 points
    for bad in ("nan:1:2", "0:nan:1", "0:1:inf", "-inf:1:0"):
        with pytest.raises(InvalidParameterError, match="range bounds and step must be finite"):
            _parse_range(bad)


def test_complex_triple_parsing(capsys):
    values = _parse_complex_triple("1, 0.5+0.25j, -2j")
    assert values[1] == pytest.approx(0.5 + 0.25j)
    # complex() refuses "1 + 2j"; the spaces inside a value are dropped first
    assert run(["pk", "--lambda", "0.3", "--alpha", "1 + 2j,0,0"]) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(InvalidParameterError):
        _parse_complex_triple("1,2")
    with pytest.raises(InvalidParameterError):
        _parse_complex_triple("1,2,x")


def test_moments_csv(capsys):
    assert run(["moments", "--lambda", "0.2", "--m-max", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,hos_x,hos_y,product"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(math.exp(-0.8) / 4, rel=1e-11)
    assert float(first[3]) == pytest.approx(1 / 16, rel=1e-11)


def test_pk_json(capsys):
    assert run(["pk", "--k", "2", "--lambda", "0.3", "--alpha", "0,0,0",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["exact_value"] == pytest.approx(1 + 1 / math.tanh(0.6) ** 2)


def test_pk_answers_tiny_coherent_amplitudes(capsys):
    # |alpha|^4 underflows, so the ratio <A^dag^2 A^2>/<A^dag A>^2 cannot be
    # formed as written; P_2 of a coherent state is exactly 0.  A subnormal
    # amplitude sum puts 1/<A^dag A>^(1/2) past the double range
    for alpha in ("1e-160,0,0", "1e-320,1e-320j,0"):
        assert run(["pk", "--lambda", "0", "--alpha", alpha, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)[0]["exact_value"] == pytest.approx(0.0, abs=1e-12)


def test_fig1_csv_file(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--re=-0.2:0.2:0.2", "--im", "0:0.5:0.5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "re_alpha3,im_alpha3,p2_paper,p2_exact"
    assert len(lines) == 1 + 3 * 2


def test_wigner_point(capsys):
    assert run(["wigner", "--lambda", "0", "--alpha", "0,0,0",
                "--q", "0,0,0", "--p", "0,0,0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert float(lines[1].split(",")[-1]) == pytest.approx(1 / math.pi**3, rel=1e-11)


def test_wigner_slice(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["wigner", "--lambda", "0.2", "--q1=-1:0.5:1", "--p1", "0:1:0",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "q1,p1,w"
    assert len(lines) == 1 + 5


@pytest.mark.parametrize("argv, first_column", [
    # 0.3/0.1 is 2.9999999999999996: the end point is kept within 1e-12
    (["fig1", "--re", "0:0.1:0.3", "--im", "0:1:0"], ["0", "0.1", "0.2", "0.3"]),
    # a slice along p1 alone, at q1 = 0
    (["wigner", "--lambda", "0.2", "--p1=-1:1:1"], ["0", "0", "0"]),
])
def test_grids_print_one_row_per_point(argv, first_column, capsys):
    assert run(argv) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.split("\n")[1:-1]] == first_column


def test_wigner_slice_equals_point_values(tmp_path):
    # the slice is one batched call; each row must print the value of a
    # single-point call, rows ordered q1 outer and p1 inner
    out = tmp_path / "w.csv"
    assert run(["wigner", "--lambda", "0.3", "--alpha", "0.2+0.1j,0,-0.3",
                "--q", "0.1,-0.2,0.3", "--p", "0,0.4,-0.1",
                "--q1=-1:0.25:1", "--p1=-0.5:0.5:0.5", "--out", str(out)]) == 0
    state = make_state(0.3, [0.2 + 0.1j, 0, -0.3])
    expected = ["q1,p1,w"]
    for qv in _parse_range("-1:0.25:1"):
        for pv in _parse_range("-0.5:0.5:0.5"):
            value = wigner(state, [qv, -0.2, 0.3], [pv, 0.4, -0.1])
            expected.append(",".join(f"{v:.12g}" for v in (qv, pv, value)))
    assert out.read_text().split("\n") == expected + [""]


def _per_cell_csv(header, rows):
    # the writer's rule, one cell at a time: 12 significant digits for a float
    return "".join(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [header, *rows])


def _columns(rows):
    # the writer takes a table's columns: its rows transposed
    return list(zip(*rows))


def test_csv_writer_matches_per_cell_rule():
    header = ("a", "b", "c", "d")
    rows = [
        (8, 0.5, "", True),  # oracle-check's first delta is "", later ones floats
        (10, np.float64(0.1) + 0.2, 0.1 + 0.2, False),
        (np.int64(12), -0.0, np.float64(-0.0), np.bool_(True)),
        ("exact", 5e-324, 1e16, 123456789012.5),
        [math.inf, -math.inf, math.nan, np.float64(math.nan)],
        (np.float64(1e16), np.float64(123456789012.5), 7, "x"),
    ]
    assert _table(header, _columns(rows), "csv") == _per_cell_csv(header, rows)
    assert _table(header, _columns(rows), "csv").split("\n")[1:3] == ["8,0.5,,True", "10,0.3,0.3,False"]
    floats = np.random.default_rng(1).standard_normal((1200, 3)) * 10.0 ** np.arange(-4, 8, 4)
    for header, rows in [
        (("x", "y", "w"), floats.tolist()),
        # float and np.float64 in one column, in both orders
        (("x", "y"), [(v, np.float64(w)) if i % 3 else (np.float64(v), w)
                      for i, (v, w, _) in enumerate(floats[:40].tolist())]),
        # "" in the first row only (oracle-check's delta), and in the last row only
        (("cutoff", "delta", "last"), [(8, "", 0.25), (10, 1e-3, np.float64(2 / 3)),
                                        (12, np.float64(1e-7), "")]),
        (("flag", "count"), [(True, 1), (np.bool_(False), np.int64(-2)), (False, 10**20)]),
        (("a", "b", "c"), []),
    ]:
        assert _table(header, _columns(rows), "csv") == _per_cell_csv(header, rows)


def test_csv_writer_float_bits():
    # 300 float64 bit patterns from a fixed seed, as a float and as np.float64
    bits = np.random.default_rng(0).integers(0, 2**64, 300, dtype=np.uint64)
    header = ("x", "y", "z", "w")
    for value in bits.view(np.float64).tolist():
        rows = [(value, np.float64(value), "", value)]
        assert _table(header, _columns(rows), "csv") == _per_cell_csv(header, rows)
    # a float column is formatted once per distinct bit pattern: values that compare equal
    # but differ in bits (0.0 and -0.0, two NaN payloads) keep their own text, and repeats
    # share one; each column given as a list and as a float64 array
    payloads = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
    for column in ([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0], [0.1 + 0.2, 0.3, 0.1 + 0.2, 0.3, 0.3],
                   [2.5, 2.5, 2.5], payloads.tolist() + [math.nan, payloads[0]],
                   [math.inf, -math.inf, -math.inf, 1.0, math.inf]):
        expected = _per_cell_csv(("x",), [(value,) for value in column])
        assert _table(("x",), [column], "csv") == expected
        assert _table(("x",), [np.array(column, dtype=np.float64)], "csv") == expected
    assert _table(("x",), [np.array([0.0, -0.0, -0.0, 0.0])], "csv") == "x\n0\n-0\n-0\n0\n"


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "82dc390f600816cb2e887485a23a908c7a28b4eeea027fc1eb05d63b06dd30e8"),
    ("json", "ff0365a3f08142613680de94faba604020e7c3a62be9ae29361637818fb4fbed"),
])
def test_wigner_slice_bytes_are_pinned(fmt, digest, capsys):
    # the 3721-point slice that the benchmark runs, hashed from the output of
    # the per-cell writer; any changed byte must be deliberate
    assert run(["wigner", "--lambda", "0.2", "--q1=-3:0.1:3", "--p1=-3:0.1:3",
                "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["moments", "--lambda", "0.2"], "5b2b76d6612b538f650526fa78885640f13b5f745d5a4955932ab63dd129a70a"),
    (["pk", "--lambda", "0.3"], "8e56a1edbf3016a7065fff60a2ba1ccf49708fba22f5d4e8ee008a7d427c900c"),
    (["pk", "--lambda", "0"], "62b3b2b9ceedf58e072602314b894bd1383d5914fc7ab7045aa53929a169eea8"),
    (["bell", "--lambda", "0.5", "--beta", "0,0,-0.3", "--beta-prime", "0.3,0.3,0"],
     "56c5a6452d0f691ffbfa167e599decc1a2e1991f5cfd1c0ff8506801a830d09f"),
    (["wigner", "--lambda", "0.3", "--alpha", "0.2+0.1j,0,-0.3", "--q", "0.1,-0.2,0.3",
      "--p", "0,0.4,-0.1"], "208a39e6ed5d08ea36b9ce80784d076aba6cdb2beac2aa42a9f03d0125182591"),
    (["oracle-check"], "2e134b3bf2a2f139c3b96a983719065fd764ad6739fa8f4f2a878117964d285f"),
    (["fig1", "--re=-0.2:0.2:0.2", "--im", "0:0.5:0.5"],
     "b33c0f42f6771f444f88edd45877c488e64dac2fa13fc2c15d4767907a6a7197"),
    (["fig2", "--lambda", "0:0.5:1", "--b", "0.05:0.05:0.5"],
     "78b29f4c8d3261189de09b520bc427df8a721070aedeca4c38c6f2f9b2c4a81a"),
    (["errata"], "81fbf13ab5e06f27eb04a4faaa22d1abe08c29ec6a640534f818937b9d6b0167"),
    (["oracle-check", "--quantity", "b3", "--lambda", "0.2", "--b", "0.3", "--cutoffs", "6,8,10"],
     "428560baadc3091872f06b22f8162cb477aafafa110799ab370769ab9f6ce241"),
    (["oracle-check", "--quantity", "parity", "--lambda", "0.2", "--alpha", "0.3,0.2,-0.25",
      "--cutoffs", "6,8"], "cb109da450a8acc99ff4383ff2412c84221b12b283f565437b625b94edc0c098"),
    (["oracle-check", "--quantity", "vacuum-amp", "--cutoffs", "6,8,10"],
     "aef160a5359e973f7517e1db8c04e29dbcf18306cb99ae97368caaf7ddece211"),
    # a complex ket: <X3> is real, and its rounding residue in the imaginary part moves the last bits
    (["oracle-check", "--lambda", "0.2", "--alpha", "0.3j,0.1,0", "--cutoffs", "6,8"],
     "ac20299f8a4ab1e54e3ce00f0e291512e468cc96210fea7ec059d6f1a28d69b1"),
    (["oracle-check", "--quantity", "vacuum-amp", "--alpha", "0.3,0.2,-0.25", "--cutoffs", "6,8,10"],
     "8406f9b6a4c77bc4eaf0f40b483f014bbfe47c79da06cfaeffe1baa81e07489f"),
])
def test_json_bytes_are_pinned(argv, digest, capsys):
    # json.dumps writes every cell as it is (np.float64 through float.__repr__);
    # the digests are of the output of the writer that converted cells first
    assert run([*argv, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_default_scan_matches_golden_file(command, tmp_path):
    # tests/data holds the default-grid output captured before the scans
    # were batched; any change in a printed digit must be deliberate
    out = tmp_path / f"{command}.csv"
    assert run([command, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{command}_default.csv").read_bytes()


def test_bell_value(capsys):
    assert run(["bell", "--lambda", "0", "--alpha", "0,0,0",
                "--beta", "0,0,0", "--beta-prime", "0,0,0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0, rel=1e-11)


def test_fig2_csv(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run(["fig2", "--lambda", "0:0.5:1", "--b", "0.05:0.05:0.5",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,b_star,b3_max"
    assert len(lines) == 4


def test_oracle_check_table(capsys):
    assert run(["oracle-check", "--quantity", "var-x3", "--lambda", "0.2",
                "--cutoffs", "4,6,8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "cutoff,value,delta,shrinking"
    assert len(lines) == 4
    assert float(lines[-1].split(",")[1]) == pytest.approx(math.exp(-0.8) / 4, abs=1e-3)


@pytest.mark.parametrize("strength", [0.2, -0.3])
def test_oracle_vacuum_amplitude_reads_alpha(strength, capsys):
    # |<0|U(s)|alpha>| = A e^{-|alpha|^2/2} |exp(alpha^T P alpha/2)|: <0|U(s) is the bra of
    # U(-s)|0> = A exp(a^dag^T P a^dag/2)|0>, (A, P) the normal-ordered form at -s
    alpha = np.array([0.3 + 0.1j, 0.2 - 0.2j, -0.25 + 0.05j])
    assert run(["oracle-check", "--quantity", "vacuum-amp", f"--lambda={strength}",
                "--alpha", "0.3+0.1j,0.2-0.2j,-0.25+0.05j", "--cutoffs", "14,16",
                "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)[-1]["value"]
    prefactor, pair = normal_order_coefficients(-strength)
    closed = prefactor * math.exp(-np.vdot(alpha, alpha).real / 2) * abs(np.exp(alpha @ pair @ alpha / 2))
    assert value == pytest.approx(closed, rel=1e-14)


def test_oracle_b3_reads_alpha(capsys):
    # the b3 quantity is B(3) of the Fock parity at the --alpha ket, which no test told apart
    # from the vacuum's, at the default b = 0.3, which no test ran
    alpha = (0.3 + 0.1j, -0.2, 0.25j)
    assert run(["oracle-check", "--quantity", "b3", "--lambda", "0.2",
                "--alpha", "0.3+0.1j,-0.2,0.25j", "--cutoffs", "10,12", "--format", "json"]) == 0
    values = [row["value"] for row in json.loads(capsys.readouterr().out)]
    assert values == [b3_oracle_check(0.2, alpha, fig2_setting(0.3), cut)[1] for cut in (10, 12)]
    assert values[-1] != pytest.approx(b3_oracle_check(0.2, (0, 0, 0), fig2_setting(0.3), 12)[1],
                                       abs=1e-3)


def test_gnuplot_script_emission(tmp_path, monkeypatch, capsys):
    # the script plots column 3 of the --out table against column 1
    out = tmp_path / "table.csv"
    script = tmp_path / "plot.gp"
    for argv, title in (
        (["fig2", "--lambda", "0:1:1", "--b", "0.1:0.1:0.3"], "max B(3) vs strength"),
        (["fig1", "--re=-0.2:0.2:0.2", "--im", "0:0.5:0.5"], "P2 along Re(alpha3)"),
        (["wigner", "--lambda", "0.2", "--q1=-1:0.5:1"], "Wigner slice"),
    ):
        assert run([*argv, "--out", str(out), "--gnuplot", str(script)]) == 0
        assert capsys.readouterr() == ("", "") and out.read_text().count("\n") > 1
        assert script.read_text() == (f"set datafile separator ','\nset title '{title}'\n"
                                      f"plot '{out}' every ::1 using 1:3 with lines\n")
    # gnuplot writes ' as '' inside a single-quoted string; plot 'it's.csv' did not parse
    monkeypatch.chdir(tmp_path)
    assert run(["fig1", "--re", "0:1:0", "--im", "0:1:0", "--out", "it's.csv", "--gnuplot", "p.gp"]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "p.gp").read_text() == ("set datafile separator ','\n"
                                               "set title 'P2 along Re(alpha3)'\n"
                                               "plot 'it''s.csv' every ::1 using 1:3 with lines\n")


def test_invalid_arguments_exit_code(capsys):
    assert run(["moments", "--lambda", "0.2", "--m-max", "4", "--format", "xml"]) == 2
    assert run(["fig1", "--re", "1:0.1:0", "--im", "0:1:0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("split, joined", [
    (["fig1", "--re", "-1:0.05:1"], ["fig1", "--re=-1:0.05:1"]),
    (["pk", "--lambda", "-1e-3"], ["pk", "--lambda=-1e-3"]),
    (["bell", "--lambda", "0.3", "--beta", "-0.5j,0,0"],
     ["bell", "--lambda", "0.3", "--beta=-0.5j,0,0"]),
])
def test_values_starting_with_a_dash(split, joined, capsys):
    # argparse alone reads these values as option names and exits 2
    assert run(joined) == 0
    expected = capsys.readouterr()
    assert run(split) == 0
    assert capsys.readouterr() == expected
    assert expected.out and expected.err == ""


@pytest.mark.parametrize("argv", [["pk"], ["fig1", "--bogus"]])
def test_argument_errors_are_one_line(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert run(["pk", "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: trisqueeze pk") and captured.err == ""


@pytest.mark.parametrize("argv, digest", [
    (["-h"], "f967ff6333de4d259bec40e47e8f158408a25c3c513e70bfbbf0a814b68b0ec6"),
    ([], "b62e183d0d8e71e7190b8ff79a3fe999fe706df14d5d8736e992db57b8957535"),
    (["nosuch"], "b65713eb61a414953e77c2b59a037105d0c7e68c977d998482b2c9fb34f4781a"),
    (["-1"], "5dabee6d0f82c988118b9e77b8492101522eb5dbb83a867fb5fff9a025eae66b"),
    (["--bogus", "fig2"], "6d6bde913df32adef04815fd5e3df0eef1bca974e3d4533da4e22fde8b6d2dce"),
    # a command name given as the value of another command's option
    (["fig1", "--re", "fig2"], "686894381854fcf36bdbd657ad5d0431616ea1b52e76c762a5904db9bdf7d7c1"),
    (["moments", "-h"], "066d29fd915e5079dd362d762c0fb1293a755e2ddb5c1deeb0297c8bd1ec01c2"),
    (["pk", "-h"], "5a40c200333a52354c039412e7ecf36ea3c7dabf60c4bd79a1e43cdf74f19968"),
    (["fig1", "-h"], "834b83669a1af320b46392701f94b2ba487d69be0695b204d7628b7f491c8f38"),
    (["wigner", "-h"], "92383b774b2cbfd853542a9b50cde0d375f3c8d5f269b55b99efadc42dca5f15"),
    (["bell", "-h"], "97b61cab0b0c16046ac40957a4031470d93308f65c97fdfb67ea8a099aa3a1f8"),
    (["fig2", "-h"], "1ef9a45299b4d7aef9e4eb28c0660adc8959a25e2785b7ebee8ba0871ede214b"),
    (["oracle-check", "-h"], "4200dac3b86568994a5baf7c75e20a4132646d746b277895305f637c4a8af34c"),
    (["errata", "-h"], "4ff33290248ea174a88b3ae5d934504ec89a05b49f69bc7c8d07779b5f46d1d5"),
])
def test_help_and_usage_bytes_are_pinned(argv, digest, monkeypatch, capsys):
    # (exit code, stdout, stderr) as the parser printed them when it built every command's
    # arguments on each call; COLUMNS fixes argparse's wrapping width
    monkeypatch.setenv("COLUMNS", "80")
    code = run(argv)
    captured = capsys.readouterr()
    assert hashlib.sha256(repr((code, captured.out, captured.err)).encode()).hexdigest() == digest


def test_parser_reuse_leaks_no_state(monkeypatch, capsys):
    # a command's parser is built once per process: each answer equals that of a parser built
    # for it.  -h names no command first, so it builds the full parser, uncached
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [["fig1", "--bogus"], ["-h"], ["pk", "--lambda", "0.3"],
                ["oracle-check", "--lambda", "nan"], ["fig1", "--re=-1:1:1", "--im=0:1:0"]]

    def answer(argv):
        code = run(argv)
        return (code, *capsys.readouterr())

    cli._command_parser.cache_clear()
    reused = [answer(argv) for argv in sequence]
    assert cli._command_parser.cache_info().misses == 3  # fig1, pk and oracle-check
    fresh = []
    for argv in sequence:
        cli._command_parser.cache_clear()
        fresh.append(answer(argv))
    assert [code for code, _, _ in reused] == [2, 0, 0, 2, 0]
    assert reused == fresh


def _full_subparser(name):
    # what the full parser hands the rest of an argv that starts with this command name
    return next(action.choices[name] for action in cli._parser()._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_command_parser_prints_as_the_full_parser(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    direct, routed = cli._command_parser(name), _full_subparser(name)
    assert direct.format_usage() == routed.format_usage()
    assert direct.format_help() == routed.format_help()


def _parsed(parser, argv, capsys):
    # the parsed arguments, or the refusal or exit, and what the parser printed
    try:
        outcome = vars(parser.parse_args(argv))
    except (InvalidParameterError, SystemExit) as exc:
        outcome = (type(exc), str(exc))
    return outcome, capsys.readouterr()


def _rows(test):
    # the parameter rows of a test parametrized above
    return next(mark.args[1] for mark in test.pytestmark if mark.name == "parametrize")


ROUTED = [
    *(argv for argv, _ in _rows(test_help_and_usage_bytes_are_pinned)
      if argv and argv[0] in cli._COMMANDS),
    *(argv for pair in _rows(test_values_starting_with_a_dash) for argv in pair),
    # one valid argv per command
    ["moments", "--lambda", "0.2", "--m-max", "3", "--format", "json"],
    ["pk", "--k", "3", "--lambda", "0.1", "--alpha", "1,0,0", "--path", "paper"],
    ["fig1", "--re", "0:1:0", "--im=-1:1:1", "--out", "p2.csv", "--gnuplot", "p2.gp"],
    ["wigner", "--lambda", "0.2", "--q1=-1:1:1", "--p", "0,1,0"],
    ["bell", "--lambda", "0.3", "--beta-prime", "0.1,0,0"],
    ["fig2", "--lambda", "0:0.5:1", "--b", "0.1:0.1:0.3"],
    ["oracle-check", "--quantity", "b3", "--b", "0.3", "--cutoffs", "6,8"],
    ["errata", "--format", "json"],
]


@pytest.mark.parametrize("argv", ROUTED)
def test_command_parser_parses_as_the_full_parser(argv, monkeypatch, capsys):
    # the same arguments, refusal or help text, but for the name of the command it came from
    monkeypatch.setenv("COLUMNS", "80")
    routed, printed = _parsed(cli._parser(), argv, capsys)
    if isinstance(routed, dict):
        assert routed.pop("command") == argv[0]
    assert _parsed(cli._command_parser(argv[0]), argv[1:], capsys) == (routed, printed)


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built, init = [], cli._Parser.__init__

    def counted(parser, *args, **kwargs):
        built.append(kwargs["prog"])
        init(parser, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli._command_parser.cache_clear()
    argv = ["fig2", "--lambda", "0:1:0", "--b", "0.1:0.1:0.2"]
    for _ in range(2):
        assert run(argv) == 0
    monkeypatch.setattr(sys, "argv", ["trisqueeze", *argv])
    assert run() == 0  # as the installed script calls it
    assert built == ["trisqueeze fig2"]
    assert run(["-h"]) == 0
    assert built[1:] == ["trisqueeze", *(f"trisqueeze {name}" for name in cli._COMMANDS)]
    capsys.readouterr()


def test_numeric_failure_exit_code(capsys):
    for argv, reason in (
        # coherent amplitude far beyond the truncation guard
        (["oracle-check", "--quantity", "parity", "--lambda", "0.1", "--alpha", "2,0,0",
          "--cutoffs", "4,6"], "too large for cutoff 4"),
        # a displacement beyond it, named as the displacement it is
        (["oracle-check", "--quantity", "b3", "--b", "3", "--cutoffs", "6,8"],
         "|beta| = 3 too large for cutoff 6 (limit 1.225)"),
        # squeezed weight piles up on the outermost Fock shell
        (["oracle-check", "--quantity", "vacuum-amp", "--lambda", "3", "--cutoffs", "4,6"],
         "outermost Fock shell"),
        # more Taylor steps than the propagator takes (ended in a traceback or never); first
        # 8008/15, just past the cap at cutoff 4, which without the cap ends in 1001 steps
        (["oracle-check", "--lambda", repr(8008 / 15), "--cutoffs", "4,6"],
         "too large for the Fock oracle"),
        (["oracle-check", "--lambda", "1e300", "--cutoffs", "4,6"], "too large for the Fock oracle"),
        (["oracle-check", "--lambda", "1e6", "--cutoffs", "4,6"], "too large for the Fock oracle"),
    ):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure") and captured.err.count("\n") == 1
        assert reason in captured.err


@pytest.mark.parametrize("argv, line", [
    # a non-finite setting was refused as "phase-space points must be finite"
    (["bell", "--lambda", "0.2", "--beta", "inf,0,0"], "error: Bell settings must be finite"),
    (["wigner", "--lambda", "0.2", "--q", "inf,0,0"], "error: phase-space points must be finite"),
    (["pk", "--path", "paper", "--lambda", "1e-18"],
     "error: closed route undefined at strength 1e-18; use the exact route"),
])
def test_refusal_names_what_was_given(argv, line, capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize("argv, code", [
    (["moments", "--lambda", "1000"], 3),
    (["pk", "--lambda", "nan"], 2),
    (["moments", "--lambda", "inf"], 2),
    (["pk", "--lambda", "0.3", "--alpha", "nan,0,0"], 2),
    (["oracle-check", "--lambda", "0.2", "--alpha", "nan,0,0", "--cutoffs", "4,6"], 2),
    (["wigner", "--lambda", "0.2", "--q", "nan,0,0"], 2),
    (["bell", "--lambda", "0.2", "--beta", "nan,0,0"], 2),
    (["wigner", "--lambda", "0.2", "--q1=nan:0.1:1"], 2),
    (["fig2", "--lambda", "0:1:0", "--b", "0.1:0.1:inf"], 2),
    (["wigner", "--lambda", "400"], 3),
    (["bell", "--lambda", "400"], 3),
    (["pk", "--lambda", "400"], 3),
    (["fig2", "--lambda", "400:1:400", "--b", "0.1:0.1:0.2"], 3),
    # squares of the Wigner exponent that overflow at large strength
    (["wigner", "--lambda", "8", "--q", "1e160,0,0"], 3),
    (["bell", "--lambda", "12", "--beta", "1e150,0,0"], 3),
    (["fig2", "--lambda", "6:1:8", "--b", "1e150:1:1e150"], 3),
    (["wigner", "--lambda", "200", "--q", "1,1,1"], 3),
    (["wigner", "--lambda=-200", "--p", "1,1,1"], 3),
    # overflow without a numpy warning on stderr (warnings fail the suite)
    (["pk", "--lambda", "100"], 3),
    (["pk", "--lambda", "0.3", "--alpha", "1e200,0,0"], 3),
    # the closed route is singular where e^{-2s} - e^{2s} rounds to 0
    (["pk", "--lambda", "1e-300", "--path", "paper"], 2),
    # 2s rounds to inf, where math.exp returns inf without raising
    (["wigner", "--lambda=1e308"], 3),
    (["wigner", "--lambda=-1e308"], 3),
    (["bell", "--lambda=1e308"], 3),
    (["fig2", "--lambda=1e308:1:1e308"], 3),
    # a Wigner exponent that is not finite, refused without a warning
    (["wigner", "--lambda", "0.2", "--alpha", "1e200,0,0", "--q", "1,1,1"], 3),
    (["bell", "--lambda", "0", "--alpha", "1e-300,0,0", "--beta", "1,1,1",
      "--beta-prime", "1e200,0,0"], 3),
    # argv that used to end in a traceback: an unparsable cutoff, ranges of
    # more points than numpy can allocate, and an empty moment table
    (["oracle-check", "--cutoffs", "8,x"], 2),
    (["fig2", "--b", "0.01:1e-300:2"], 2),
    (["fig2", "--lambda", "0:1e-9:1"], 2),
    (["moments", "--lambda", "0.2", "--m-max", "0"], 2),
    (["moments", "--lambda", "0.2", "--m-max", "-3"], 2),
    # a Fock tail guard that squared |alpha| overflowed and warned before exit 3
    (["oracle-check", "--lambda", "0.2", "--alpha", "1e200,0,0", "--cutoffs", "8,10"], 3),
    # 3 coll_diff overflows while 2 coll_sum does not, so the closed route's
    # amplitude ratio is 0 (it ended in a ZeroDivisionError traceback)
    (["pk", "--lambda", "354.5"], 3),
    (["pk", "--lambda=-354.5"], 3),
    (["pk", "--lambda", "354.4"], 3),
    (["pk", "--lambda", "354.5", "--path", "paper"], 3),
    (["pk", "--lambda=-354.5", "--path", "paper"], 3),
    (["pk", "--lambda", "354.4", "--path", "paper"], 3),
    # sqrt(2) beta, sqrt(2) alpha and the sum of the amplitudes overflowed
    # outside any np.errstate, so numpy warned before the one-line message;
    # finite settings whose points overflow are an overflow, not invalid
    (["bell", "--lambda", "0", "--beta", "1.7e308,0,0"], 3),
    (["oracle-check", "--quantity", "b3", "--b", "1.7e308"], 3),
    (["wigner", "--lambda", "0", "--alpha", "1.7e308,0,0"], 3),
    (["bell", "--lambda", "0", "--alpha", "1.7e308,0,0"], 3),
    (["pk", "--lambda", "0.3", "--alpha", "1e308,1e308,0"], 3),
    # --gnuplot plots the --out table of a slice; it was ignored silently
    (["fig1", "--gnuplot", "p.gp"], 2),
    (["wigner", "--lambda", "0.2", "--out", "w.csv", "--gnuplot", "w.gp"], 2),
    # an output that cannot be written ended in a traceback with exit 1
    (["moments", "--lambda", "0.2", "--out", "missing/x.csv"], 2),
    (["fig1", "--re", "0:1:0", "--im", "0:1:0", "--out", "."], 2),
    (["fig2", "--lambda", "0:1:0", "--b", "0.1:0.1:0.2", "--out", "t.csv",
      "--gnuplot", "missing/x.gp"], 2),
    # a script written over its own table left only the three script lines
    (["fig1", "--re", "0:1:0", "--im", "0:1:0", "--out", "t.csv", "--gnuplot", "./t.csv"], 2),
    # the Fock oracle's B(3) regime is |s| <= 0.3; at s = -0.5 cutoff 8 is 1.5e-3 off
    (["oracle-check", "--quantity", "b3", "--lambda", "-0.5"], 2),
    # an amplitude sum that overflows is refused before the closed route's singularity
    (["pk", "--lambda", "0", "--path", "paper", "--alpha", "7e307,7e307,7e307"], 3),
    (["pk", "--lambda", "1e-300", "--path", "paper", "--alpha", "7e307,7e307,7e307"], 3),
    # rows past the moment order cap of 16, and a point whose imaginary part was dropped
    (["moments", "--lambda", "0.1", "--m-max", "9"], 2),
    (["wigner", "--lambda", "0.1", "--q", "1j,0,0"], 2),
    # a finite b whose points overflow was refused as not finite, with exit 2
    (["fig2", "--b", "1.5e308:1:1.5e308"], 3),
    # --b is read by b3 alone; var-x3 printed the bytes it prints without it
    (["oracle-check", "--quantity", "var-x3", "--b", "99"], 2),
])
def test_non_finite_results_exit_with_message(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for the argv that name files
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["wigner", "--lambda", "0.2", "--out", "w.csv", "--gnuplot", "w.gp"], 2),
    (["bell", "--lambda", "400", "--out", "b.csv"], 3),
    (["fig1", "--re", "0:1:0", "--im", "0:1:0", "--out", "t.csv", "--gnuplot", "./t.csv"], 2),
])
def test_refused_command_writes_no_file(argv, code, tmp_path, monkeypatch, capsys):
    # --out used to be opened before the command ran, leaving an empty file
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_table_kept_when_only_the_script_fails(tmp_path, monkeypatch, capsys):
    # the table is written in full before the gnuplot script is opened
    monkeypatch.chdir(tmp_path)
    argv = ["fig2", "--lambda", "0:1:0", "--b", "0.1:0.1:0.2"]
    assert run(argv) == 0
    table = capsys.readouterr().out
    assert run([*argv, "--out", "t.csv", "--gnuplot", "missing/x.gp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (tmp_path / "t.csv").read_text() == table
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t.csv"]


def test_closed_stdout_is_one_line():
    # the reader is gone before the child writes, so the write fails with EPIPE; the child's
    # stdout is buffered, as it is on a pipe unless PYTHONUNBUFFERED is set, so it is the
    # flush in run that meets the closed pipe, and no data is left for the flush at exit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    child = subprocess.Popen([sys.executable, "-m", "trisqueeze.cli", "moments", "--lambda", "0.2"],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv, row", [
    # W at the origin is exp(-2|alpha|^2)/pi^3 = 1/pi^3 at every strength
    (["wigner", "--lambda", "8"], "0,0,0,0,0,0,0.0322515344332"),
    (["wigner", "--lambda", "200"], "0,0,0,0,0,0,0.0322515344332"),
    (["wigner", "--lambda=-200"], "0,0,0,0,0,0,0.0322515344332"),
    # the all-zero setting gives 2 exp(-2|alpha|^2), as at s = 0.2 and s = 5
    (["bell", "--lambda", "12"], "12,0.428762202854"),
    # W is 1/pi^3 on the plane x1+x2+x3 = 0 too, which the e^{2s} gain does not reach
    (["wigner", "--lambda", "354", "--q", "1800,-1800,0"], "1800,-1800,0,0,0,0,0.0322515344332"),
])
def test_large_strengths_answer_exactly(argv, row, capsys):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.split("\n")[1:] == [row, ""]


def test_fig2_answers_at_large_strength(capsys):
    assert run(["fig2", "--lambda", "6:1:8"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.split("\n")[1:-1]]
    assert captured.err == "" and [row[0] for row in rows] == ["6", "7", "8"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize("argv, out", [
    (["fig2", "--lambda", "5:1:6"], "5,0.01,0.643125963022\n6,0.01,0.643136926508\n"),
    (["fig2", "--lambda", "100:1:101"],
     "100,0.0100000000354,0.643143304281\n101,0.0100000000354,0.643143304281\n"),
    (["fig2", "--lambda=-300:1:-299", "--b", "0.1:0.1:0.3"],
     "-300,0.100000000032,0.214381101427\n-299,0.100000000032,0.214381101427\n"),
])
def test_fig2_far_strengths_keep_their_bytes(argv, out, capsys):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "lambda,b_star,b3_max\n" + out


def test_determinism_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["fig1", "--re=-0.5:0.25:0.5", "--im=-0.5:0.25:0.5"]
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_runs_without_scipy():
    # with scipy unimportable, the Bell maximum, a fig2 scan and the default
    # oracle check still answer: numpy is the only runtime dependency
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys; sys.modules['scipy'] = None; import trisqueeze; "
             "from trisqueeze import bell, cli; bell.max_b3([0.3]); "
             "codes = (cli.run(['fig2', '--lambda', '0:0.5:1', '--b', '0.1:0.1:1']), "
             "cli.run(['oracle-check'])); sys.exit(codes != (0, 0))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_startup_imports_and_module_entry_point(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import os, sys, trisqueeze.cli; "
             "codes = [trisqueeze.cli.run([*argv, '--out', os.devnull]) for argv in "
             "(['errata'], ['wigner', '--lambda', '0.2', '--q1=-3:0.1:3', '--p1=-3:0.1:3'])]; "
             "print(codes, any(m.split('.')[0] == 'scipy' for m in sys.modules), "
             "'numpy.ma' in sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    # the package imports only numpy (test_runs_without_scipy blocks scipy outright); neither
    # errata, which reads displaced parities, nor the CSV writer, which finds the distinct
    # floats of a column, loads numpy.ma (np.unique on floats imports it)
    assert loaded.stdout == "[0, 0] False False\n"

    argv = ["fig1", "--re=-1:1:1", "--im=0:1:0"]
    module = subprocess.run([sys.executable, "-m", "trisqueeze.cli", *argv], env=env,
                            capture_output=True, check=True)
    assert run(argv) == 0
    assert module.stdout == capsys.readouterr().out.encode()
    assert module.stdout
