import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trisqueeze import make_state, wigner
from trisqueeze.cli import _fmt, _parse_complex_triple, _parse_range, run
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


def test_complex_triple_parsing():
    values = _parse_complex_triple("1, 0.5+0.25j, -2j")
    assert values[1] == pytest.approx(0.5 + 0.25j)
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
            expected.append(",".join(_fmt(float(v)) for v in (qv, pv, value)))
    assert out.read_text().split("\n") == expected + [""]


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


def test_gnuplot_script_emission(tmp_path):
    out = tmp_path / "fig2.csv"
    script = tmp_path / "fig2.gp"
    assert run(["fig2", "--lambda", "0:1:1", "--b", "0.1:0.1:0.3",
                "--out", str(out), "--gnuplot", str(script)]) == 0
    text = script.read_text()
    assert "plot" in text and out.name in text


def test_invalid_arguments_exit_code(capsys):
    assert run(["moments", "--lambda", "0.2", "--m-max", "4", "--format", "xml"]) == 2
    assert run(["fig1", "--re", "1:0.1:0", "--im", "0:1:0"]) == 2
    capsys.readouterr()


def test_numeric_failure_exit_code(capsys):
    for argv in (
        # coherent amplitude far beyond the truncation guard
        ["oracle-check", "--quantity", "parity", "--lambda", "0.1", "--alpha", "2,0,0",
         "--cutoffs", "4,6"],
        # squeezed weight piles up on the outermost Fock shell
        ["oracle-check", "--quantity", "vacuum-amp", "--lambda", "3", "--cutoffs", "4,6"],
        # more Taylor steps than the propagator takes (ended in a traceback or never)
        ["oracle-check", "--lambda", "1e300", "--cutoffs", "4,6"],
        ["oracle-check", "--lambda", "1e6", "--cutoffs", "4,6"],
    ):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure") and captured.err.count("\n") == 1


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
    # a Wigner exponent or route gap that is not finite, refused without a warning
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
])
def test_non_finite_results_exit_with_message(argv, code, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, row", [
    # W at the origin is exp(-2|alpha|^2)/pi^3 = 1/pi^3 at every strength
    (["wigner", "--lambda", "8"], "0,0,0,0,0,0,0.0322515344332"),
    (["wigner", "--lambda", "200"], "0,0,0,0,0,0,0.0322515344332"),
    (["wigner", "--lambda=-200"], "0,0,0,0,0,0,0.0322515344332"),
    # the all-zero setting gives 2 exp(-2|alpha|^2), as at s = 0.2 and s = 5
    (["bell", "--lambda", "12"], "12,0.428762202854"),
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


def test_determinism_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["fig1", "--re=-0.5:0.25:0.5", "--im=-0.5:0.25:0.5"]
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_startup_imports_and_module_entry_point(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, trisqueeze.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    # the package imports only numpy; scipy.optimize loads inside maximize_b3_full
    assert loaded.stdout == "False\n"

    argv = ["fig1", "--re=-1:1:1", "--im=0:1:0"]
    module = subprocess.run([sys.executable, "-m", "trisqueeze.cli", *argv], env=env,
                            capture_output=True, check=True)
    assert run(argv) == 0
    assert module.stdout == capsys.readouterr().out.encode()
    assert module.stdout
