"""Random argv for every subcommand: each run ends in exit 0 with finite
output, or in exit 2/3 with one line on stderr, and never in a warning.
Outputs go to stdout or to --out, each path writable or not, and a refused
command leaves no --out file."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from trisqueeze.cli import run

# the edges of the package: underflow of e^{-2s} - e^{2s}, the band where the
# covariance loses its determinant, the overflow of cosh, and no number at all
STRENGTHS = st.sampled_from([0.0, 1e-300, -1e-300, 6.46, -6.46, 355.0, -355.0, 1e308, -1e308,
                             math.nan, math.inf, -math.inf]) | st.floats(-8, 8)
MAGNITUDES = st.floats(1e-320, 1.7e308)
REAL = st.just(0.0) | st.floats(-2, 2) | MAGNITUDES | MAGNITUDES.map(lambda x: -x)
COMPLEX = st.builds(lambda x, imag: f"{x!r}j" if imag else repr(x), REAL, st.booleans())


def _triple(parts):
    return st.lists(parts, min_size=3, max_size=3).map(",".join)


def _options(*pairs):
    # one drawn value per option, each in the "--opt value" or the "--opt=value" form
    names = [name for name, _ in pairs]
    drawn = st.tuples(*(st.tuples(value, st.booleans()) for _, value in pairs))
    return drawn.map(lambda values: [token for name, (value, joined) in zip(names, values)
                                     for token in ([f"{name}={value}"] if joined else [name, value])])


def _command(name, *pairs):
    return _options(*pairs).map(lambda tokens: [name, *tokens])


STRENGTH = STRENGTHS.map(repr)
ALPHA = _triple(COMPLEX)
ARGV = st.one_of(
    _command("moments", ("--lambda", STRENGTH), ("--m-max", st.integers(0, 9).map(str))),
    _command("pk", ("--lambda", STRENGTH), ("--alpha", ALPHA), ("--k", st.integers(1, 7).map(str)),
             ("--path", st.sampled_from(["exact", "paper"]))),
    _command("wigner", ("--lambda", STRENGTH), ("--alpha", ALPHA), ("--q", _triple(REAL.map(repr))),
             ("--p", _triple(REAL.map(repr)))),
    _command("bell", ("--lambda", STRENGTH), ("--alpha", ALPHA), ("--beta", ALPHA),
             ("--beta-prime", ALPHA)),
    _command("fig2", ("--lambda", STRENGTH.map(lambda s: f"{s}:1:{s}")),
             ("--b", MAGNITUDES.map(lambda b: f"{b!r}:1:{b!r}"))),
    _command("oracle-check", ("--lambda", STRENGTH), ("--alpha", ALPHA),
             ("--quantity", st.sampled_from(["var-x3", "vacuum-amp", "parity"])),
             ("--cutoffs", st.just("4,6"))),
    _command("oracle-check", ("--lambda", STRENGTH), ("--alpha", ALPHA), ("--quantity", st.just("b3")),
             ("--b", MAGNITUDES.map(repr)), ("--cutoffs", st.just("4,6"))),
    _command("fig1", ("--re", REAL.map(lambda x: f"{x!r}:1:{x!r}")),
             ("--im", REAL.map(lambda y: f"{y!r}:1:{y!r}"))),
)
# paths under a fresh directory: a new file, a file under a missing directory,
# the directory itself; --gnuplot is drawn for the commands that take it
OUT = st.sampled_from([None, "t.csv", "missing/t.csv", "."])
GNUPLOT = st.sampled_from([None, "p.gp", "missing/p.gp"])
PLOTTED = ("fig1", "fig2", "wigner")


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:  # a text cell: a header, a route name, a flag or a blank
        return True


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(ARGV, OUT, GNUPLOT)
def test_every_argv_ends_in_an_answer_or_one_line(argv, out_name, plot_name):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        out_path = out_name and Path(root, out_name)
        plot_path = plot_name and argv[0] in PLOTTED and Path(root, plot_name)
        argv = [*argv, *(["--out", str(out_path)] if out_path else []),
                *(["--gnuplot", str(plot_path)] if plot_path else [])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        written = out_path.read_text(encoding="utf-8") if out_path and out_path.is_file() else None
    if code == 0:
        text = written if out_path else out.getvalue()
        assert text and err.getvalue() == "" and out.getvalue() == ("" if out_path else text)
        assert all(_finite(cell) for line in text.splitlines() for cell in line.split(","))
    else:
        assert code in (2, 3) and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        # only a script that fails after its table was written leaves that table
        assert written is None or (code == 2 and repr(str(plot_path)) in err.getvalue())
