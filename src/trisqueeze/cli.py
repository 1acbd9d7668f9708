"""Command-line front end: scans and reports as CSV or JSON.

CSV prints every float with 12 significant digits, uses LF line endings and
has a header row.  A table is handed over as columns; a column of floats (a
float64 array, or cells that are all floats) is formatted once per distinct
bit pattern, and any other column cell by cell.  Identical invocations
produce byte-identical output.  Each command returns its whole output as
text; ``run`` writes it once, after the command has answered, so a refused
command writes no file.
A command's parser is built on first use and kept; an argv not led by a command builds all.
Exit codes: 0 success, 2 invalid arguments or an output that cannot be
written (an --out or --gnuplot path, a closed stdout), 3 numeric/truncation
failure.  Each refusal is one line on stderr.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import bell, errata, fock, gaussian, photon
from .errors import InvalidParameterError, NumericError, check_strength

__all__ = ["main", "run"]

MAX_RANGE_POINTS = 1000  # the default grids have at most 200 points


def _parse_range(text: str) -> np.ndarray:
    """Inclusive start:step:end grid of at most MAX_RANGE_POINTS points (ends within 1e-12)."""
    try:
        start, step, end = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise InvalidParameterError(f"range must look like start:step:end, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (start, step, end)):
        raise InvalidParameterError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0 or end < start:
        raise InvalidParameterError(f"range needs step > 0 and end >= start, got {text!r}")
    span = (end - start) / step + 1e-12
    if not span < MAX_RANGE_POINTS:  # also refuses a span that overflows to inf
        raise InvalidParameterError(f"range has more than {MAX_RANGE_POINTS} points, got {text!r}")
    count = math.floor(span) + 1
    return start + step * np.arange(count)


def _parse_complex_triple(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected three comma-separated values, got {text!r}")
    try:
        return np.array([complex(part.replace(" ", "")) for part in parts])
    except ValueError as exc:
        raise InvalidParameterError(f"could not parse complex triple {text!r}") from exc


def _parse_real_triple(text: str) -> np.ndarray:
    values = _parse_complex_triple(text)
    if np.any(values.imag != 0):
        raise InvalidParameterError(f"expected real values, got {text!r}")
    return values.real


def _table(header, columns, fmt) -> str:
    # columns (zip(*rows) of a table's rows) are sequences of cells of equal length, a float64
    # array counting as floats
    if fmt == "json":  # every cell is an int, str, bool or float (np.float64 is one)
        rows = zip(*columns)
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    return "\n".join(map(",".join, [header, *zip(*map(_column_text, columns))])) + "\n"


def _column_text(column):
    # 12 significant digits for a float (np.float64 included), %s for any other cell.  A column
    # of floats is formatted once per distinct bit pattern, which np.unique finds in its int64
    # view: on the floats themselves it would merge 0.0 with -0.0, and it imports numpy.ma
    kinds = () if isinstance(column, np.ndarray) else set(map(type, column))
    if not all(issubclass(kind, float) for kind in kinds):
        return [("%.12g" if isinstance(cell, float) else "%s") % cell for cell in column]
    distinct, index = np.unique(np.asarray(column).view(np.int64), return_inverse=True)
    text = np.array(["%.12g" % value for value in distinct.view(float).tolist()], dtype=object)
    return text[index]


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _cmd_moments(args):
    if args.m_max < 1:
        raise InvalidParameterError(f"--m-max must be at least 1, got {args.m_max}")
    rows = []
    for m in range(1, args.m_max + 1):
        x = gaussian.hos_x(args.lam, m)
        y = gaussian.hos_y(args.lam, m)
        rows.append((m, x, y, x * y))
    return _table(("m", "hos_x", "hos_y", "product"), zip(*rows), args.format)


def _cmd_pk(args):
    result = photon.pk(args.k, _parse_complex_triple(args.alpha), args.lam, path=args.path)
    header = ("k", "path", "paper_value", "exact_value", "discrepancy")
    row = (result.k, result.path, "" if result.paper_value is None else result.paper_value,
           result.exact_value, "" if result.discrepancy is None else result.discrepancy)
    return _table(header, zip(row), args.format)


def _cmd_fig1(args):
    rows = photon.fig1_scan(_parse_range(args.re), _parse_range(args.im))
    return _table(("re_alpha3", "im_alpha3", "p2_paper", "p2_exact"), zip(*rows), args.format)


def _cmd_wigner(args):
    state = gaussian.make_state(args.lam, _parse_complex_triple(args.alpha))
    q, p = _parse_real_triple(args.q), _parse_real_triple(args.p)
    if args.q1 or args.p1:
        q1 = _parse_range(args.q1 or "0:1:0")
        p1 = _parse_range(args.p1 or "0:1:0")
        # one row per grid point, q1 outer and p1 inner
        grid = np.stack(np.meshgrid(q1, p1, indexing="ij"), axis=-1).reshape(-1, 2)
        q, p = np.tile(q, (len(grid), 1)), np.tile(p, (len(grid), 1))
        q[:, 0] = grid[:, 0]
        p[:, 0] = grid[:, 1]
        values = gaussian.wigner(state, q, p)
        return _table(("q1", "p1", "w"), (grid[:, 0], grid[:, 1], values), args.format)
    if args.gnuplot:
        raise InvalidParameterError("--gnuplot needs a slice (--q1 or --p1)")
    return _table(("q1", "q2", "q3", "p1", "p2", "p3", "w"),
                  zip((*q, *p, gaussian.wigner(state, q, p))), args.format)


def _cmd_bell(args):
    state = gaussian.make_state(args.lam, _parse_complex_triple(args.alpha))
    setting = bell.BellSetting(_parse_complex_triple(args.beta), _parse_complex_triple(args.beta_prime))
    value = bell.b3(state, setting)
    return _table(("lambda", "b3"), zip((args.lam, value)), args.format)


def _cmd_fig2(args):
    rows = bell.fig2_scan(_parse_range(args.lam_range), _parse_range(args.b))
    return _table(("lambda", "b_star", "b3_max"), zip(*rows), args.format)


def _cmd_oracle_check(args):
    if args.b is not None and args.quantity != "b3":
        raise InvalidParameterError(f"--b goes only with --quantity b3, not {args.quantity}")
    try:
        cutoffs = [int(c) for c in args.cutoffs.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"cutoffs must be comma-separated integers, got {args.cutoffs!r}") from exc
    alpha = _parse_complex_triple(args.alpha)
    check_strength(args.lam)  # before coherent_ket reads the amplitudes, as in make_state

    if args.quantity == "b3":
        def quantity(cut):
            setting = bell.fig2_setting(0.3 if args.b is None else args.b)
            return bell.b3_oracle_check(args.lam, alpha, setting, cut)[1]
    else:
        def quantity(cut):
            arena = fock.build_arena(cut)
            ket = fock.evolve(arena, args.lam, fock.coherent_ket(arena, alpha))
            if args.quantity == "var-x3":
                return fock.moment_x3(arena, ket, 2)
            if args.quantity == "parity":
                return fock.displaced_parity(arena, ket, (0, 0, 0))
            return abs(ket[0])  # vacuum-amp: |<0|U|alpha>|

    rows = [
        (row["cutoff"], row["value"],
         "" if row["delta"] is None else row["delta"],
         row["shrinking"])
        for row in fock.convergence_report(quantity, cutoffs)
    ]
    return _table(("cutoff", "value", "delta", "shrinking"), zip(*rows), args.format)


def _cmd_errata(args):
    return json.dumps(errata.build_errata(), indent=2) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse that raises InvalidParameterError and takes -1:0.05:1 or -0.5j,0,0 as values.

    argparse reads an argument that starts with "-" as an option name unless it
    is a plain negative number; here "-" followed by a digit or "." is a value.
    Subparsers are built with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise InvalidParameterError(message)


_LAMBDA = ("--lambda", dict(dest="lam", type=float, required=True))
_GNUPLOT = ("--gnuplot", dict(help="also write a gnuplot script to this path"))
_OUTPUT = (("--out", dict(help="output file (default: stdout)")),
           ("--format", dict(choices=("csv", "json"), default="csv")))
# name: (help, command, gnuplot title, arguments before --out and --format)
_COMMANDS = {
    "moments": ("closed-form even moments of the collective quadratures", _cmd_moments, None, (
        _LAMBDA, ("--m-max", dict(dest="m_max", type=int, default=4)))),
    "pk": ("P_k statistic on both routes", _cmd_pk, None, (
        ("--k", dict(type=int, default=2)), _LAMBDA, ("--alpha", dict(default="1,1,1")),
        ("--path", dict(choices=("paper", "exact"), default="exact")))),
    "fig1": ("P_2 scan over alpha3 at unit strength, alpha1=alpha2=1", _cmd_fig1,
             "P2 along Re(alpha3)", (
        ("--re", dict(default="-1:0.05:1")), ("--im", dict(default="-1:0.05:1")), _GNUPLOT)),
    "wigner": ("Wigner function at a point or on a (q1, p1) slice", _cmd_wigner, "Wigner slice", (
        _LAMBDA, ("--alpha", dict(default="0,0,0")), ("--q", dict(default="0,0,0")),
        ("--p", dict(default="0,0,0")),
        ("--q1", dict(help="range start:step:end for a slice along q1")),
        ("--p1", dict(help="range start:step:end for a slice along p1")), _GNUPLOT)),
    "bell": ("single B(3) evaluation", _cmd_bell, None, (
        _LAMBDA, ("--alpha", dict(default="0.4,0.5,0.6")), ("--beta", dict(default="0,0,0")),
        ("--beta-prime", dict(dest="beta_prime", default="0,0,0")))),
    "fig2": ("max B(3) over displacement magnitude per strength", _cmd_fig2,
             "max B(3) vs strength", (
        ("--lambda", dict(dest="lam_range", default="0:0.02:1")),
        ("--b", dict(default="0.01:0.01:2")), _GNUPLOT)),
    "oracle-check": ("Fock-oracle convergence table", _cmd_oracle_check, None, (
        ("--quantity", dict(choices=("var-x3", "vacuum-amp", "parity", "b3"), default="var-x3")),
        ("--lambda", dict(dest="lam", type=float, default=0.2)),
        ("--alpha", dict(default="0,0,0")),
        ("--b", dict(type=float, help="displacement magnitude for b3")),
        ("--cutoffs", dict(default="8,10,12,14")))),
    "errata": ("JSON report of literal-formula discrepancies", _cmd_errata, None, ()),
}


def _arguments(parser, name: str) -> argparse.ArgumentParser:
    # a command's arguments, --out and --format, and the defaults run reads, on either route
    _, command, plot, arguments = _COMMANDS[name]
    for flag, options in (*arguments, *_OUTPUT):
        parser.add_argument(flag, **options)
    parser.set_defaults(fn=command, plot=plot)
    return parser


@functools.cache  # an oracle pass parses oracle-check twice: 0.13 ms cached, 0.5 ms rebuilt
def _command_parser(name: str) -> argparse.ArgumentParser:
    return _arguments(_Parser(prog=f"trisqueeze {name}"), name)


def _parser() -> argparse.ArgumentParser:
    """Every command, with its help and arguments, for an argv that does not start with one."""
    parser = _Parser(
        prog="trisqueeze",
        description="Three-mode enhanced squeezing: moments, photon statistics, "
                    "Wigner functions, Bell tests and oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *_) in _COMMANDS.items():
        _arguments(sub.add_parser(name, help=text), name)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # the full parser hands a command's subparser the rest of argv; its bytes are the same
        args = (_command_parser(argv[0]).parse_args(argv[1:]) if argv and argv[0] in _COMMANDS
                else _parser().parse_args(argv))
        gnuplot = getattr(args, "gnuplot", None)  # fig1, fig2 and wigner have the option
        if gnuplot and not args.out:
            raise InvalidParameterError("--gnuplot needs --out, the table it plots")
        if gnuplot and os.path.realpath(gnuplot) == os.path.realpath(args.out):
            raise InvalidParameterError("--gnuplot and --out name the same file")
        text = args.fn(args)  # nothing is written before the command has answered
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        if gnuplot:  # plots column 3 of the table against column 1
            table = args.out.replace("'", "''")  # how gnuplot writes ' inside '...'
            _write(gnuplot, f"set datafile separator ','\nset title '{args.plot}'\n"
                            f"plot '{table}' every ::1 using 1:3 with lines\n")
    except SystemExit:  # --help, printed in full; exit 0 below
        pass
    except (InvalidParameterError, NumericError) as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an --out or --gnuplot path that cannot be written, or a closed stdout
        if isinstance(exc, BrokenPipeError):  # so that the flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
