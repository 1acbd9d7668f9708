"""Command-line front end: scans and reports as CSV or JSON.

CSV prints every float with 12 significant digits, uses LF line endings and
has a header row.  Identical invocations produce byte-identical output.  Each
command returns its whole output as text; ``run`` writes it once, after the
command has answered, so a refused command writes no file.
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
from .errors import InvalidParameterError, NumericError

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
    count = int(math.floor(span)) + 1
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
    return values.real.astype(float)


@functools.cache
def _row_template(kinds: tuple) -> str:
    # 12 significant digits for a float (np.float64 included), str() for the rest
    return ",".join("%.12g" if issubclass(kind, float) else "%s" for kind in kinds) + "\n"


def _table(header, rows, fmt) -> str:
    if fmt == "csv":
        return ",".join(header) + "\n" + "".join(
            _row_template(tuple(map(type, row))) % tuple(row) for row in rows)
    # every cell is an int, str, bool or float (np.float64 is one), which json writes as is
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


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
    return _table(("m", "hos_x", "hos_y", "product"), rows, args.format)


def _cmd_pk(args):
    result = photon.pk(args.k, _parse_complex_triple(args.alpha), args.lam, path=args.path)
    header = ("k", "path", "paper_value", "exact_value", "discrepancy")
    row = (result.k, result.path, "" if result.paper_value is None else result.paper_value,
           result.exact_value, "" if result.discrepancy is None else result.discrepancy)
    return _table(header, [row], args.format)


def _cmd_fig1(args):
    rows = photon.fig1_scan(_parse_range(args.re), _parse_range(args.im))
    return _table(("re_alpha3", "im_alpha3", "p2_paper", "p2_exact"), rows, args.format)


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
        return _table(("q1", "p1", "w"), np.column_stack([grid, values]).tolist(), args.format)
    if args.gnuplot:
        raise InvalidParameterError("--gnuplot needs a slice (--q1 or --p1)")
    return _table(("q1", "q2", "q3", "p1", "p2", "p3", "w"),
                  [(*q, *p, gaussian.wigner(state, q, p))], args.format)


def _cmd_bell(args):
    state = gaussian.make_state(args.lam, _parse_complex_triple(args.alpha))
    setting = bell.BellSetting(_parse_complex_triple(args.beta), _parse_complex_triple(args.beta_prime))
    value = bell.b3(state, setting)
    return _table(("lambda", "b3"), [(args.lam, value)], args.format)


def _cmd_fig2(args):
    rows = bell.fig2_scan(_parse_range(args.lam_range), _parse_range(args.b))
    return _table(("lambda", "b_star", "b3_max"), rows, args.format)


def _cmd_oracle_check(args):
    try:
        cutoffs = [int(c) for c in args.cutoffs.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"cutoffs must be comma-separated integers, got {args.cutoffs!r}") from exc
    alpha = _parse_complex_triple(args.alpha)

    if args.quantity == "b3":
        def quantity(cut):
            setting = bell.fig2_setting(args.b)
            return bell.b3_oracle_check(args.lam, alpha, setting, cut)[1]
    else:
        start = (0, 0, 0) if args.quantity == "vacuum-amp" else alpha

        def quantity(cut):
            arena = fock.build_arena(cut)
            ket = fock.evolve(arena, args.lam, fock.coherent_ket(arena, start))
            if args.quantity == "var-x3":
                return fock.moment_x3(arena, ket, 2)
            if args.quantity == "parity":
                return fock.displaced_parity(arena, ket, (0, 0, 0))
            return ket[0].real  # vacuum-amp: <0|U|0>

    rows = [
        (row["cutoff"], row["value"],
         "" if row["delta"] is None else row["delta"],
         row["shrinking"])
        for row in fock.convergence_report(quantity, cutoffs)
    ]
    return _table(("cutoff", "value", "delta", "shrinking"), rows, args.format)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trisqueeze",
        description="Three-mode enhanced squeezing: moments, photon statistics, "
                    "Wigner functions, Bell tests and oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("moments", help="closed-form even moments of the collective quadratures")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=4)
    common(p)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("pk", help="P_k statistic on both routes")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", default="1,1,1")
    p.add_argument("--path", choices=("paper", "exact"), default="exact")
    common(p)
    p.set_defaults(fn=_cmd_pk)

    p = sub.add_parser("fig1", help="P_2 scan over alpha3 at unit strength, alpha1=alpha2=1")
    p.add_argument("--re", default="-1:0.05:1")
    p.add_argument("--im", default="-1:0.05:1")
    p.add_argument("--gnuplot", help="also write a gnuplot script to this path")
    common(p)
    p.set_defaults(fn=_cmd_fig1, plot="P2 along Re(alpha3)")

    p = sub.add_parser("wigner", help="Wigner function at a point or on a (q1, p1) slice")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", default="0,0,0")
    p.add_argument("--q", default="0,0,0")
    p.add_argument("--p", default="0,0,0")
    p.add_argument("--q1", help="range start:step:end for a slice along q1")
    p.add_argument("--p1", help="range start:step:end for a slice along p1")
    p.add_argument("--gnuplot", help="also write a gnuplot script to this path")
    common(p)
    p.set_defaults(fn=_cmd_wigner, plot="Wigner slice")

    p = sub.add_parser("bell", help="single B(3) evaluation")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", default="0.4,0.5,0.6")
    p.add_argument("--beta", default="0,0,0")
    p.add_argument("--beta-prime", dest="beta_prime", default="0,0,0")
    common(p)
    p.set_defaults(fn=_cmd_bell)

    p = sub.add_parser("fig2", help="max B(3) over displacement magnitude per strength")
    p.add_argument("--lambda", dest="lam_range", default="0:0.02:1")
    p.add_argument("--b", default="0.01:0.01:2")
    p.add_argument("--gnuplot", help="also write a gnuplot script to this path")
    common(p)
    p.set_defaults(fn=_cmd_fig2, plot="max B(3) vs strength")

    p = sub.add_parser("oracle-check", help="Fock-oracle convergence table")
    p.add_argument("--quantity", choices=("var-x3", "vacuum-amp", "parity", "b3"),
                   default="var-x3")
    p.add_argument("--lambda", dest="lam", type=float, default=0.2)
    p.add_argument("--alpha", default="0,0,0")
    p.add_argument("--b", type=float, default=0.3, help="displacement magnitude for b3")
    p.add_argument("--cutoffs", default="8,10,12,14")
    common(p)
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("errata", help="JSON report of literal-formula discrepancies")
    common(p)
    p.set_defaults(fn=_cmd_errata)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
    except SystemExit:  # --help, printed in full
        return 0
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
