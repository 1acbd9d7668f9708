"""Benchmark of the trisqueeze package: three workloads, checked outputs.

    python3 perfbench/run.py --workload {scan,oracle,point} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` in child interpreters, one per pass, with BLAS pinned to
one thread.  The run keeps starting passes (at least two) until ``--seconds``
have gone by, checks every output, and prints a run record and then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  Every time it
reports is divided by how slowly the machine ran while it was measured
(calibration.py), because a shared host changes speed from moment to moment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: spans around
every public function of the package's modules, recorded in memory by
perfbench/tracer.py and written to ``.perfbench_out/`` when the run ends.

Exit status 0 means the metrics were measured; any other status means they
could not be (no package source, a worker died, no operation succeeded), and
then no result line is printed.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
REFERENCE = HERE / "reference"
BLAS_THREADS = 1      # one client on one core: steadier than sharing two
SETUP_PROBES = 5      # fresh interpreters that only import the CLI
MIN_PASSES = 2        # per kind of pass, so every timing is a median of >= 2
PASS_DEADLINE_S = 140  # start no pass after this; a run must end within 180 s
WORKER_TIMEOUT_S = 170
REL_TOL = 1e-9
# b_star is the argmax of a function that is flat at its maximum: a 1-ulp
# change in B(3) moves it by about 3e-8 relative, so it gets its own tolerance.
B_STAR_REL_TOL = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "clean_frac": "ratio", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
}
# (function, fields) pairs reported from the traced passes
LAYER_FIELDS = (
    ("fock.squeeze_unitary", ("calls", "self_s")),
    ("fock.displaced_parity", ("calls", "self_s")),
    ("fock.build_arena", ("self_s",)),
    ("fock.moment_x3", ("self_s",)),
    ("bell.b3_oracle_check", ("total_s",)),
    ("errata.build_errata", ("self_s",)),
    ("bell.fig2_scan", ("total_s",)),
    ("bell.b3", ("calls", "self_s")),
    ("gaussian.wigner", ("calls", "self_s")),
    ("gaussian.make_state", ("calls", "self_s")),
    ("gaussian.central_moment", ("calls", "self_s")),
    ("matrices.build_squeeze_matrices", ("calls", "self_s")),
    ("matrices.hermite", ("calls",)),
    ("photon.pk", ("calls", "self_s")),
    ("photon.mean_power_exact", ("calls", "self_s")),
    ("photon.mean_power_paper", ("calls", "self_s")),
    ("cli.run", ("calls", "self_s")),
)
CUTOFFS = (8, 10, 12, 14)
COMMAND_NAMES = [name for mode in ("scan", "oracle") for name, _ in workloads.COMMANDS[mode]]


class BenchError(Exception):
    """The run cannot produce metrics."""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _close(out: float, ref: float, rel: float = REL_TOL, scale: float = 0.0) -> bool:
    """Equal to ``rel`` relative; ``scale`` is the size of the operands a
    difference-type value was computed from, whose rounding it inherits."""
    return abs(out - ref) <= rel * max(abs(out), abs(ref), scale)


def _csv_matches(out_text: str, ref_text: str) -> bool:
    out_rows = [line.split(",") for line in out_text.splitlines()]
    ref_rows = [line.split(",") for line in ref_text.splitlines()]
    if len(out_rows) != len(ref_rows) or not ref_rows or out_rows[0] != ref_rows[0]:
        return False
    header = ref_rows[0]
    for out_row, ref_row in zip(out_rows[1:], ref_rows[1:]):
        if len(out_row) != len(header) or len(ref_row) != len(header):
            return False
        for column, out_cell, ref_cell in zip(header, out_row, ref_row):
            if out_cell == ref_cell:
                continue
            try:
                out_value, ref_value = float(out_cell), float(ref_cell)
            except ValueError:
                return False
            rel = B_STAR_REL_TOL if column == "b_star" else REL_TOL
            # oracle-check's delta is a difference of two consecutive values
            scale = abs(float(ref_row[header.index("value")])) if column == "delta" else 0.0
            if not _close(out_value, ref_value, rel, scale):
                return False
    return True


def _numbers(values):
    for value in values:
        if isinstance(value, list):
            yield from _numbers(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield abs(value)


def _json_matches(out, ref, scale: float = 0.0) -> bool:
    if isinstance(ref, dict):
        if not isinstance(out, dict) or out.keys() != ref.keys():
            return False
        # "<a>_vs_<b>" entries are |a - b| of the numbers beside them
        siblings = max(_numbers(ref.values()), default=0.0)
        return all(_json_matches(out[key], ref[key], siblings if "_vs_" in key else 0.0)
                   for key in ref)
    if isinstance(ref, list):
        return (isinstance(out, list) and len(out) == len(ref)
                and all(_json_matches(o, r, scale) for o, r in zip(out, ref)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return (isinstance(out, (int, float)) and not isinstance(out, bool)
                and _close(out, ref, REL_TOL, scale))
    return out == ref


def table_matches(name: str, path: Path) -> bool:
    """Whether a command's output equals its reference table, to the tolerances above."""
    if not path.is_file():
        return False
    out_text = path.read_text(encoding="utf-8")
    ref_text = (REFERENCE / f"{name}.out").read_text(encoding="utf-8")
    if out_text == ref_text:
        return True
    if name == "errata":
        try:
            return _json_matches(json.loads(out_text), json.loads(ref_text))
        except json.JSONDecodeError:
            return False
    return _csv_matches(out_text, ref_text)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
    })
    return env


class Runner:
    """Spawns one worker interpreter per pass, inside a private work directory."""

    def __init__(self, workload: str, seed: int, work: Path, out: Path):
        self.workload, self.seed, self.work, self.out = workload, seed, work, out
        self.env = _child_env()
        self.count = 0
        self.versions = None
        self.setup_samples = []
        self.raw_setup_samples = []

    def spawn(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        pass_dir = self.work / f"pass{self.count}"
        pass_dir.mkdir()
        spec = {
            "mode": mode, "seed": self.seed, "trace": trace, "out_dir": str(pass_dir),
            "result_path": str(pass_dir / "result.json"),
            "spans_path": str(self.out / f"spans-{self.workload}-seed{self.seed}-pass{self.count}.json"),
        }
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
        package = Path(result["package_file"]).resolve()
        if not package.is_relative_to(ROOT / "src"):
            raise BenchError(f"imported trisqueeze from {package}, not from this checkout")
        self.versions = result["versions"]
        raw = result["imported_at"] - started
        self.raw_setup_samples.append(raw)
        if "calibration_s" in result:  # a setup probe measured its speed
            reference = calibration.REFERENCE_S[workloads.KERNEL["setup"]]
            self.setup_samples.append(raw * reference / result["calibration_s"])
        result["dir"] = pass_dir
        return result


def _timings(result: dict, mode: str) -> list[tuple[float, float]]:
    """For each operation: its own seconds, without the kernel runs that
    interrupted it, and the factor by which the machine ran slow around it:
    the mean of the kernel runs inside it and of the one on either side,
    over the kernel's reference time.  A wider window follows a quick change
    of speed less closely, which widens the tail of the latencies."""
    samples = result["calibration"]
    starts = [start for start, _ in samples]
    seconds = [taken for _, taken in samples]
    reference = calibration.REFERENCE_S[workloads.KERNEL[mode]]
    out = []
    for op in result["ops"]:
        first, last = bisect.bisect_right(starts, op["start"]), bisect.bisect_left(starts, op["end"])
        own = op["end"] - op["start"] - sum(seconds[first:last])
        around = seconds[max(first - 1, 0):last + 1]
        out.append((own, statistics.fmean(around) / reference))
    return out


def _percentile(sorted_values, fraction: float) -> float:
    """Linear interpolation between the closest ranks: over the two passes
    of a scan run, p50 is their mean rather than the faster one."""
    position = fraction * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (position - low) * (sorted_values[high] - sorted_values[low])


class Ledger:
    """Classifies every operation: ok, refused (exit 2/3 or an exception
    from trisqueeze.errors) or crashed (any other exception, exit code or
    returned value that fails its check).

    Every pass repeats the same seeded inputs, so the operations are counted
    once, from the first pass; a later pass in which any operation ends
    differently makes the run incorrect."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.queries = workloads.point_queries(seed) if workload == "point" else None
        self.attempted = self.ok = self.refused = self.crashed = 0
        self.outcomes = None
        self.unrepeatable = 0  # passes whose outcomes differ from the first
        self.wrong_tables = []
        self.crashes = {}
        self.passes = []

    def _count(self, outcomes: list, strengths: list) -> None:
        if self.outcomes is not None:
            self.unrepeatable += outcomes != self.outcomes
            return
        self.outcomes = outcomes
        for outcome, strength in zip(outcomes, strengths):
            self.attempted += 1
            if outcome == "ok":
                self.ok += 1
            elif outcome == "refused":
                self.refused += 1
            else:
                self.crashed += 1
                entry = self.crashes.setdefault(outcome, {"count": 0, "min_strength": None})
                entry["count"] += 1
                if strength is not None and (entry["min_strength"] is None
                                             or strength < entry["min_strength"]):
                    entry["min_strength"] = strength

    def _outcome(self, index: int, op: dict, pass_dir: Path) -> str:
        if self.workload == "point":
            label = self.queries[index]["kind"]
            if "error" in op:
                refused = op["error_module"] == "trisqueeze.errors"
                return "refused" if refused else f"{label}:{op['error']}"
            return "ok" if workloads.valid(label, op["value"]) else f"{label}:invalid value"
        label = op["name"]
        code = op.get("exit_code")
        if "error" in op:
            return f"{label}:{op['error']}"
        if code in (2, 3):
            return "refused"
        if code != 0:
            return f"{label}:exit {code}"
        if table_matches(label, pass_dir / f"{label}.out"):
            return "ok"
        if label not in self.wrong_tables:
            self.wrong_tables.append(label)
        return f"{label}:table differs"

    def add(self, result: dict, traced: bool) -> None:
        ops = result["ops"]
        timings = _timings(result, self.workload)
        outcomes = [self._outcome(index, op, result["dir"]) for index, op in enumerate(ops)]
        seconds = [own / slow for own, slow in timings]
        strengths = ([q["strength"] for q in self.queries] if self.queries
                     else [None] * len(ops))
        self._count(outcomes, strengths)
        wall = sum(seconds)
        if self.workload == "point":
            # what a client waits for: one library call that ended ok (a
            # failure returns early and would pull the percentiles down)
            latencies = [s * 1e3 for s, outcome in zip(seconds, outcomes) if outcome == "ok"]
            commands = {}
        else:
            # a client of scan or oracle waits for the whole pass, whatever
            # its outcome; failures are counted in ok_frac and clean_frac
            latencies = [wall * 1e3]
            commands = {op["name"]: s for op, s in zip(ops, seconds)}
        self.passes.append({
            "traced": traced,
            "wall_s": wall,
            "raw_wall_s": sum(own for own, _ in timings),
            "slowdown": statistics.median(slow for _, slow in timings),
            "kernel_runs": len(result["calibration"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "operations": len(ops),
            "latencies_ms": latencies,
            "command_s": commands,
            "profile": result.get("profile"),
        })

    def untraced(self):
        return [p for p in self.passes if not p["traced"]]

    def traced(self):
        return [p for p in self.passes if p["traced"]]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ledger: Ledger, setup_samples) -> dict:
    passes = ledger.untraced()
    latencies = sorted(ms for p in passes for ms in p["latencies_ms"])
    if not latencies:
        raise BenchError("no operation succeeded, so no latency can be reported")
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": ledger.ok / ledger.attempted,
        "clean_frac": (ledger.attempted - ledger.crashed) / ledger.attempted,
        "latency_p50_ms": _percentile(latencies, 0.50),
        "latency_p99_ms": _percentile(latencies, 0.99),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _layer_values(profile: dict) -> dict:
    functions, counters = profile["functions"], profile["counters"]
    values = {}
    for name, fields in LAYER_FIELDS:
        for field in fields:
            values[f"{name}.{field}"] = functions.get(name, {}).get(field, 0)
    by_cutoff = counters["squeeze_unitary_by_cutoff"]
    for cutoff in CUTOFFS:
        values[f"fock.squeeze_unitary.c{cutoff}.self_s"] = by_cutoff.get(str(cutoff), {}).get("self_s", 0.0)
    values["fock.squeeze_unitary.bytes_computed"] = counters["squeeze_unitary_bytes"]
    values["gaussian.wigner.points"] = counters["wigner_points"]
    rows = counters["fig2_rows"]
    values["bell.b3_per_row"] = counters["fig2_b3_calls"] / rows if rows else 0
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


def per_layer(ledger: Ledger, problems: list) -> dict:
    traced = [_layer_values(p["profile"]) for p in ledger.traced()]
    values = {}
    for name in traced[0]:
        samples = [t[name] for t in traced]
        if layer_unit(name) != "s":
            if len(set(samples)) != 1:
                problems.append(f"work counter {name} differs between passes: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    untraced = ledger.untraced()
    values["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in ledger.traced())
        / statistics.median(p["wall_s"] for p in untraced) - 1
    )
    for command in COMMAND_NAMES:
        values[f"cmd.{command}_s"] = _median([p["command_s"][command] for p in untraced
                                               if command in p["command_s"]])
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def expected_top_level(workload: str, ledger: Ledger) -> dict:
    """The package calls the benchmark itself makes in one pass."""
    if workload == "point":
        return workloads.top_level_calls(ledger.queries)
    return {"cli.run": len(workloads.COMMANDS[workload])}


def shares(profile: dict) -> dict:
    """Share of each command's traced time spent in its heaviest functions."""
    out = {}
    for command, table in profile["segments"].items():
        whole = table.get("cli.run", {}).get("total_s", 0.0)
        if whole <= 0:
            continue
        top = sorted(((entry["total_s"], name) for name, entry in table.items() if name != "cli.run"),
                     reverse=True)[:4]
        out[command] = {name: seconds / whole for seconds, name in top}
    return out


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # a plain checkout: the source digest identifies the code
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(args, work: Path, out: Path) -> tuple[dict, dict]:
    runner = Runner(args.workload, args.seed, work, out)
    ledger = Ledger(args.workload, args.seed)
    mode = args.workload
    if not args.trace:
        for _ in range(SETUP_PROBES):
            runner.spawn("setup")
    start = time.monotonic()
    rounds = 0
    longest = 0.0
    while rounds < MIN_PASSES or (
        time.monotonic() - start < args.seconds
        and time.monotonic() - start + longest < PASS_DEADLINE_S
    ):
        began = time.monotonic()
        ledger.add(runner.spawn(mode), traced=False)
        if args.trace:
            ledger.add(runner.spawn(mode, trace=True), traced=True)
        longest = max(longest, time.monotonic() - began)
        rounds += 1

    problems = [f"{name} differs from its reference table" for name in ledger.wrong_tables]
    if ledger.unrepeatable:
        problems.append(f"{ledger.unrepeatable} passes ended some operation otherwise than the first")
    expected = expected_top_level(mode, ledger)
    for p in ledger.traced():
        got = p["profile"]["counters"]["top_level"]
        if got != expected:
            problems.append(f"traced top-level calls {got} != calls made {expected}")
    metrics = per_layer(ledger, problems) if args.trace else end_to_end(ledger, runner.setup_samples)
    result = {
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.attempted - ledger.ok,
        "metrics": metrics,
    }
    record = {
        "workload": mode, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, **runner.versions,
        "setup_samples_s": runner.setup_samples,
        "raw_setup_samples_s": runner.raw_setup_samples,
        "operations": {"attempted": ledger.attempted, "ok": ledger.ok,
                       "refused": ledger.refused, "crashed": ledger.crashed},
        "crashes": ledger.crashes,
        "problems": problems,
        "latency_samples": sum(len(p["latencies_ms"]) for p in ledger.untraced()),
        "passes": [{k: v for k, v in p.items() if k not in ("profile", "latencies_ms")}
                   for p in ledger.passes],
    }
    if args.trace:
        record["command_shares"] = [shares(p["profile"]) for p in ledger.traced()]
        record["profiles"] = [p["profile"] for p in ledger.traced()]
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "trisqueeze" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'trisqueeze'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, record = measure(args, work, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {k: v for k, v in record.items() if k not in ("profiles", "passes", "setup_samples_s", "raw_setup_samples_s")}
    print(json.dumps({"record": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
