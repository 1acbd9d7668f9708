"""One pass of a workload, run by perfbench/run.py in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the mode (``setup``, ``scan``, ``oracle`` or ``point``), the seed,
whether to trace, and where to write the result, the command outputs and the
spans.  The worker only runs the package and records what it returned; the
parent process checks the outputs.  ``imported_at`` is read on the
system-wide monotonic clock, so the parent can subtract its own spawn time.

While a pass runs, a timer signal interrupts it every 0.04 s or 0.5 s
(calibration.PERIOD_S) to time one run of a calibration kernel.  Every operation
records when it started and ended, so the parent can take out the kernel runs
that fell inside it and divide by how slowly the machine ran around it.
"""

import time

import trisqueeze.cli  # noqa: F401  -- the import is what setup_s measures

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import trisqueeze  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Speedometer:
    """Times one run of a calibration kernel at the start, every ``period``
    seconds from a timer signal, and at the end.  A signal handler runs
    between two bytecodes of the main thread, so a kernel run lies wholly
    inside or wholly outside any operation."""

    def __init__(self, kernel: str):
        self.fn = calibration.KERNELS[kernel]
        self.period = calibration.PERIOD_S[kernel]
        self.samples = []  # (perf_counter at start, seconds)

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        self.fn()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        # stay on one core, so the kernel runs where the pass runs
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.fn()  # warm-up: first calls into numpy are slower
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()


def _error(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "error_module": type(exc).__module__}


def _run_commands(mode: str, out_dir: Path, tracer) -> list[dict]:
    ops = []
    for name, argv in workloads.COMMANDS[mode]:
        if tracer is not None:
            tracer.segment(name)
        outcome = {"name": name}
        start = time.perf_counter()
        try:
            outcome["exit_code"] = trisqueeze.cli.run(argv + ["--out", str(out_dir / f"{name}.out")])
        except Exception as exc:  # an escaped exception is a crash to count, not to stop on
            outcome.update(_error(exc))
        outcome["start"], outcome["end"] = start, time.perf_counter()
        ops.append(outcome)
    return ops


def _run_queries(seed: int) -> list[dict]:
    ops = []
    for query in workloads.point_queries(seed):
        outcome = {}
        start = time.perf_counter()
        try:
            outcome["value"] = float(workloads.call(query, trisqueeze))
        except Exception as exc:  # counted per query; the stream goes on
            outcome.update(_error(exc))
        outcome["start"], outcome["end"] = start, time.perf_counter()
        ops.append(outcome)
    return ops


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {
        "imported_at": IMPORTED_AT,
        "package_file": trisqueeze.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    mode = spec["mode"]
    if mode == "setup":
        # right after the import, on the same core: how slowly it ran
        result["calibration_s"] = calibration.measure(workloads.KERNEL[mode])
    else:
        tracer = None
        if spec["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
        with Speedometer(workloads.KERNEL[mode]) as meter:
            if mode == "point":
                result["ops"] = _run_queries(spec["seed"])
            else:
                result["ops"] = _run_commands(mode, Path(spec["out_dir"]), tracer)
        result["calibration"] = meter.samples
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["profile"] = tracing.summarize(tracer.names, tracer.spans, tracer.segments)
            tracer.dump(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
