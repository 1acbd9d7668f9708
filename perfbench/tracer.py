"""In-memory spans around the package's public functions.

The benchmark wraps every public function of the traced modules from the
outside (the package itself has no spans yet) and rebinds each wrapper in
every ``trisqueeze`` module namespace that holds a reference to the original,
because several modules import functions by name (``bell`` and ``errata``
import ``wigner``, ``make_state`` and ``squeeze_unitary``; ``photon`` imports
``hermite``).  A span is (name, start, end, parent span, extra, ok, segment);
``extra`` carries a per-function count taken from the arguments.
"""

import functools
import inspect
import json
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "bell", "gaussian", "matrices", "photon", "fock", "errata")


def _wigner_points(state, q, p, *_, **__):
    lead = np.broadcast_shapes(np.shape(q)[:-1], np.shape(p)[:-1])
    return math.prod(lead)


def _cutoff(arena, *_, **__):
    return int(arena.cutoff)


def _rows(strengths, *_, **__):
    return int(np.size(strengths))


# name -> f(*args, **kwargs) giving the span's ``extra`` count
_EXTRA = {
    "gaussian.wigner": _wigner_points,
    "fock.squeeze_unitary": _cutoff,
    "bell.fig2_scan": _rows,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.segments: list[str] = []
        self._stack: list[int] = []

    def segment(self, label: str) -> None:
        """Tag the spans recorded from now on (one segment per command)."""
        self.segments.append(label)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        extra_fn = _EXTRA.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = 0
            if extra_fn is not None:
                try:
                    extra = extra_fn(*args, **kwargs)
                except (AttributeError, TypeError, ValueError, IndexError):
                    extra = 0  # malformed arguments: the call itself will refuse them
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, extra, ok,
                                len(self.segments) - 1)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"trisqueeze.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "trisqueeze" and not mod_name.startswith("trisqueeze."):
                continue
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "segments": self.segments,
                       "fields": ["name", "start", "end", "parent", "extra", "ok", "segment"],
                       "spans": self.spans}, handle)


def summarize(names, spans, segments) -> dict:
    """Per-function calls, total and self seconds, plus the work counters.

    Self time is a span's duration minus the durations of its direct
    children; the package is single-threaded, so children never overlap.
    Returns the table over the whole pass and one table per segment.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    name_of = [names[span[0]] for span in spans]

    def under_fig2(index):
        parent = spans[index][3]
        while parent >= 0:
            if name_of[parent] == "bell.fig2_scan":
                return True
            parent = spans[parent][3]
        return False

    functions = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    per_segment = {label: {} for label in segments}
    counters = {"wigner_points": 0, "fig2_rows": 0, "fig2_b3_calls": 0,
                "squeeze_unitary_bytes": 0, "top_level": {}}
    by_cutoff = {}
    for index, (_, start, end, parent, extra, ok, segment) in enumerate(spans):
        name = name_of[index]
        duration = end - start
        own = duration - child_time[index]
        tables = [functions]
        if segment >= 0:
            tables.append(per_segment[segments[segment]])
        for table in tables:
            entry = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own
        if parent < 0:
            counters["top_level"][name] = counters["top_level"].get(name, 0) + 1
        if name == "gaussian.wigner":
            counters["wigner_points"] += extra
        elif name == "bell.fig2_scan":
            counters["fig2_rows"] += extra
        elif name == "bell.b3" and under_fig2(index):
            counters["fig2_b3_calls"] += 1
        elif name == "fock.squeeze_unitary":
            cut = by_cutoff.setdefault(str(extra), {"calls": 0, "self_s": 0.0})
            cut["calls"] += 1
            cut["self_s"] += own
            if ok:  # one dense cutoff^3 x cutoff^3 complex128 matrix returned
                counters["squeeze_unitary_bytes"] += 16 * extra**6
    counters["squeeze_unitary_by_cutoff"] = by_cutoff
    return {"functions": functions, "segments": per_segment, "counters": counters}
