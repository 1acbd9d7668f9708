"""Statement-deletion audit of src/trisqueeze/*.py: the code that no test needs.

Run from the repository root (needs only what the test suite needs):

    python tests/data/deletion_audit.py > audit.jsonl

A mutant is one edit of one module:

* a simple statement inside a function (one line or several; not a docstring,
  ``pass``, ``global`` or ``nonlocal``) becomes ``pass``;
* an ``if`` whose body ends in ``raise`` has its test forced ``False``;
* any other ``if`` whose test is on one line has it forced ``False``, and
  forced ``True`` too when it has no ``else`` (an ``elif`` counts as one);
* a ``with`` header becomes ``if True:``.

An edit that leaves the module as it was, or as an earlier mutant left it, is
skipped.  The tree is copied to a temporary directory once for each of the two
jobs, and only the copies are edited; a job puts each mutant in place, runs the
suite there and puts the module back.  The suite runs with ``-x``, the
by-design acceptance failures deselected and 120 s per run; the mutant
survives when pytest exits 0.  The unedited copy must pass first.  Each mutant gives one JSON
line on stdout (module, line, kind, the edited source lines, outcome
"survived", "killed" or "timeout", pytest's exit code, seconds); the counts and
the survivors go to stderr.
"""

import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
JOBS, TIMEOUT = 2, 120.0  # suites run at once, and seconds per run
PACKAGE = Path("src") / "trisqueeze"
BY_DESIGN = ("06c_printed_squeezed_vacuum_p2", "07b_fig1_positive_flanks", "07c_fig1_im_invariance",
             "09b_bell_violation_band", "09d_bell_plateau_exceeds_two")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          *(f"--deselect=tests/test_acceptance.py::test_criterion_{name}" for name in BY_DESIGN)]
SIMPLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Raise, ast.Assert,
          ast.Delete, ast.Break, ast.Continue, ast.Import, ast.ImportFrom)


def _edits(tree):
    # (line, kind, node, replacement, whole) of every mutant of a module: ``whole`` is True when
    # the replacement stands for the node itself, False for its test or its with-header
    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
            children = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
        else:
            children = list(ast.iter_child_nodes(node))
        if in_function and isinstance(node, SIMPLE):
            yield node.lineno, "statement", node, "pass", True
        if in_function and isinstance(node, ast.If):
            if isinstance(node.body[-1], ast.Raise):
                yield node.lineno, "raising if False", node.test, "False", True
            elif node.test.lineno == node.test.end_lineno:
                yield node.lineno, "if False", node.test, "False", True
                if not node.orelse:
                    yield node.lineno, "if True", node.test, "True", True
        if in_function and isinstance(node, ast.With):
            yield node.lineno, "with", node, "if True:", False
        for child in children:
            if isinstance(child, (ast.stmt, ast.excepthandler)) or not in_function:
                yield from visit(child, in_function)

    yield from visit(tree, False)


def _offset(starts, line, col):
    return starts[line - 1] + col  # ast columns count UTF-8 bytes


def _mutants(path):
    # (line, kind, mutated source bytes) of each distinct mutant of the module at ``path``
    source = path.read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    seen = {source}
    for line, kind, node, text, whole in _edits(ast.parse(source)):
        begin = _offset(starts, node.lineno, node.col_offset)
        if whole:
            end = _offset(starts, node.end_lineno, node.end_col_offset)
        else:  # the with-header runs to the first colon after its last item
            last = node.items[-1]
            item_end = last.optional_vars or last.context_expr
            end = source.index(b":", _offset(starts, item_end.end_lineno, item_end.end_col_offset)) + 1
        mutated = source[:begin] + text.encode() + source[end:]
        if mutated not in seen:
            seen.add(mutated)
            yield line, kind, mutated


def _run(tree):
    # pytest's exit code in ``tree``, or None after TIMEOUT seconds (its process group killed)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    process = subprocess.Popen(PYTEST, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return process.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None


def main():
    paths = sorted((ROOT / PACKAGE).glob("*.py"))
    mutants = [(path.name, *mutant) for path in paths for mutant in _mutants(path)]
    print(f"{len(mutants)} mutants of {len(paths)} modules", file=sys.stderr)

    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".perfbench_*", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="deletion_audit_") as scratch:
        trees = [Path(shutil.copytree(ROOT, Path(scratch) / f"tree{job}", ignore=ignore))
                 for job in range(JOBS)]
        if _run(trees[0]) != 0:
            sys.exit("the unedited tree does not pass the suite")
        free, lock, counts, survivors = list(trees), threading.Lock(), {}, []

        def audit(mutant):
            name, line, kind, source = mutant
            with lock:
                tree = free.pop()
            target = tree / PACKAGE / name
            original = target.read_bytes()
            target.write_bytes(source)
            start = time.monotonic()
            try:
                code = _run(tree)
            finally:
                target.write_bytes(original)
                with lock:
                    free.append(tree)
            outcome = "timeout" if code is None else "survived" if code == 0 else "killed"
            edited = source.decode().splitlines()[line - 1:line + 1]
            record = dict(module=name, line=line, kind=kind, edited=edited, outcome=outcome,
                          exit_code=code, seconds=round(time.monotonic() - start, 2))
            with lock:
                print(json.dumps(record), flush=True)
                counts[outcome] = counts.get(outcome, 0) + 1
                if outcome == "survived":
                    survivors.append(f"{name}:{line} {kind}")

        with ThreadPoolExecutor(len(trees)) as pool:
            list(pool.map(audit, mutants))
    print(f"{len(mutants)} mutants: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())),
          file=sys.stderr)
    for survivor in sorted(survivors):
        print(f"survived: {survivor}", file=sys.stderr)


if __name__ == "__main__":
    main()
