"""Deletion audit of src/trisqueeze/*.py: the statements, expressions and arguments no test needs.

Run from the repository root (needs only what the test suite needs):

    python tests/data/deletion_audit.py > audit.jsonl

A mutant is one edit of one module, inside a function.  The statement pass:

* a simple statement (one line or several; not a docstring, ``pass``, ``global`` or
  ``nonlocal``) becomes ``pass``;
* an ``if`` whose body ends in ``raise`` has its test forced ``False``;
* any other ``if`` whose test is on one line has it forced ``False``, and
  forced ``True`` too when it has no ``else`` (an ``elif`` counts as one);
* a ``with`` header becomes ``if True:``.

The expression pass:

* a call loses one keyword argument;
* a trailing ``.reshape``, ``.ravel``, ``.copy``, ``.astype``, ``.item``, ``.tolist``,
  ``.swapaxes`` or ``.view`` call is dropped;
* a conditional expression becomes either of its arms;
* a one-argument ``float``, ``int``, ``abs``, ``tuple`` or ``list`` call becomes its argument;
* an ``and`` or ``or`` loses one operand;
* a ``.real`` is dropped;
* a two-argument ``max`` or ``min`` becomes either argument;
* a ``+`` or ``-`` of a float constant is dropped;
* ``np.ascontiguousarray`` becomes ``np.asarray``.

The argument pass: in a call of a function that a module of the package defines at top level
with a name starting with ``_``, one argument (positional, or a keyword's value) becomes
``np.zeros_like(<argument>)``, and so does, one at a time, each element of an argument that is
a tuple display (kind "tuple element"), since a tuple that mixes a string with an array cannot
be blinded whole; a string constant becomes ``""`` instead, so that a joined or keyed text
(a table's header cell) is tested by its words, not refused for its type; a starred argument
or element and a literal ``None`` are left as they are.  A survivor is an argument whose
values no test can tell apart from zeros or blanks.

The passes run in that order.  An edit that leaves the module as it was, or as an earlier
mutant left it, is skipped.  The tree is copied to a temporary directory once for each of the
two jobs, and only the copies are edited; a job puts each mutant in place, runs the suite there
and puts the module back.  The suite runs with ``-x``, the by-design acceptance failures
(``BY_DESIGN``, read from ``tier1_verdict.py``) deselected and 120 s per run; the mutant
survives when pytest exits 0.  The unedited copy must pass first.  Each mutant
gives one JSON line on stdout (module, line, pass, kind, the edited expression
and its replacement, outcome "survived", "killed" or "timeout", pytest's exit
code, seconds); the counts per pass and kind, the survivors and the wall time
go to stderr.
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

from tier1_verdict import BY_DESIGN  # this script's directory leads sys.path

ROOT = Path(__file__).resolve().parents[2]
JOBS, TIMEOUT = 2, 120.0  # suites run at once, and seconds per run
PACKAGE = Path("src") / "trisqueeze"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          *(f"--deselect=tests/test_acceptance.py::test_criterion_{name}" for name in BY_DESIGN)]
SIMPLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Raise, ast.Assert,
          ast.Delete, ast.Break, ast.Continue, ast.Import, ast.ImportFrom)
PASSES = ("statement", "expression", "argument")
TRAILING = ("reshape", "ravel", "copy", "astype", "item", "tolist", "swapaxes", "view")
UNWRAPPED = ("float", "int", "abs", "tuple", "list")
# nodes that stay one operand wherever they stand; any other argument that replaces a call is
# put in parentheses
ATOMS = (ast.Name, ast.Attribute, ast.Subscript, ast.Call, ast.List, ast.Tuple, ast.Dict, ast.Set,
         ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class _Source:
    """A module's bytes, and the byte span of an ast node in them (ast columns count UTF-8 bytes)."""

    def __init__(self, data: bytes):
        self.data, self.starts = data, [0]
        for line in data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def span(self, node, outer=None) -> tuple[int, int]:
        # [begin, end) of ``node``; with ``outer``, widened over the parentheses that group it there
        begin = self.starts[node.lineno - 1] + node.col_offset
        end = self.starts[node.end_lineno - 1] + node.end_col_offset
        if outer is not None:
            low, high = self.span(outer)
            while True:
                before, after = self.data[low:begin].rstrip(), self.data[end:high].lstrip()
                if not (before.endswith(b"(") and after.startswith(b")")):
                    break
                begin, end = low + len(before) - 1, high - len(after) + 1
        return begin, end

    def text(self, node, outer=None) -> bytes:
        return self.data[slice(*self.span(node, outer))]

    def without(self, node, begin: int, end: int) -> bytes:
        # the text of ``node`` with [begin, end) cut out
        low, high = self.span(node)
        return self.data[low:begin] + self.data[end:high]


def _statements(tree, source):
    # (line, kind, begin, end, replacement) of the statement pass
    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
            children = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
        else:
            children = list(ast.iter_child_nodes(node))
        if in_function and isinstance(node, SIMPLE):
            yield node.lineno, "statement", *source.span(node), b"pass"
        if in_function and isinstance(node, ast.If):
            if isinstance(node.body[-1], ast.Raise):
                yield node.lineno, "raising if False", *source.span(node.test), b"False"
            elif node.test.lineno == node.test.end_lineno:
                yield node.lineno, "if False", *source.span(node.test), b"False"
                if not node.orelse:
                    yield node.lineno, "if True", *source.span(node.test), b"True"
        if in_function and isinstance(node, ast.With):
            begin = source.span(node)[0]  # the header runs to the first colon after its last item
            last = node.items[-1]
            end = source.data.index(b":", source.span(last.optional_vars or last.context_expr)[1]) + 1
            yield node.lineno, "with", begin, end, b"if True:"
        for child in children:
            if isinstance(child, (ast.stmt, ast.excepthandler)) or not in_function:
                yield from visit(child, in_function)

    yield from visit(tree, False)


def _in_functions(node):
    # every node inside the body of a function, each once
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for statement in child.body:
                yield from ast.walk(statement)
        else:
            yield from _in_functions(child)


def _operand(source, node) -> bytes:
    # ``node``'s text to stand where a call or an operator stood
    text = source.text(node)
    return text if isinstance(node, ATOMS) else b"(" + text + b")"


def _expression_edits(node, source):
    # (kind, replacement of ``node``'s text) of each expression edit of ``node``
    if isinstance(node, ast.Call):
        items = sorted(node.args + node.keywords, key=source.span)
        for i, item in enumerate(items):
            if isinstance(item, ast.keyword):  # cut with the comma that joins it to its neighbour
                begin, end = source.span(item)
                if i + 1 < len(items):
                    end = source.span(items[i + 1])[0]
                elif i:
                    begin = source.span(items[i - 1], node)[1]
                yield "keyword", source.without(node, begin, end)
        func, args = node.func, node.args
        module = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "np"
        if isinstance(func, ast.Attribute) and func.attr in TRAILING and not module:
            yield "trailing call", source.text(func.value, node)
        if isinstance(func, ast.Name) and not node.keywords and not any(
                isinstance(arg, ast.Starred) for arg in args):
            if func.id in UNWRAPPED and len(args) == 1:
                yield "unwrap", _operand(source, args[0])
            if func.id in ("max", "min") and len(args) == 2:
                for arg in args:
                    yield "max/min argument", _operand(source, arg)
        if module and func.attr == "ascontiguousarray":
            yield "ascontiguousarray", b"np.asarray" + source.without(node, *source.span(func))
    elif isinstance(node, ast.IfExp):
        for arm in (node.body, node.orelse):
            yield "conditional arm", source.text(arm, node)
    elif isinstance(node, ast.BoolOp):
        spans = [source.span(value, node) for value in node.values]
        for i in range(len(spans)):  # an operand goes with the operator after it, the last with the one before
            begin, end = (spans[i][0], spans[i + 1][0]) if i + 1 < len(spans) else (spans[i - 1][1], spans[i][1])
            yield "boolean operand", source.without(node, begin, end)
    elif isinstance(node, ast.Attribute) and node.attr == "real" and isinstance(node.ctx, ast.Load):
        yield "real", source.text(node.value, node)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) \
            and isinstance(node.right, ast.Constant) and type(node.right.value) is float:
        yield "float constant", source.text(node.left, node)


def _expressions(tree, source):
    # (line, kind, begin, end, replacement) of the expression pass, in source order
    edits = [(node.lineno, kind, *source.span(node), text)
             for node in _in_functions(tree) for kind, text in _expression_edits(node, source)]
    return sorted(edits, key=lambda edit: edit[2:4])


def _private_functions(paths) -> set:
    # the names of the functions that the modules define at top level with a leading "_"
    return {node.name for path in paths for node in ast.parse(path.read_bytes()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}


def _blinded(node) -> bool:
    # whether the argument pass blinds ``node``: not a starred item or a literal None
    return not isinstance(node, ast.Starred) and not (isinstance(node, ast.Constant) and node.value is None)


def _arguments(tree, source, private):
    # (line, kind, begin, end, replacement) of the argument pass, in source order
    edits = []
    for node in _in_functions(tree):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) not in private:
            continue
        arguments = [*node.args, *(keyword.value for keyword in node.keywords if keyword.arg)]
        for arg in filter(_blinded, arguments):
            elements = filter(_blinded, arg.elts) if isinstance(arg, ast.Tuple) else ()
            for kind, part in (("argument", arg), *(("tuple element", element) for element in elements)):
                text = b'""' if isinstance(part, ast.Constant) and isinstance(part.value, str) \
                    else b"np.zeros_like(" + source.text(part) + b")"
                edits.append((part.lineno, kind, *source.span(part), text))
    return sorted(edits, key=lambda edit: edit[2:4])


def _mutants(path, private):
    # (line, pass, kind, edited text, replacement, mutated source) of each distinct mutant
    source = _Source(path.read_bytes())
    tree = ast.parse(source.data)
    seen = {source.data}
    for name, edits in (("statement", _statements(tree, source)), ("expression", _expressions(tree, source)),
                        ("argument", _arguments(tree, source, private))):
        for line, kind, begin, end, text in edits:
            mutated = source.data[:begin] + text + source.data[end:]
            if mutated not in seen:
                seen.add(mutated)
                ast.parse(mutated, str(path))  # an edit that does not parse is this script's fault
                yield line, name, kind, source.data[begin:end], text, mutated


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
    started = time.monotonic()
    paths = sorted((ROOT / PACKAGE).glob("*.py"))
    private = _private_functions(paths)
    mutants = [(path.name, *mutant) for path in paths for mutant in _mutants(path, private)]
    mutants.sort(key=lambda mutant: PASSES.index(mutant[2]))  # pass by pass, each in module order
    print(f"{len(mutants)} mutants of {len(paths)} modules", file=sys.stderr)

    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".perfbench_*", "*.egg-info", "audit.jsonl")
    with tempfile.TemporaryDirectory(prefix="deletion_audit_") as scratch:
        trees = [Path(shutil.copytree(ROOT, Path(scratch) / f"tree{job}", ignore=ignore))
                 for job in range(JOBS)]
        if _run(trees[0]) != 0:
            sys.exit("the unedited tree does not pass the suite")
        free, lock, counts, survivors = list(trees), threading.Lock(), {}, []

        def audit(mutant):
            name, line, pass_, kind, expression, replacement, source = mutant
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
            record = {"module": name, "line": line, "pass": pass_, "kind": kind,
                      "expression": expression.decode(), "replacement": replacement.decode(),
                      "outcome": outcome, "exit_code": code, "seconds": round(time.monotonic() - start, 2)}
            with lock:
                print(json.dumps(record), flush=True)
                tally = counts.setdefault((pass_, kind), {})
                tally[outcome] = tally.get(outcome, 0) + 1
                if outcome == "survived":
                    survivors.append((name, line, f"{pass_} {kind}: {expression.decode()!r}"))

        with ThreadPoolExecutor(len(trees)) as pool:
            list(pool.map(audit, mutants))
    for pass_ in PASSES:
        rows = {kind: tally for (name, kind), tally in counts.items() if name == pass_}
        total = {}
        for tally in rows.values():
            for outcome, n in tally.items():
                total[outcome] = total.get(outcome, 0) + n
        for kind, tally in [(f"{pass_} pass", total), *sorted(rows.items())]:
            print(f"{kind}: {sum(tally.values())} mutants, "
                  + ", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items())), file=sys.stderr)
    for name, line, what in sorted(survivors):
        print(f"survived: {name}:{line} {what}", file=sys.stderr)
    minutes, seconds = divmod(round(time.monotonic() - started), 60)
    print(f"wall time {minutes} min {seconds} s", file=sys.stderr)


if __name__ == "__main__":
    main()
