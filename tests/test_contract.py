"""The parameter domain of ``errors.py`` at every public entry point that takes
a strength or coherent amplitudes, and a source check that no module keeps its
own copy of the overflow refusal."""

import ast
import math
from pathlib import Path

import pytest

from trisqueeze import (build_arena, coherent_ket, displaced_parity, evolve, gm_pair, hos_x,
                        make_state, mean_power_exact, mean_power_paper, pk)
from trisqueeze.errors import InvalidParameterError, NumericError

SRC = Path(__file__).parent.parent / "src" / "trisqueeze"
ARENA = build_arena(6)
KET = coherent_ket(ARENA, (0.1, 0, 0))

# (name, the inputs it takes: s for a strength, a for amplitudes, call(strength, amplitudes))
ENTRY_POINTS = [
    ("make_state", "sa", lambda s, a: make_state(s, a)),
    ("pk", "sa", lambda s, a: pk(2, a, s)),
    ("gm_pair", "sa", lambda s, a: gm_pair(a, s)),
    ("mean_power_exact", "sa", lambda s, a: mean_power_exact(2, a, s)),
    ("mean_power_paper", "sa", lambda s, a: mean_power_paper(2, a, s)),
    ("hos_x", "s", lambda s, a: hos_x(s, 1)),
    ("evolve", "s", lambda s, a: evolve(ARENA, s, KET)),
    ("coherent_ket", "a", lambda s, a: coherent_ket(ARENA, a)),
    ("displaced_parity", "a", lambda s, a: displaced_parity(ARENA, KET, a)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("inputs, call", [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_points_share_one_domain(inputs, call):
    inside = (0.1, 0.2j, 0)
    call(0.1, inside)
    for bad in (math.nan, math.inf, -math.inf):
        if "s" in inputs:
            with pytest.raises(InvalidParameterError):
                call(bad, inside)
        if "a" in inputs:
            for alpha in ((bad, 0, 0), (0, complex(0, bad), 0)):
                with pytest.raises(InvalidParameterError):
                    call(0.3, alpha)
    if "a" in inputs:
        # finite parts above 7e307; gm_pair answered (1e308, 0, 0) at s = 0.3
        for alpha in ((1e308, 0, 0), (0, 0, -1e308j)):
            with pytest.raises(NumericError, match="7e307"):
                call(0.3, alpha)


def _sites(path: Path) -> set:
    # (construct, module.function) of every `except OverflowError` and `np.errstate`,
    # named by the innermost function around it
    module, sites = path.stem, set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "OverflowError" in ast.unparse(node.type):
            sites.add(("except OverflowError", f"{module}.{owner}"))
        if isinstance(node, ast.Attribute) and node.attr == "errstate":
            sites.add(("np.errstate", f"{module}.{owner}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_overflow_refusal_has_one_owner():
    # errors.refuse_overflow is the refusal; _exponentials guards math.exp on every query
    # without numpy, and the lazy point checks of wigner, b3 and fig2_scan cost nothing
    # until an exponent is not finite
    sites = set().union(*(_sites(path) for path in SRC.glob("*.py")))
    assert sites == {
        ("except OverflowError", "matrices._exponentials"),
        ("np.errstate", "errors.refuse_overflow"),
        ("np.errstate", "gaussian.wigner"),
        ("np.errstate", "bell.b3"),
        ("np.errstate", "bell.fig2_scan"),
    }
