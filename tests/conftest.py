"""Shared fixtures.

An arena holds only its ladder weights, so building one is cheap; the
cutoff-8 and cutoff-14 arenas are still built once per session and shared.
"""

import json
import os
from pathlib import Path

# one BLAS thread, set before numpy loads: on a small box, extra threads only
# make the timings of the suite swing
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest

from trisqueeze import build_arena


@pytest.fixture(scope="session")
def arena14():
    return build_arena(14)


@pytest.fixture(scope="session")
def arena8():
    return build_arena(8)


@pytest.fixture(scope="session")
def mean_power_grid():
    """(k, strength, alpha, value) of every 60-digit <A^dag^k A^k> on the fixed
    grid of tests/data/reference_60digit.json (written by make_reference.py)."""
    text = (Path(__file__).parent / "data" / "reference_60digit.json").read_text()
    return [(entry["k"], entry["strength"], [complex(re, im) for re, im in entry["alpha"]],
             float(entry["value"]))
            for entry in json.loads(text)["mean_power_grid"]]
