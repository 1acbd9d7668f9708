"""Shared fixtures.

An arena holds only its ladder weights, so building one is cheap; the
cutoff-8 and cutoff-14 arenas are still built once per session and shared.
"""

import pytest

from trisqueeze import build_arena


@pytest.fixture(scope="session")
def arena14():
    return build_arena(14)


@pytest.fixture(scope="session")
def arena8():
    return build_arena(8)
