"""Shared fixtures.

Building the cutoff-14 arena's sparse operators is the costliest part of
most oracle tests, so the arenas are built once per session and shared.
"""

import pytest

from trisqueeze import build_arena


@pytest.fixture(scope="session")
def arena14():
    return build_arena(14)


@pytest.fixture(scope="session")
def arena8():
    return build_arena(8)
