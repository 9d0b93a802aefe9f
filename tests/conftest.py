import os

import pytest

from obstructa import enumeration
from obstructa.enumeration import enumerate_graphs

# The acceptance criteria run at n <= 9 by default; lower this locally for a
# faster development loop (the theorem sweeps then cover less ground).
ATLAS_MAX_N = max(5, min(9, int(os.environ.get("OBSTRUCTA_TEST_MAX_N", "9"))))


@pytest.fixture(scope="session")
def atlas8():
    """All isomorphism classes up to 8 vertices, keyed by vertex count."""
    top = min(8, ATLAS_MAX_N)
    return {n: tuple(enumerate_graphs(n)) for n in range(top + 1)}


@pytest.fixture(scope="session")
def atlas():
    """All isomorphism classes up to the acceptance scale (default 9)."""
    return {n: tuple(enumerate_graphs(n)) for n in range(ATLAS_MAX_N + 1)}


@pytest.fixture
def drop_levels(monkeypatch):
    """A function that drops, for this test, every cached generation level
    above ``top`` (default 0; level 0 is always kept), so that the next
    call that needs one generates it, or walks it as a last level."""

    def drop_above(top: int = 0) -> None:
        kept = {n: level for n, level in enumeration._atlas.items() if n <= top}
        monkeypatch.setattr(enumeration, "_atlas", kept)

    return drop_above
