"""Induced-subgraph detection: wheels, 3PCs, and per-graph classification.

A wheel here is the inclusive convention used throughout this package: a rim
cycle of any length >= 3 plus a hub with at least three rim neighbors, so K4
is a wheel.  Containment means an induced subgraph isomorphic to some wheel,
equivalently an induced cycle of G and a vertex off it with >= 3 neighbors
on it; the wheel search walks the induced cycles of G once.  The 3PC search,
:func:`induced_3pcs`, walks vertex subsets of minimum induced degree 2 and
reads each one by its three-path skeleton
(:func:`obstructa.families.spec_of_rows`); nothing is canonically labeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import TooLarge
from .families import ThreePcSpec, format_spec, recognize_3pc, spec_of_rows
from .graphs import Graph, bits, min_degree2_subsets
from .hamiltonicity import is_hc_obstruction

DETECT_3PC_MAX_VERTICES = 20  # the subset walk is pruned, but up to 2^n on dense graphs
CLASSIFY_MAX_VERTICES = 16  # bounded by the obstruction minimality check


# ---------------------------------------------------------------------------
# wheels
# ---------------------------------------------------------------------------


def induced_cycles(
    rows: Sequence[int], anchor: int, cand: int
) -> Iterator[tuple[list[int], int]]:
    """Every induced cycle through ``anchor`` whose other vertices lie in
    ``cand``, as (vertex list from the anchor, vertex mask), each once with
    orientation cycle[1] < cycle[-1].  One DFS, neighbours ascending: the path
    grows only by vertices not adjacent to any earlier path vertex but the
    last, and a vertex adjacent to the anchor can only close the cycle."""
    return _extend_cycle(rows, [anchor], 1 << anchor, cand)


def _extend_cycle(
    rows: Sequence[int], path: list[int], on: int, cand: int
) -> Iterator[tuple[list[int], int]]:
    last = path[-1]
    anchor_bit = 1 << path[0]
    first = len(path) == 1
    for w in bits(rows[last] & cand):
        wbit = 1 << w
        if not first and rows[w] & anchor_bit:
            if path[1] < w:
                yield path + [w], on | wbit
            continue
        nxt = cand & ~wbit if first else cand & ~rows[last] & ~wbit
        yield from _extend_cycle(rows, path + [w], on | wbit, nxt)


def find_wheel_through(
    rows: Sequence[int], anchor: int, cand: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """First (hub, rim) with the rim one of :func:`induced_cycles` through
    ``anchor`` and the hub the least vertex off the rim with >= 3 rim
    neighbors."""
    full = (1 << len(rows)) - 1
    for cycle, rim in induced_cycles(rows, anchor, cand):
        for hub in bits(full & ~rim):
            if (rows[hub] & rim).bit_count() >= 3:
                return hub, tuple(cycle)
    return None


def find_induced_wheel(g: Graph) -> Optional[tuple[int, tuple[int, ...]]]:
    """First (hub, rim) with the rim an induced cycle of G and the hub the least
    vertex off the rim with >= 3 rim neighbors.  Rims come from
    :func:`induced_cycles` anchored at the least rim vertex, anchors
    ascending.
    """
    full = g.vertex_mask
    for anchor in range(g.n):
        got = find_wheel_through(g.rows, anchor, full & ~((2 << anchor) - 1))
        if got is not None:
            return got
    return None


def contains_induced_wheel(n: int, rows: tuple[int, ...]) -> bool:
    """Bool view of :func:`find_induced_wheel` on raw bitmask rows."""
    return find_induced_wheel(Graph(n, rows)) is not None


# ---------------------------------------------------------------------------
# 3PCs
# ---------------------------------------------------------------------------


def induced_3pcs(rows: Sequence[int]) -> Iterator[tuple[ThreePcSpec, tuple[int, ...]]]:
    """(canonical spec, ascending vertex tuple) of every vertex subset whose
    induced subgraph is a 3PC, size ascending, then lexicographic.

    Subsets come from :func:`obstructa.graphs.min_degree2_subsets`, which
    never visits a prefix that cannot reach induced degree 2, so sparse
    graphs skip most of the 2^n subsets and dense ones do not.  Each is read
    by :func:`obstructa.families.spec_of_rows`; no subset is labeled.
    """
    for subset, sub in min_degree2_subsets(rows, range(5, len(rows) + 1)):
        spec = spec_of_rows(rows, sub)
        if spec is not None:
            yield spec, subset


def find_induced_3pc(g: Graph) -> Optional[tuple[ThreePcSpec, frozenset[int]]]:
    """The first of :func:`induced_3pcs`, with its vertex set, or None."""
    if g.n > DETECT_3PC_MAX_VERTICES:
        raise TooLarge(f"3PC detection capped at {DETECT_3PC_MAX_VERTICES} vertices")
    hit = next(induced_3pcs(g.rows), None)
    return None if hit is None else (hit[0], frozenset(hit[1]))


def scan_contains_family(n: int, rows: tuple[int, ...], tables) -> bool:
    """Does some induced 3PC of :func:`induced_3pcs` have its spec in
    ``tables`` (from :func:`obstructa.families.family_tables`)?  Kept, with
    its unread ``n``, only for ``perfbench/layers.py``."""
    return any(
        len(subset) in tables and spec in tables[len(subset)][1]
        for spec, subset in induced_3pcs(rows)
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClassificationRecord:
    two_connected: bool
    wheel_free: bool
    contains_3pc: bool
    hamiltonian: bool
    hc_obstruction: bool
    recognized_3pc: Optional[ThreePcSpec]

    def to_dict(self) -> dict:
        return {
            "two_connected": self.two_connected,
            "wheel_free": self.wheel_free,
            "contains_3pc": self.contains_3pc,
            "hamiltonian": self.hamiltonian,
            "hc_obstruction": self.hc_obstruction,
            "recognized_3pc": format_spec(self.recognized_3pc) if self.recognized_3pc else None,
        }


def classify_with(
    g: Graph, recognized: Optional[ThreePcSpec], wheel_free: bool
) -> ClassificationRecord:
    """The record of G from the facts its caller has already decided: the
    spec :func:`obstructa.families.recognize_3pc` gives G, and whether G is
    wheel-free.  A recognized 3PC needs no subset scan.  The rest comes from
    one :func:`obstructa.hamiltonicity.is_hc_obstruction` verdict: a graph
    that is not 2-connected has no Hamiltonian cycle, so its failure reason
    decides both 2-connectivity and Hamiltonicity."""
    verdict = is_hc_obstruction(g)
    return ClassificationRecord(
        two_connected=verdict.failure_reason != "NotTwoConnected",
        wheel_free=wheel_free,
        contains_3pc=recognized is not None or find_induced_3pc(g) is not None,
        hamiltonian=verdict.failure_reason == "Hamiltonian",
        hc_obstruction=verdict.is_obstruction,
        recognized_3pc=recognized,
    )


def classify(g: Graph) -> ClassificationRecord:
    """Full per-graph verdict vector: the 3PC recognition and the wheel search,
    then :func:`classify_with`, which the census survey shares."""
    if g.n > CLASSIFY_MAX_VERTICES:
        raise TooLarge(f"classification capped at {CLASSIFY_MAX_VERTICES} vertices")
    return classify_with(g, recognize_3pc(g), find_induced_wheel(g) is None)
