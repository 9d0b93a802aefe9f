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

from dataclasses import asdict, dataclass
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
    last, and a vertex adjacent to the anchor can only close the cycle.  The
    walk keeps one stack entry per path vertex: the neighbours it has yet to
    try and the candidates for the vertex after it."""
    anchor_bit = 1 << anchor
    path = [anchor]
    on = anchor_bit
    stack = [(rows[anchor] & cand, cand)]
    while stack:
        todo, cand = stack[-1]
        if not todo:
            stack.pop()
            on ^= 1 << path.pop()
            continue
        wbit = todo & -todo
        stack[-1] = (todo ^ wbit, cand)
        w = wbit.bit_length() - 1
        if len(path) == 1:
            nxt = cand & ~wbit
        elif rows[w] & anchor_bit:
            if path[1] < w:
                yield path + [w], on | wbit
            continue
        else:
            nxt = cand & ~rows[path[-1]] & ~wbit
        path.append(w)
        on |= wbit
        stack.append((rows[w] & nxt, nxt))


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

    Each size is one window of :func:`obstructa.graphs.min_degree2_subsets`,
    which never visits a prefix that cannot reach induced degree 2, so
    sparse graphs skip most of the 2^n subsets and dense ones do not; a
    small 3PC is met before any larger subset is walked.  A 3PC has 2, 4 or
    6 branch vertices, so one popcount of the walk's branch mask skips the
    other subsets, and :func:`obstructa.families.spec_of_rows` reads the
    rest from that mask; no subset is labeled.
    """
    for k in range(5, len(rows) + 1):
        for sub, branch in min_degree2_subsets(rows, k, k):
            if branch.bit_count() in (2, 4, 6):
                spec = spec_of_rows(rows, sub, branch)
                if spec is not None:
                    yield spec, tuple(bits(sub))


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
        out = asdict(self)
        out["recognized_3pc"] = format_spec(self.recognized_3pc) if self.recognized_3pc else None
        return out


def classify(g: Graph) -> ClassificationRecord:
    """Full per-graph verdict vector.  A recognized 3PC needs no subset
    scan.  The rest comes from one
    :func:`obstructa.hamiltonicity.is_hc_obstruction` verdict: a graph that
    is not 2-connected has no Hamiltonian cycle, so its failure reason
    decides both 2-connectivity and Hamiltonicity."""
    if g.n > CLASSIFY_MAX_VERTICES:
        raise TooLarge(f"classification capped at {CLASSIFY_MAX_VERTICES} vertices")
    recognized = recognize_3pc(g)
    verdict = is_hc_obstruction(g)
    return ClassificationRecord(
        two_connected=verdict.failure_reason != "NotTwoConnected",
        wheel_free=find_induced_wheel(g) is None,
        contains_3pc=recognized is not None or find_induced_3pc(g) is not None,
        hamiltonian=verdict.failure_reason == "Hamiltonian",
        hc_obstruction=verdict.is_obstruction,
        recognized_3pc=recognized,
    )
