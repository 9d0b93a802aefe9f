"""Exact Hamiltonian cycle/path search and the obstruction decision procedure.

The searches are complete backtracking over vertex sequences with three
safe prunings: a global minimum-degree test, a connectivity test on the
unvisited region, and an available-neighbor count for every unvisited
vertex.  Branching is deterministic (anchored start, neighbors ascending),
so returned witnesses are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import TooLarge
from .graphs import (
    Certificate,
    Graph,
    bits,
    connectivity_report,
    flood,
    induced_rows,
    is_two_connected,
    min_degree2_subsets,
)

OBSTRUCTION_MAX_VERTICES = 16  # the minimality walk is pruned, but up to 2^n on dense graphs


@dataclass(frozen=True, slots=True)
class HamResult:
    found: bool
    order: Optional[tuple[int, ...]] = None


def _cycle_search(n: int, rows: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if n < 3:
        return None
    if any(r.bit_count() < 2 for r in rows):
        return None
    full = (1 << n) - 1
    path = [0]

    def prune(cur: int, visited: int) -> bool:
        remaining = full & ~visited
        # vertex 0 still needs its closing neighbor
        if rows[0] & (remaining | 1 << cur) == 0:
            return True
        # every unvisited vertex needs two neighbors among remaining+cur+0
        avail = remaining | 1 << cur | 1
        for w in bits(remaining):
            if (rows[w] & avail).bit_count() < 2:
                return True
        # unvisited region plus the current endpoint must be connected
        region = remaining | 1 << cur
        return flood(rows, 1 << cur, region) != region

    def extend(cur: int, visited: int) -> bool:
        if visited == full:
            # close the cycle; orientation fixed by path[1] < path[-1]
            return bool(rows[cur] & 1) and path[1] < path[-1]
        if prune(cur, visited):
            return False
        for w in bits(rows[cur] & ~visited):
            path.append(w)
            if extend(w, visited | 1 << w):
                return True
            path.pop()
        return False

    if extend(0, 1):
        return tuple(path)
    return None


def find_hamiltonian_cycle(g: Graph) -> HamResult:
    """Exact search; a found cycle starts at 0 with its smaller neighbor second."""
    cycle = _cycle_search(g.n, g.rows)
    return HamResult(cycle is not None, cycle)


def _path_search(n: int, rows: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if n == 0:
        return None
    if n == 1:
        return (0,)
    full = (1 << n) - 1
    path: list[int] = []

    def prune(cur: int, visited: int) -> bool:
        remaining = full & ~visited
        avail = remaining | 1 << cur
        ones = 0
        for w in bits(remaining):
            c = (rows[w] & avail).bit_count()
            if c == 0:
                return True
            if c == 1:
                ones += 1
                if ones > 1:
                    return True
        region = remaining | 1 << cur
        return flood(rows, 1 << cur, region) != region

    def extend(cur: int, visited: int) -> bool:
        if visited == full:
            return True
        if prune(cur, visited):
            return False
        for w in bits(rows[cur] & ~visited):
            path.append(w)
            if extend(w, visited | 1 << w):
                return True
            path.pop()
        return False

    for start in range(n):
        path = [start]
        if extend(start, 1 << start):
            return tuple(path)
    return None


def find_hamiltonian_path(g: Graph) -> HamResult:
    """Exact search, deterministic: first path in lexicographic DFS order."""
    p = _path_search(g.n, g.rows)
    return HamResult(p is not None, p)


def is_hamiltonian_cycle(g: Graph, order: tuple[int, ...]) -> bool:
    """Re-validate a cycle witness edge by edge."""
    if len(order) != g.n or g.n < 3 or sorted(order) != list(range(g.n)):
        return False
    return all(g.has_edge(order[i], order[(i + 1) % g.n]) for i in range(g.n))


def is_hamiltonian_path(g: Graph, order: tuple[int, ...]) -> bool:
    if len(order) != g.n or sorted(order) != list(range(g.n)):
        return False
    return all(g.has_edge(order[i], order[i + 1]) for i in range(g.n - 1))


@dataclass(frozen=True, slots=True)
class ObstructionVerdict:
    is_obstruction: bool
    failure_reason: Optional[str] = None  # NotTwoConnected | Hamiltonian | NonMinimal
    witness: Optional[Certificate] = None


def is_hc_obstruction(g: Graph) -> ObstructionVerdict:
    """The one obstruction decision: 2-connected, then non-Hamiltonian, then
    minimal, meaning no proper induced subgraph on >= 3 vertices is
    2-connected and non-Hamiltonian.  Only the subsets of the pruned
    :func:`obstructa.graphs.min_degree2_subsets` walk (size descending, then
    lexicographic) can break minimality; dense graphs still cost up to 2^n of
    them.  Each failure carries a witness: the least cut vertex, the
    Hamiltonian cycle, or the first subset that breaks minimality."""
    if g.n > OBSTRUCTION_MAX_VERTICES:
        raise TooLarge(f"obstruction check capped at {OBSTRUCTION_MAX_VERTICES} vertices")
    report = connectivity_report(g)
    if not report.two_connected:
        witness = None
        if report.cut_vertices:
            witness = Certificate("CutVertex", (min(report.cut_vertices),))
        return ObstructionVerdict(False, "NotTwoConnected", witness)
    rows = g.rows
    cycle = _cycle_search(g.n, rows)
    if cycle is not None:
        return ObstructionVerdict(False, "Hamiltonian", Certificate("HamCycle", cycle))
    for subset, _ in min_degree2_subsets(rows, range(g.n - 1, 2, -1)):
        sub = induced_rows(rows, subset)
        if is_two_connected(len(sub), sub) and _cycle_search(len(sub), sub) is None:
            return ObstructionVerdict(False, "NonMinimal", Certificate("Embedding", subset))
    return ObstructionVerdict(True)
