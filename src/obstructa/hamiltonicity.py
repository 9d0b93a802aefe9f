"""Exact Hamiltonian cycle/path search and the obstruction decision procedure.

There is one search, a complete backtracking over vertex sequences that
finds a Hamiltonian cycle of the subgraph induced on a vertex mask, with four
safe prunings: a global minimum-degree test, a connectivity test on the
unvisited region, an available-neighbor count for every unvisited vertex,
and a closing rule.  Once the path has left its anchor s, an unvisited vertex
whose only two available neighbors include s must be s's closing neighbor,
and s has only one left, so two such vertices cut the branch.  A path search
is the cycle search on the graph plus an apex joined to every vertex.
Branching is deterministic (anchored start, neighbors ascending), so
returned witnesses are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import TooLarge
from .graphs import (
    Certificate,
    Graph,
    _cut_vertices,
    bits,
    flood,
    is_connected_masked,
    min_degree2_subsets,
)

OBSTRUCTION_MAX_VERTICES = 16  # the minimality walk is pruned, but up to 2^n on dense graphs


@dataclass(frozen=True, slots=True)
class HamResult:
    found: bool
    order: Optional[tuple[int, ...]] = None


def _cycle_search(rows: tuple[int, ...], within: int) -> Optional[tuple[int, ...]]:
    """A Hamiltonian cycle of the subgraph induced on the mask ``within``,
    anchored at its least vertex s with the smaller closing neighbor second,
    or None.  Only s's degree is tested up front: the first prune tests
    every other vertex's."""
    s = (within & -within).bit_length() - 1
    if within.bit_count() < 3 or (rows[s] & within).bit_count() < 2:
        return None
    sbit = 1 << s
    path = [s]

    def extend(cur: int, remaining: int) -> bool:
        if not remaining:
            # close the cycle; orientation fixed by path[1] < path[-1]
            return bool(rows[cur] & sbit) and path[1] < path[-1]
        # s still needs its closing neighbor
        if rows[s] & (remaining | 1 << cur) == 0:
            return False
        # every unvisited vertex needs two neighbors among remaining+cur+s,
        # and once the path has left s at most one of them may have s as one
        # of exactly two: each such vertex must be s's closing neighbor
        avail = remaining | 1 << cur | sbit
        closing = sbit if cur != s else 0
        forced = 0
        for w in bits(remaining):
            r = rows[w] & avail
            c = r.bit_count()
            if c < 2:
                return False
            if c == 2 and r & closing:
                forced += 1
                if forced > 1:
                    return False
        # unvisited region plus the current endpoint must be connected
        region = remaining | 1 << cur
        if flood(rows, 1 << cur, region) != region:
            return False
        for w in bits(rows[cur] & remaining):
            path.append(w)
            if extend(w, remaining ^ 1 << w):
                return True
            path.pop()
        return False

    if extend(s, within ^ sbit):
        return tuple(path)
    return None


def find_hamiltonian_cycle(g: Graph) -> HamResult:
    """Exact search; a found cycle starts at 0 with its smaller neighbor second."""
    cycle = _cycle_search(g.rows, g.vertex_mask)
    return HamResult(cycle is not None, cycle)


def find_hamiltonian_path(g: Graph) -> HamResult:
    """Exact search, deterministic: the lexicographically first path.

    This is the cycle search on G plus an apex 0 joined to every vertex (G's
    vertex v becomes v + 1): the apex's neighbors are tried in ascending
    order as the path's start, and the first path starts below its end (else
    its reversal would come first), so the orientation rule rejects nothing
    before it."""
    if g.n == 1:
        return HamResult(True, (0,))
    full = g.vertex_mask
    rows = (full << 1,) + tuple(r << 1 | 1 for r in g.rows)
    cycle = _cycle_search(rows, full << 1 | 1)
    if cycle is None:
        return HamResult(False)
    return HamResult(True, tuple(v - 1 for v in cycle[1:]))


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
    rows, full = g.rows, g.vertex_mask
    cut = _cut_vertices(rows, full)
    if g.n < 3 or cut or not is_connected_masked(rows, full):
        witness = Certificate("CutVertex", ((cut & -cut).bit_length() - 1,)) if cut else None
        return ObstructionVerdict(False, "NotTwoConnected", witness)
    cycle = _cycle_search(rows, full)
    if cycle is not None:
        return ObstructionVerdict(False, "Hamiltonian", Certificate("HamCycle", cycle))
    # each subset is read through its mask: connected, no cut vertex, no cycle
    for subset, sub in min_degree2_subsets(rows, range(g.n - 1, 2, -1)):
        if (
            is_connected_masked(rows, sub)
            and not _cut_vertices(rows, sub)
            and _cycle_search(rows, sub) is None
        ):
            return ObstructionVerdict(False, "NonMinimal", Certificate("Embedding", subset))
    return ObstructionVerdict(True)
