"""Exact Hamiltonian cycle/path search and the obstruction decision procedure.

Every question first meets the forced-edge rule of Hamiltonian-cycle
backtracking (Vandegriend & Culberson, JAIR 1998): a Hamiltonian cycle uses
both edges at every degree-2 vertex.  Those forced edges decide exactly when
some vertex has three or more of them (no cycle) or every vertex has two: one
spanning cycle is then the only Hamiltonian cycle, and several cycles rule
one out.  Sparse graphs such as 3PCs and their subgraphs are mostly decided
this way.  The rest go to one search, a complete backtracking over vertex
sequences on the subgraph induced on a vertex mask, with four safe prunings:
a global minimum-degree test, a connectivity test on the unvisited region,
an available-neighbor count for every unvisited vertex, and a closing rule.
Once the path has left its anchor s, an unvisited vertex whose only two
available neighbors include s must be s's closing neighbor, and s has only
one left, so two such vertices cut the branch.  A path search is the cycle
search on the graph plus an apex joined to every vertex.  Branching is
deterministic (anchored start, neighbors ascending), so returned witnesses
are stable across runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import TooLarge
from .graphs import (
    Certificate,
    Graph,
    _cut_vertices,
    _two_connected,
    bits,
    flood,
    min_degree2_subsets,
)

OBSTRUCTION_MAX_VERTICES = 16  # the minimality walk is pruned, but up to 2^n on dense graphs


@dataclass(frozen=True, slots=True)
class HamResult:
    found: bool
    order: Optional[tuple[int, ...]] = None


def _forced_cycle(rows: tuple[int, ...], within: int) -> Optional[tuple[int, ...]]:
    """Decide Hamiltonicity of the subgraph induced on the mask ``within``
    from its forced edges alone, or return None when they do not decide it.

    A Hamiltonian cycle uses both edges at every degree-2 vertex, so it
    contains every such *forced* edge.  A vertex with three or more forced
    edges therefore rules out every cycle, and so do forced edges that give
    every vertex exactly two but split into several cycles.  When they form
    one spanning cycle, any Hamiltonian cycle contains it and so equals it:
    that cycle is the only one, returned anchored at the least vertex s with
    the smaller closing neighbor second.  ``()`` means not Hamiltonian (also
    on fewer than three vertices); None means some vertex has fewer than two
    forced edges and none has more."""
    if within.bit_count() < 3:
        return ()
    forced = [0] * len(rows)
    for v in bits(within):
        r = rows[v] & within
        if r.bit_count() == 2:
            forced[v] |= r
            low = r & -r
            forced[low.bit_length() - 1] |= 1 << v
            forced[(r ^ low).bit_length() - 1] |= 1 << v
    counts = list(map(int.bit_count, forced))
    if max(counts) > 2:
        return ()
    if sum(counts) != 2 * within.bit_count():
        return None
    s = (within & -within).bit_length() - 1
    cycle = [s]
    prev, v = s, (forced[s] & -forced[s]).bit_length() - 1
    while v != s:
        cycle.append(v)
        prev, v = v, (forced[v] ^ 1 << prev).bit_length() - 1
    return tuple(cycle) if len(cycle) == within.bit_count() else ()


def _cycle_search(rows: tuple[int, ...], within: int) -> Optional[tuple[int, ...]]:
    """A Hamiltonian cycle of the subgraph induced on the mask ``within``,
    anchored at its least vertex s with the smaller closing neighbor second,
    or None.  The forced edges (:func:`_forced_cycle`) decide first; when
    they leave the question open, :func:`_backtrack` searches.  A forced
    cycle is the graph's only Hamiltonian cycle, so it is the tuple the
    search would return."""
    cycle = _forced_cycle(rows, within)
    if cycle is None:
        return _backtrack(rows, within)
    return cycle or None


def _backtrack(rows: tuple[int, ...], within: int) -> Optional[tuple[int, ...]]:
    """The backtracking search behind :func:`_cycle_search`, on at least
    three vertices.  Only s's degree is tested up front: the first prune
    tests every other vertex's."""
    s = (within & -within).bit_length() - 1
    if (rows[s] & within).bit_count() < 2:
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
    2-connected and non-Hamiltonian.  Only the subsets of one pass of the
    pruned :func:`obstructa.graphs.min_degree2_subsets` walk over the sizes
    3 to n - 1 can break minimality; dense graphs still cost up to 2^n of
    them.  A subset with no branch vertex is disjoint cycles, so Hamiltonian
    or disconnected, and is skipped; so is one no larger than the largest
    failing subset found so far.  Each subset tested meets the forced edges
    first, then the one 2-connectivity test, and the search last.
    Each failure carries a witness: the least cut vertex, the Hamiltonian
    cycle, or the largest subset that breaks minimality, lexicographically
    first of its size (the walk meets each size in lexicographic order, and
    the pass ends at the first failing subset of size n - 1)."""
    if g.n > OBSTRUCTION_MAX_VERTICES:
        raise TooLarge(f"obstruction check capped at {OBSTRUCTION_MAX_VERTICES} vertices")
    rows, full = g.rows, g.vertex_mask
    if not _two_connected(rows, full):
        cut = _cut_vertices(rows, full)
        witness = Certificate("CutVertex", ((cut & -cut).bit_length() - 1,)) if cut else None
        return ObstructionVerdict(False, "NotTwoConnected", witness)
    cycle = _cycle_search(rows, full)
    if cycle is not None:
        return ObstructionVerdict(False, "Hamiltonian", Certificate("HamCycle", cycle))
    # a Hamiltonian subset cannot break minimality, so a forced cycle skips
    # the 2-connectivity test
    witness = 0
    for sub, branch in min_degree2_subsets(rows, 3, g.n - 1):
        if not branch or sub.bit_count() <= witness.bit_count():
            continue
        cycle = _forced_cycle(rows, sub)
        if cycle or not _two_connected(rows, sub):
            continue
        if cycle is not None or _backtrack(rows, sub) is None:
            witness = sub
            if witness.bit_count() == g.n - 1:
                break
    if witness:
        embedding = Certificate("Embedding", tuple(bits(witness)))
        return ObstructionVerdict(False, "NonMinimal", embedding)
    return ObstructionVerdict(True)
