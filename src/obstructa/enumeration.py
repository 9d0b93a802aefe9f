"""Isomorph-free exhaustive generation and the desk-scale theorem census.

Generation is canonical augmentation with canonical deletion (McKay,
"Isomorph-free exhaustive generation", 1998).  A level holds one graph per
isomorphism class on n vertices.  Every graph of the level below (a parent)
is extended by one neighbourhood bitmask of a new vertex per orbit of the
parent's automorphism group, and only where the new vertex maximizes the
vertex invariant (degree, sum of neighbour degrees, twice the number of
edges among the neighbours) in the child; the third coordinate is read only
when the first two tie.  Of the maximizers of a graph, the canonical one is
the first in its canonical order (see
:func:`obstructa.canon._canonical_search`); its orbit does not depend on
the labeling.  A child is accepted exactly when its new vertex is in that
orbit.  Most children decide it without a search, by the steps of
:func:`_child_forms` and :func:`_decide_tie`, which say why each is exact.

Each class is accepted exactly once:

* at least once: a graph G minus its canonical maximizer m is isomorphic to
  some parent P, and mapping m's neighbourhood through that isomorphism
  gives a mask that passes both rules.  The mask the walk takes from its
  orbit gives a child isomorphic to G by a map that takes the new vertex
  into m's orbit, so that child is accepted;
* at most once: two accepted children isomorphic to each other are so by a
  map between their new vertices, since both lie in the orbit of the
  canonical maximizer.  So their parents are isomorphic, hence the same
  parent, and the map is an automorphism of it taking one mask to the
  other; the walk takes one mask per orbit.

So no seen-set is kept, and parents split across workers give disjoint
children.  The census reads each level as generation left it, in
generation order; :func:`enumerate_graphs` reads the sorted canonical view,
which labels each class at most once and is byte-identical from run to run.

Each new class also gets two facts, 2-connected and wheel-free, decided
from its parent and the new vertex's mask when it is accepted, and kept
with the level; :func:`_extension_facts` states both rules and why they are
exact.

The census's largest level, when no earlier call cached it, is walked as a
last level: it is never a parent, so it keeps no graph and no facts byte,
and it is not cached.  It takes the same masks and accepts the same
children, since every mask still passes the degree rule, the
neighbour-degree and triangle rule, the orbit skip and the tie decision;
only the work after acceptance changes.  Each accepted child is counted,
then tested for 2-connectivity, and only a 2-connected child of a
wheel-free parent gets the wheel tests; only the wheel-free 2-connected
children are kept.  The row counts every class, counts the 2-connected
ones and reads only the graphs it keeps, and the same rules decide them,
so the row is the one the full level gives.

The census verifies the main characterization through two checks per n:

* (a) every wheel-free 2-connected class with no induced 3PC has a
  Hamiltonian cycle;
* (b) every wheel-free 3PC spec on n vertices is an HC-obstruction.

When both pass at every size up to n, the theorem holds up to n.  Let G be
a wheel-free HC-obstruction.  It is not Hamiltonian, so by (a) it has an
induced 3PC H, which is wheel-free since G is, and an HC-obstruction by
(b); so H is 2-connected and not Hamiltonian, and G's minimality makes
H = G.  Conversely each wheel-free 3PC is an HC-obstruction by (b).  So,
with no counterexample listed, the wheel-free specs that pass (b) are the
wheel-free HC-obstructions, and no class is classified one by one.

Chorded pyramid variants are HC-obstructions but contain induced wheels
(deleting the chorded path's internals leaves a short pyramid, which is a
wheel under the inclusive convention), so the comparison restricts the 3PC
side to its wheel-free members.  The census still tabulates all 3PCs as the
number of canonical specs on n vertices, which are pairwise non-isomorphic.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

from .canon import (
    _canonical_search,
    _refine,
    _twin_classes,
    canonical_rows,
    encode_form,
    graph_from_canonical,
)
from .errors import InvalidJobCount, TooLarge
from .families import build_3pc, specs_with_vertex_count
from .graphs import Graph, _cut_vertices, bits, component_masks, encode_graph6, is_connected_masked
from .detectors import find_induced_3pc, find_induced_wheel, find_wheel_through, induced_cycles
from .hamiltonicity import find_hamiltonian_cycle, is_hc_obstruction

ENUMERATION_MAX_VERTICES = 9

# the facts byte of a class
TWO_CONNECTED = 1
WHEEL_FREE = 2
# in a level's facts byte: the graph's packed rows are its canonical form
CANONICAL = 4

# n -> one graph per class on n vertices as packed rows, one facts byte per
# graph, and whether they are the sorted canonical forms (see _level)
_atlas: dict[int, tuple[tuple[bytes, ...], bytes, bool]] = {
    0: ((bytes([0]),), bytes([WHEEL_FREE | CANONICAL]), True)
}


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``jobs`` if given, else ``OBSTRUCTA_JOBS``, else 1."""
    source = "jobs"
    if jobs is None:
        env = os.environ.get("OBSTRUCTA_JOBS")
        if not env:
            return 1
        source = "OBSTRUCTA_JOBS"
        try:
            jobs = int(env)
        except ValueError:
            raise InvalidJobCount(f"OBSTRUCTA_JOBS={env!r} is not an integer") from None
    if jobs < 1:
        raise InvalidJobCount(f"{source} must be at least 1, got {jobs}")
    return jobs


def _map_chunks(fn: Callable, items: list, jobs: int) -> list:
    """``[fn(items[i::jobs]) for i in range(jobs)]`` across ``jobs``
    processes, or ``[fn(items)]`` in this process when there are at most
    64 items per worker.  On 2 cores an empty round trip through a fresh
    2-worker pool costs 4-11 ms, about the whole stage below that size (the
    34 parents of n = 6 take 5-12 ms to extend in one process).  Just above
    it the pool about breaks even: the 156 parents of n = 7 take 28-40 ms
    in one process and 22-55 ms through the pool.  Well above it the pool
    wins: the 1,044 parents of n = 8 take 0.24-0.36 s in one process and
    0.13-0.30 s through it.  (Each range spans phases in which the shared
    host ran up to twice as fast.)  Generation concatenates the chunks'
    children, which are disjoint and together the children of one process,
    a last level adds up their counts, and :func:`_forms_for` sorts the
    labelings of its chunks, so chunk order changes none of them.

    Each call's pool starts its workers with the platform's default
    method.  Only module-level functions, partials of them and picklable
    arguments cross it, so ``fork`` and ``spawn`` compute the same results.
    """
    if jobs == 1 or len(items) <= 64 * jobs:
        return [fn(items)]
    import multiprocessing as mp

    with mp.Pool(jobs) as pool:
        return pool.map(fn, [items[i::jobs] for i in range(jobs)])


def _extension_facts(
    rows: tuple[int, ...], facts: int
) -> tuple[Callable[[int], bool], Callable[[int], bool]]:
    """For a parent P with these rows and facts byte, two tests on the
    neighbour mask M of a new vertex v: whether the child G = P + v is
    2-connected, and whether v is no hub of a wheel of G while P is
    wheel-free.  G is then wheel-free exactly when also
    ``find_wheel_through(child, n_parent, pmask)`` finds no wheel on G's
    rows (P's vertices first, then v) with ``pmask`` the vertices of P.
    The cut-vertex components and the induced cycles of P are found once.
    Both rules are exact:

    * G is 2-connected exactly when it has n >= 3 vertices, P is connected,
      |M| >= 2, and M meets every component of P - c for every cut vertex c
      of P.  G - v is P.  For a vertex u of P, G - u is P - u with v joined
      to M - u: when u is no cut vertex of P it is connected, since
      |M| >= 2 leaves v a neighbour, and when u is one it is connected
      exactly when M meets every component of P - u.
    * G is wheel-free exactly when P is, v is no hub and v is on no rim.
      Wheel-freeness is hereditary, so every wheel of a child of a
      wheel-free parent contains v.  v is the hub of one exactly when M has
      three vertices on an induced cycle of P, and on its rim exactly when
      some induced cycle of G through v has a vertex off it with >= 3
      neighbours on it.
    """
    n_parent = len(rows)
    pmask = (1 << n_parent) - 1
    # the components M must meet, or None when no child is 2-connected
    comps = None
    if n_parent >= 2 and is_connected_masked(rows, pmask):
        cut = _cut_vertices(rows, pmask)
        comps = [c for x in bits(cut) for c in component_masks(rows, pmask & ~(1 << x))]
    # the parent's induced cycles, or None when every child has a wheel
    cycles = None
    if facts & WHEEL_FREE:
        cycles = [
            rim
            for a in range(n_parent)
            for _, rim in induced_cycles(rows, a, pmask & ~((2 << a) - 1))
        ]

    def two_connected(mask: int) -> bool:
        return comps is not None and mask.bit_count() >= 2 and all(mask & c for c in comps)

    def hub_free(mask: int) -> bool:
        return cycles is not None and all((mask & c).bit_count() < 3 for c in cycles)

    return two_connected, hub_free


def _child_forms(
    parents: list[tuple[tuple[int, ...], int]], last: bool = False
) -> tuple[list[bytes], bytearray] | tuple[int, int, list[bytes]]:
    """The one-vertex extensions of the given parents (rows and facts byte,
    all of one size, one per class) that canonical deletion accepts, as
    packed rows (:func:`obstructa.canon.encode_form`) and one facts byte
    each, in walk order; with ``last``, only their number, the number of
    2-connected ones and the packed rows of the wheel-free 2-connected
    ones.

    For each degree ``d`` from the parent's maximum degree to ``n_parent``,
    the walk takes every ``d``-subset of the vertices of degree below ``d``:
    those end at degree at most ``d`` and the rest keep theirs, so no vertex
    has a higher degree than the new one.  A mask is skipped when it lies in
    the orbit of an earlier mask that passed, under the parent's
    automorphism generators, or when a vertex of degree ``d`` in its child
    beats the new vertex on (sum of neighbour degrees, twice the number of
    edges among its neighbours).  Both skips treat all masks of one orbit
    alike: an automorphism of the parent, extended to fix the new vertex,
    is an isomorphism between their children.

    Each parent keeps, for every vertex, its neighbour-degree sum and
    ``tri``, twice the number of edges among its neighbours.  The vertices
    below ``d`` are ``(bit, degree, row, index)`` tuples built once per
    ``d``, so one pass over a combination gives the mask and the new
    vertex's sum: its neighbours' parent degrees plus ``d``.  The rows
    serve the triangle count when the sums tie and the indices the child of
    a mask that passes; no list is built for a mask that does not.  The
    inner loops are written out, since on Python 3.11 a comprehension is a
    function call that costs more than their few steps.  A rival's sum is
    its parent sum plus its neighbours in the mask, plus ``d`` when it is
    in the mask itself.  The rivals come from one list built per ``d``: the
    parent's vertices of degree ``d``, and those of degree ``d - 1``, which
    are rivals only when in the mask.  Only when the sums tie are the
    triangle counts read: the new vertex's is the sum over u in M of
    |N(u) ∩ M|, and a rival w's is ``tri[w]`` plus ``2·|N(w) ∩ M|`` when w
    is in M, since v is then a neighbour of w adjacent to exactly those.  A
    rival with more rejects the mask, and one with fewer is no rival.  Orbit
    images are masks too: each generator is kept as a few (shift, target)
    pairs, one per distance its vertices move, so an image is a handful of
    shifts and ands with no vertex list.

    A child in which no rival ties the new vertex on all three coordinates
    is accepted as the walk built it (P's vertices first, then v): v is the
    only maximizer of the invariant, so it is the canonical one.  A child
    with a tie goes to :func:`_decide_tie`; one that it labels keeps its
    canonical rows, marked by ``CANONICAL`` in its facts byte.  The module
    docstring shows that every class is accepted exactly once, so parents
    split across workers give disjoint results.  A child's facts byte comes
    from :func:`_extension_facts` and :func:`obstructa.detectors.find_wheel_through`.

    ``last`` is for a level that is never a parent, and changes only the
    work done on a child once it is accepted: the 2-connectivity test from
    the mask, then, for a 2-connected child of a wheel-free parent, the
    hub test, then the rim test, which alone needs the child's rows; so
    only a tie or a rim test builds them.  Only the wheel-free 2-connected
    children are packed.
    """
    accepted: list[bytes] = []
    accepted_facts = bytearray()
    classes = two_connected_classes = 0
    n_parent = len(parents[0][0]) if parents else 0
    n = n_parent + 1
    vbit = 1 << n_parent
    for rows, facts in parents:
        deg = [r.bit_count() for r in rows]
        nsum = []
        tri = []
        for r in rows:
            s = t = 0
            for x in bits(r):
                s += deg[x]
                t += (rows[x] & r).bit_count()
            nsum.append(s)
            tri.append(t)
        # each generator as its moves: (k, dst) takes the bits of a mask
        # shifted up by n_parent to their images dst by shifting down by k
        gens = []
        for p in _parent_generators(n_parent, rows):
            moves: dict[int, int] = {}
            for u, q in enumerate(p):
                moves[n_parent + u - q] = moves.get(n_parent + u - q, 0) | 1 << q
            gens.append(list(moves.items()))
        two_connected, hub_free = _extension_facts(rows, facts)
        done: set[int] = set()
        for d in range(max(deg, default=0), n):
            below = [(1 << u, deg[u], rows[u], u) for u in range(n_parent) if deg[u] < d]
            # the other vertices of degree d in the child: those of the
            # parent's degree d, and those of degree d - 1 when in the mask
            # (lifted), which then also neighbour the new vertex; each with
            # its bit, whether it is lifted, its row, its child sum less its
            # neighbours in the mask, and its parent triangle count
            rivals_of_d = [
                (1 << w, False, rows[w], nsum[w], tri[w]) for w in range(n_parent) if deg[w] == d
            ] + [
                (1 << w, True, rows[w], nsum[w] + d, tri[w])
                for w in range(n_parent)
                if deg[w] == d - 1
            ]
            for combo in combinations(below, d):
                mask = 0
                mine = d
                for b, k, _, _ in combo:
                    mask |= b
                    mine += k
                if mask in done:
                    continue
                mine_tri = -1
                rivals = 0
                for wbit, lifted, row, base, t in rivals_of_d:
                    if lifted and not mask & wbit:
                        continue
                    common = (row & mask).bit_count()
                    s = base + common
                    if s < mine:
                        continue
                    if s == mine:
                        if mine_tri < 0:
                            mine_tri = 0
                            for _, _, r, _ in combo:
                                mine_tri += (r & mask).bit_count()
                        t += 2 * common * lifted
                        if t < mine_tri:
                            continue
                        if t == mine_tri:
                            rivals |= wbit
                            continue
                    # w beats the new vertex
                    rivals = -1
                    break
                if rivals < 0:
                    continue
                orbit = [mask]
                done.add(mask)
                for m in orbit:
                    m <<= n_parent
                    for moves in gens:
                        image = 0
                        for k, dst in moves:
                            image |= m >> k & dst
                        if image not in done:
                            done.add(image)
                            orbit.append(image)
                if last:
                    child = None
                    if rivals:
                        child = _grow(rows, mask)
                        if _decide_tie(n, child, rivals) is None:
                            continue
                    classes += 1
                    if not two_connected(mask):
                        continue
                    two_connected_classes += 1
                    if hub_free(mask):
                        child = child or _grow(rows, mask)
                        if not find_wheel_through(child, n_parent, vbit - 1):
                            accepted.append(encode_form(n, child))
                    continue
                child = list(rows)
                for _, _, _, u in combo:
                    child[u] |= vbit
                child.append(mask)
                kept = _decide_tie(n, child, rivals) if rivals else (child, 0)
                if kept is not None:
                    form, labeled = kept
                    wheel_free = hub_free(mask) and not find_wheel_through(child, n_parent, vbit - 1)
                    accepted.append(encode_form(n, form))
                    accepted_facts.append(
                        two_connected(mask) * TWO_CONNECTED | wheel_free * WHEEL_FREE | labeled
                    )
    if last:
        return classes, two_connected_classes, accepted
    return accepted, accepted_facts


def _grow(rows: tuple[int, ...], mask: int) -> list[int]:
    """The rows of a parent plus a new vertex with neighbour mask ``mask``:
    the parent's vertices first, then the new one."""
    vbit = 1 << len(rows)
    child = [r | vbit if mask >> u & 1 else r for u, r in enumerate(rows)]
    child.append(mask)
    return child


def _parent_generators(n: int, rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of a parent, as permutation
    tuples.  Every automorphism fixes each cell of the root equitable
    partition, and any permutation of a twin class is an automorphism, so
    when every cell of more than one vertex is one twin class the group is
    the product of the symmetric groups on those cells, generated by the
    transpositions :func:`obstructa.canon._twin_classes` records (none when
    the partition is discrete).  Only the other parents are searched, from
    that root partition."""
    if n < 2:
        return []
    full = (1 << n) - 1
    root = _refine(n, rows, [full], [full])
    merges: set[tuple[int, int]] = set()
    for c in root:
        if c & (c - 1) and len(_twin_classes(rows, list(bits(c)), merges)) > 1:
            return _canonical_search(n, rows, root)[2]
    gens = []
    for u, v in sorted(merges):
        perm = list(range(n))
        perm[u], perm[v] = v, u
        gens.append(tuple(perm))
    return gens


def _decide_tie(n: int, child: list[int], rivals: int) -> Optional[tuple[Sequence[int], int]]:
    """Canonical deletion for a child whose new vertex v = n - 1 ties the
    vertices of the mask ``rivals`` on (degree, sum of neighbour degrees,
    twice the number of edges among the neighbours): None when v is not in
    the orbit of the canonical maximizer, else the rows to keep and the
    facts bit they carry, ``(child, 0)`` as built or ``(form, CANONICAL)``
    when the child was labeled.  The maximizers are v and the rivals.
    Steps, in order:

    * twins: when every rival w is a twin of v (their rows agree outside
      {v, w}), every maximizer is in v's orbit: accept, with no refinement;
    * root cell: refine the unit partition once and take C, the first root
      cell holding a maximizer.  Reject when v is not in C, and accept when
      every other maximizer in C is a twin of v;
    * search: label the child from that root partition, and accept it when
      v is in the orbit of the first maximizer of the canonical order.

    The first two steps are exact:

    * a twin w of v gives the automorphism (v w), which puts w in v's orbit;
    * the canonical maximizer is in C.  Every leaf of the canonical search
      lists the root cells in their order, since individualizing a vertex
      and refining split a cell in place, so the first maximizer of the
      canonical order is in the first cell that holds one.  A cell of an
      equitable partition has one degree and one count against each cell,
      hence one neighbour-degree sum, but not one count of edges among the
      neighbours, so C can hold non-maximizers too; the twin test reads
      only ``C & maximizers``, where the canonical maximizer is.  The root
      partition is isomorphism-invariant, so each automorphism orbit lies
      inside one cell: v outside C is not in the canonical maximizer's
      orbit, and v in C whose fellow maximizers there are its twins is.
    """
    v = n - 1
    vbit = 1 << v
    mask = child[v]

    def twins(ws: int) -> bool:
        return all(child[w] & ~vbit == mask & ~(1 << w) for w in bits(ws))

    if twins(rivals):
        return child, 0
    rows = tuple(child)
    maximizers = rivals | vbit
    full = (1 << n) - 1
    root = _refine(n, rows, [full], [full])
    cell = next(c for c in root if c & maximizers) & maximizers
    if not cell & vbit:
        return None
    if twins(cell & ~vbit):
        return child, 0
    form, _, gens, order = _canonical_search(n, rows, root)
    first = next(u for u in order if maximizers >> u & 1)
    return (form, CANONICAL) if _in_orbit(gens, first, v) else None


def _in_orbit(gens: list[tuple[int, ...]], u: int, v: int) -> bool:
    """Whether the group the permutations ``gens`` generate maps u to v."""
    orbit = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for p in gens:
            if p[w] not in orbit:
                orbit.add(p[w])
                stack.append(p[w])
    return v in orbit


def _children(n: int, jobs: int, last: bool = False) -> list:
    """The chunks of :func:`_child_forms` over the classes on ``n - 1``
    vertices."""
    parents = [(graph_from_canonical(r).rows, x) for r, x in zip(*_level(n - 1, jobs))]
    return _map_chunks(partial(_child_forms, last=last), parents, jobs)


def _level(n: int, jobs: int = 1) -> tuple[tuple[bytes, ...], bytes]:
    """One graph per class on ``n`` vertices, as packed rows, and one facts
    byte per graph: the sorted canonical view once :func:`_forms_for` has
    made it, else the children generation accepted, in generation order."""
    if n not in _atlas:
        chunks = _children(n, jobs)
        rows = tuple(r for chunk, _ in chunks for r in chunk)
        _atlas[n] = rows, b"".join(facts for _, facts in chunks), False
    rows, facts, _ = _atlas[n]
    return rows, facts


def _census_level(n: int, jobs: int, last: bool) -> tuple[int, int, list[bytes]]:
    """The number of classes on ``n`` vertices, the number of 2-connected
    ones, and one graph per wheel-free 2-connected class as packed rows.
    A ``last`` level that is not cached is walked with ``last`` set, and
    not cached (see the module docstring); any other is read from
    :func:`_level`."""
    if last and n not in _atlas:
        chunks = _children(n, jobs, last=True)
        kept = [r for _, _, rows in chunks for r in rows]
        return sum(c[0] for c in chunks), sum(c[1] for c in chunks), kept
    level, facts = _level(n, jobs)
    both = TWO_CONNECTED | WHEEL_FREE
    kept = [r for r, x in zip(level, facts) if x & both == both]
    return len(level), sum(1 for x in facts if x & TWO_CONNECTED), kept


def _label(graphs: list[tuple[bytes, int]]) -> list[tuple[bytes, int]]:
    """The canonical form of each packed graph, with its facts byte marked
    ``CANONICAL``."""
    out = []
    for packed, x in graphs:
        g = graph_from_canonical(packed)
        out.append((encode_form(g.n, canonical_rows(g.n, g.rows)), x | CANONICAL))
    return out


def _forms_for(n: int, jobs: int = 1) -> tuple[tuple[bytes, ...], bytes]:
    """The sorted canonical forms of the classes on ``n`` vertices, and one
    facts byte (``TWO_CONNECTED | WHEEL_FREE | CANONICAL`` bits) per form.
    Only the graphs of the level that generation accepted unlabeled are
    labeled here, so each class is labeled once; the view then replaces
    the level."""
    rows, facts = _level(n, jobs)
    if not _atlas[n][2]:
        graphs = list(zip(rows, facts))
        unlabeled = [g for g in graphs if not g[1] & CANONICAL]
        graphs = [g for g in graphs if g[1] & CANONICAL]
        for chunk in _map_chunks(_label, unlabeled, jobs):
            graphs += chunk
        graphs.sort()
        _atlas[n] = tuple(f for f, _ in graphs), bytes(x for _, x in graphs), True
    return _atlas[n][:2]


def _check_vertex_count(n: int, stage: str) -> None:
    if n > ENUMERATION_MAX_VERTICES:
        raise TooLarge(f"{stage} capped at {ENUMERATION_MAX_VERTICES} vertices")
    if n < 0:
        raise TooLarge("vertex count must be nonnegative")


def enumerate_graphs(n: int, jobs: Optional[int] = None) -> Iterator[Graph]:
    """One canonically labeled representative per isomorphism class, in
    sorted canonical-form order.

    The vertex cap and the worker count are checked at call time; generation
    starts at the first ``next()``.
    """
    _check_vertex_count(n, "enumeration")
    jobs = resolve_jobs(jobs)

    def representatives() -> Iterator[Graph]:
        for form in _forms_for(n, jobs)[0]:
            yield graph_from_canonical(form)

    return representatives()


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CensusRow:
    n: int
    all: int
    two_connected: int
    wheel_free_2conn: int
    three_pc_free_among_those: int
    hamiltonian_among_those: int
    hc_obstructions_wheel_free: int
    recognized_3pcs: int
    wheel_free_3pcs: int

    def to_dict(self) -> dict:
        return asdict(self)


CSV_COLUMNS = tuple(f.name for f in fields(CensusRow))


@dataclass(frozen=True, slots=True)
class CensusReport:
    max_n: int
    rows: tuple[CensusRow, ...]
    counterexamples: tuple[str, ...]

    def to_json(self) -> str:
        import json

        payload = {
            "max_n": self.max_n,
            "rows": [r.to_dict() for r in self.rows],
            "counterexamples": list(self.counterexamples),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            d = r.to_dict()
            lines.append(",".join(str(d[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        widths = [max(len(c), 6) for c in CSV_COLUMNS]
        lines = ["  ".join(c.rjust(w) for c, w in zip(CSV_COLUMNS, widths))]
        for r in self.rows:
            d = r.to_dict()
            lines.append("  ".join(str(d[c]).rjust(w) for c, w in zip(CSV_COLUMNS, widths)))
        if self.counterexamples:
            lines.append("counterexamples: " + " ".join(self.counterexamples))
        else:
            lines.append("counterexamples: none")
        return "\n".join(lines) + "\n"


def _check_specs(n: int) -> tuple[int, int, list[str]]:
    """Check (b) on n vertices: the number of wheel-free 3PC specs, how many
    of them pass :func:`obstructa.hamiltonicity.is_hc_obstruction`, and the
    graph6 of the canonical form of each one that fails."""
    wheel_free = [
        g for g in map(build_3pc, specs_with_vertex_count(n)) if find_induced_wheel(g) is None
    ]
    failed = [g for g in wheel_free if not is_hc_obstruction(g).is_obstruction]
    return len(wheel_free), len(wheel_free) - len(failed), list(map(_canonical_graph6, failed))


def _canonical_graph6(g: Graph) -> str:
    return encode_graph6(Graph(g.n, canonical_rows(g.n, g.rows)))


def verify_main_theorem(max_n: int, jobs: Optional[int] = None) -> CensusReport:
    """Census plus the graph6 of every counterexample, sorted: each
    wheel-free 2-connected class with no induced 3PC and no Hamiltonian
    cycle (check (a)), and each wheel-free 3PC spec that is no
    HC-obstruction (check (b)).  The classes come from the facts bytes of
    each level as generation left it, except level ``max_n`` when it is not
    cached: that one is walked as a last level, which counts its classes
    and keeps only the wheel-free 2-connected ones, and it stays uncached.
    No class is tested for 2-connectivity or wheels apart from generation's
    rules, and only counterexamples are labeled."""
    _check_vertex_count(max_n, "verification")
    jobs = resolve_jobs(jobs)
    rows = []
    counterexamples: set[str] = set()
    for n in range(1, max_n + 1):
        count, two_connected, kept = _census_level(n, jobs, n == max_n)
        classes = [graph_from_canonical(r) for r in kept]
        free = [g for g in classes if find_induced_3pc(g) is None]
        non_hamiltonian = [g for g in free if not find_hamiltonian_cycle(g).found]
        counterexamples.update(map(_canonical_graph6, non_hamiltonian))
        wheel_free_3pcs, obstructions, bad = _check_specs(n)
        counterexamples.update(bad)
        rows.append(
            CensusRow(
                n=n,
                all=count,
                two_connected=two_connected,
                wheel_free_2conn=len(classes),
                three_pc_free_among_those=len(free),
                hamiltonian_among_those=len(free) - len(non_hamiltonian),
                hc_obstructions_wheel_free=obstructions,
                recognized_3pcs=len(specs_with_vertex_count(n)),
                wheel_free_3pcs=wheel_free_3pcs,
            )
        )
    return CensusReport(max_n, tuple(rows), tuple(sorted(counterexamples)))


def census(max_n: int, jobs: Optional[int] = None) -> CensusReport:
    """Count table only: :func:`verify_main_theorem` without its counterexamples."""
    return replace(verify_main_theorem(max_n, jobs), counterexamples=())
