"""Isomorph-free exhaustive generation and the desk-scale theorem census.

Generation is canonical augmentation with canonical deletion (McKay,
"Isomorph-free exhaustive generation", 1998).  A level holds one graph per
isomorphism class on n vertices.  Every graph of the level below (a parent)
is extended by one neighbourhood bitmask of a new vertex per orbit of the
parent's automorphism group, and only where the new vertex maximizes the
vertex invariant (degree, sum of neighbour degrees) in the child.  Of the
maximizers of a graph, the canonical one is the first in its canonical
order (see :func:`obstructa.canon._canonical_search`); its orbit does not
depend on the labeling.  A child is accepted exactly when its new vertex is
in that orbit, which holds without a search when the new vertex is the only
maximizer.  Each class is accepted exactly once:

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

Each new class also gets two facts, decided from its parent P and the new
vertex's mask M when it is accepted, and kept with the level:

* 2-connected: P is connected, |M| >= 2, and M meets every component of
  P - c for every cut vertex c of P, since G - v = P, P - u stays connected
  for a non-cut vertex u, and v joins the components of P - c;
* wheel-free: P is wheel-free (the property is hereditary, so every wheel of
  the child contains the new vertex), M has at most two vertices on every
  induced cycle of P (no hub), and no induced cycle through the new vertex
  has a vertex off it with >= 3 neighbours on it (no rim).

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
from itertools import combinations
from typing import Callable, Iterator, Optional

from .canon import _canonical_search, canonical_rows, encode_form, graph_from_canonical
from .errors import InvalidJobCount, TooLarge
from .families import build_3pc, specs_with_vertex_count
from .graphs import Graph, _cut_vertices, bits, component_masks, encode_graph6, flood
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
    64 items per worker.  A pool round trip costs about 10 ms on 2 cores,
    more than the whole stage below that size (the 34 parents of n = 6 take
    16 ms to extend in one process) and less than half of it above (the
    156 parents of n = 7 take 100 ms).  Generation concatenates the chunks'
    children, which are disjoint and together the children of one process,
    and :func:`_forms_for` sorts the labelings of its chunks, so chunk order
    changes neither.

    Each call's pool starts its workers with the platform's default
    method.  Only module-level functions and picklable arguments cross it,
    so ``fork`` and ``spawn`` compute the same results.
    """
    if jobs == 1 or len(items) <= 64 * jobs:
        return [fn(items)]
    import multiprocessing as mp

    with mp.Pool(jobs) as pool:
        return pool.map(fn, [items[i::jobs] for i in range(jobs)])


def _extension_facts(rows: tuple[int, ...], facts: int) -> Callable[[int, list[int]], int]:
    """For a parent P with these rows and facts byte, the facts byte of the
    child P + v as a function of v's neighbour mask M and the child's rows
    (P's vertices first, then v), by the two rules in :func:`_child_forms`.
    The cut-vertex components and the induced cycles of P are found once."""
    n_parent = len(rows)
    pmask = (1 << n_parent) - 1
    # the components M must meet, or None when no child is 2-connected
    comps = None
    if n_parent >= 2 and flood(rows, 1, pmask) == pmask:
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

    def facts_of(mask: int, child: list[int]) -> int:
        two_connected = comps is not None and mask.bit_count() >= 2 and all(mask & c for c in comps)
        wheel_free = (
            cycles is not None
            and all((mask & c).bit_count() < 3 for c in cycles)
            and find_wheel_through(child, n_parent, pmask) is None
        )
        return two_connected * TWO_CONNECTED | wheel_free * WHEEL_FREE

    return facts_of


def _child_forms(parents: list[tuple[tuple[int, ...], int]]) -> tuple[list[bytes], bytearray]:
    """The one-vertex extensions of the given parents (rows and facts byte,
    all of one size, one per class) that canonical deletion accepts, as
    packed rows (:func:`obstructa.canon.encode_form`) and one facts byte
    each, in walk order.

    For each degree ``d`` from the parent's maximum degree to ``n_parent``,
    the walk takes every ``d``-subset of the vertices of degree below ``d``:
    those end at degree at most ``d`` and the rest keep theirs, so no vertex
    has a higher degree than the new one.  A mask is skipped when it lies in
    the orbit of an earlier mask that passed, under the parent's
    automorphism generators, or when a vertex of degree ``d`` in its child
    has a greater sum of neighbour degrees than the new vertex.  Both skips
    treat all masks of one orbit alike: an automorphism of the parent,
    extended to fix the new vertex, is an isomorphism between their
    children.

    Each parent keeps the neighbour-degree sum of every vertex.  In the
    child the new vertex's sum is its neighbours' parent degrees plus ``d``,
    and a rival's is its parent sum plus its neighbours in the mask, plus
    ``d`` when it is in the mask itself.

    A child in which no rival ties the new vertex's sum is accepted as the
    walk built it (P's vertices first, then v): v is the only maximizer of
    the invariant, so it is the canonical one.  A child with a tie is
    labeled, and accepted when v is in the orbit of the first maximizer in
    the canonical order under the child's automorphism generators; it keeps
    its canonical rows, marked by ``CANONICAL`` in its facts byte.  The
    module docstring shows that every class is accepted exactly once, so
    parents split across workers give disjoint results.

    A child's facts byte comes from :func:`_extension_facts`.  Both rules
    are exact:

    * G = P + v is 2-connected exactly when it has n >= 3 vertices, P is
      connected, |M| >= 2, and M meets every component of P - c for every
      cut vertex c of P.  G - v is P.  For a vertex u of P, G - u is P - u
      with v joined to M - u: when u is no cut vertex of P it is connected,
      since |M| >= 2 leaves v a neighbour, and when u is one it is connected
      exactly when M meets every component of P - u.
    * G is wheel-free exactly when P is, v is no hub and v is on no rim.
      Wheel-freeness is hereditary, so every wheel of a child of a
      wheel-free parent contains v.  v is the hub of one exactly when M has
      three vertices on an induced cycle of P, and on its rim exactly when
      some induced cycle of G through v has a vertex off it with >= 3
      neighbours on it.
    """
    accepted: list[bytes] = []
    accepted_facts = bytearray()
    n_parent = len(parents[0][0]) if parents else 0
    newbit = n_parent
    n = n_parent + 1
    bit = [1 << u for u in range(n)]
    for rows, facts in parents:
        deg = [r.bit_count() for r in rows]
        nsum = [sum([deg[x] for x in bits(r)]) for r in rows]
        gens = [(p, [1 << q for q in p]) for p in _canonical_search(n_parent, rows)[2]]
        facts_of = _extension_facts(rows, facts)
        done: set[int] = set()
        for d in range(max(deg, default=0), n):
            below = [u for u in range(n_parent) if deg[u] < d]
            tied = [(w, nsum[w]) for w in range(n_parent) if deg[w] == d]
            for neighbours in combinations(below, d):
                mask = sum(map(bit.__getitem__, neighbours))
                if mask in done:
                    continue
                mine = sum(map(deg.__getitem__, neighbours)) + d
                # the other vertices of degree d in the child: those of the
                # parent's degree d, and the mask's vertices of degree d - 1,
                # which also neighbour the new vertex; each is paired with
                # its child sum less its neighbours in the mask
                rivals: list[int] | None = []
                for w, base in tied + [(u, nsum[u] + d) for u in neighbours if deg[u] == d - 1]:
                    s = base + (rows[w] & mask).bit_count()
                    if s > mine:
                        rivals = None
                        break
                    if s == mine:
                        rivals.append(w)
                if rivals is None:
                    continue
                orbit = [neighbours]
                done.add(mask)
                for m in orbit:
                    for p, pbit in gens:
                        image = sum(map(pbit.__getitem__, m))
                        if image not in done:
                            done.add(image)
                            orbit.append([p[u] for u in m])
                child = [r | (mask >> i & 1) << newbit for i, r in enumerate(rows)]
                child.append(mask)
                if not rivals:
                    accepted.append(encode_form(n, child))
                    accepted_facts.append(facts_of(mask, child))
                    continue
                form, _, child_gens, order = _canonical_search(n, tuple(child))
                rivals.append(newbit)
                first = next(v for v in order if v in rivals)
                if _in_orbit(child_gens, first, newbit):
                    accepted.append(encode_form(n, form))
                    accepted_facts.append(facts_of(mask, child) | CANONICAL)
    return accepted, accepted_facts


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


def _level(n: int, jobs: int = 1) -> tuple[tuple[bytes, ...], bytes]:
    """One graph per class on ``n`` vertices, as packed rows, and one facts
    byte per graph: the sorted canonical view once :func:`_forms_for` has
    made it, else the children generation accepted, in generation order."""
    if n not in _atlas:
        parents = [(graph_from_canonical(r).rows, x) for r, x in zip(*_level(n - 1, jobs))]
        chunks = _map_chunks(_child_forms, parents, jobs)
        rows = tuple(r for chunk, _ in chunks for r in chunk)
        _atlas[n] = rows, b"".join(facts for _, facts in chunks), False
    rows, facts, _ = _atlas[n]
    return rows, facts


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
    each level as generation left it; none is tested for 2-connectivity or
    wheels, and only counterexamples are labeled."""
    _check_vertex_count(max_n, "verification")
    jobs = resolve_jobs(jobs)
    rows = []
    counterexamples: set[str] = set()
    both = TWO_CONNECTED | WHEEL_FREE
    for n in range(1, max_n + 1):
        level, facts = _level(n, jobs)
        classes = [graph_from_canonical(r) for r, x in zip(level, facts) if x & both == both]
        free = [g for g in classes if find_induced_3pc(g) is None]
        non_hamiltonian = [g for g in free if not find_hamiltonian_cycle(g).found]
        counterexamples.update(map(_canonical_graph6, non_hamiltonian))
        wheel_free_3pcs, obstructions, bad = _check_specs(n)
        counterexamples.update(bad)
        rows.append(
            CensusRow(
                n=n,
                all=len(level),
                two_connected=sum(1 for x in facts if x & TWO_CONNECTED),
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
