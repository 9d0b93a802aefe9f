"""Structural primitives: degree-2 contraction, special edges, chordless and
2-sparse tests, proper 2-cutsets, 2-edge-cutsets, line-graph root recovery,
K4-minor testing, and the two imported-dichotomy checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, Optional

from .errors import AmbiguousMidpoints, NotConnected, NotTwoConnected, PreconditionViolated
from .families import PYRAMID, THETA
from .graphs import (
    Certificate,
    Graph,
    bits,
    component_masks,
    contract_edge,
    find_clique_cutset,
    graph_from_edges,
    induced_subgraph,
    is_connected_masked,
    is_two_connected,
    mask_of,
)
from .detectors import find_induced_wheel, induced_3pcs


# ---------------------------------------------------------------------------
# degree-2 contraction
# ---------------------------------------------------------------------------


def reduce_adjacent_degree2(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Contract edges whose ends both have degree 2 until none remain or only
    a triangle is left.  The log lists each contracted edge in the labeling
    current at its contraction, so it replays through contract_edge.
    """
    if not is_two_connected(g):
        raise NotTwoConnected("degree-2 reduction requires a 2-connected graph")
    log: list[tuple[int, int]] = []
    cur = g
    while not (cur.n == 3 and cur.edge_count == 3):
        pairs = ((u, v) for u, v in cur.edges() if cur.degree(u) == cur.degree(v) == 2)
        target = next(pairs, None)
        if target is None:
            break
        log.append(target)
        cur = contract_edge(cur, target)
    return cur, tuple(log)


# ---------------------------------------------------------------------------
# special edges
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SpecialEdge:
    """Edge {u, v} that is a 2-cutset with a one-vertex side {w}, N(w) = {u, v}."""

    edge: tuple[int, int]
    midpoint: int


def find_special_edges(g: Graph) -> tuple[SpecialEdge, ...]:
    """All (edge, midpoint) pairs, ordered lexicographically by (u, v, w).

    In a 2-connected graph on n >= 4 vertices, (uv, w) is one exactly when
    N(w) = {u, v} and uv is an edge: deleting u and v isolates w, and some
    other vertex remains.
    """
    if not is_two_connected(g):
        raise NotTwoConnected("special edges are defined on 2-connected graphs")
    out = []
    for w, row in enumerate(g.rows):
        if g.n >= 4 and row.bit_count() == 2:
            u, v = bits(row)
            if g.has_edge(u, v):
                out.append(SpecialEdge((u, v), w))
    return tuple(sorted(out, key=lambda s: (s.edge, s.midpoint)))


def reduce_special_edges(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Delete the unique midpoint of every special edge.

    Returns (reduced graph, removed midpoints in original labels); surviving
    vertices are relabeled order-preservingly.  Raises AmbiguousMidpoints
    when some special edge has several midpoints: reducing such graphs is
    outside this operation's contract.
    """
    specials = find_special_edges(g)
    per_edge: dict[tuple[int, int], list[int]] = {}
    for s in specials:
        per_edge.setdefault(s.edge, []).append(s.midpoint)
    for edge, mids in per_edge.items():
        if len(mids) > 1:
            raise AmbiguousMidpoints(f"special edge {edge} has midpoints {sorted(mids)}")
    removed = tuple(sorted(s.midpoint for s in specials))
    return induced_subgraph(g, bits(g.vertex_mask & ~mask_of(removed)))[0], removed


# ---------------------------------------------------------------------------
# chordless graphs
# ---------------------------------------------------------------------------


def _two_disjoint_paths(
    rows: list[int], s: int, t: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two internally disjoint (s,t)-paths between nonadjacent s and t, or
    None if there are none.

    Unit-capacity max flow on the vertex-split network, where node 2v is v's
    entry and 2v + 1 its exit and s and t are one node each, with two BFS
    augmentations; by Menger, both succeed exactly when the paths exist.
    ``arcs[a]`` holds the residual arcs out of node a as a mask, so an
    augmentation flips one bit per arc.  An arc carries flow when it is in
    the network and not in the residual one, and the paths follow those arcs.
    """
    given = [0] * (2 * len(rows))
    for v, row in enumerate(rows):
        exit_ = 2 * v + (v not in (s, t))
        given[exit_] = sum(1 << 2 * w for w in bits(row))
        if exit_ & 1:
            given[2 * v] = 1 << exit_
    arcs = list(given)
    source, sink = 2 * s, 2 * t
    for _ in range(2):
        prev = [0] * len(arcs)
        seen = 1 << source
        frontier = [source]
        while frontier and not seen >> sink & 1:
            nxt = []
            for a in frontier:
                new = arcs[a] & ~seen
                seen |= new
                # an exit offers its arc back into its own entry before the
                # others; the order decides which node claims a successor
                # two nodes share, and so the witness
                back = new & 1 << a - 1 if a & 1 else 0
                for b in chain(bits(back), bits(new ^ back)):
                    prev[b] = a
                    nxt.append(b)
            frontier = nxt
        if not seen >> sink & 1:
            return None
        b = sink
        while b != source:
            a = prev[b]
            arcs[a] ^= 1 << b
            arcs[b] ^= 1 << a
            b = a

    # the source is the one node with two arcs carrying flow; every other
    # node on a path has one, and the entries (even nodes) name the vertices
    paths = []
    for a in bits(given[source] & ~arcs[source]):
        path = [s]
        while a != sink:
            if not a & 1:
                path.append(a // 2)
            a = next(bits(given[a] & ~arcs[a]))
        paths.append((*path, t))
    return paths[0], paths[1]


def is_chordless(g: Graph) -> tuple[bool, Optional[tuple[tuple[int, int], tuple[int, ...]]]]:
    """True iff no cycle has a chord.

    An edge uv is a chord of some cycle exactly when u and v still lie on a
    common cycle after deleting uv, i.e. two internally disjoint (u,v)-paths
    survive there.  On failure returns the chord plus one witness cycle.
    """
    for u, v in g.edges():
        rows = list(g.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        paths = _two_disjoint_paths(rows, u, v)
        if paths is not None:
            p1, p2 = paths
            cycle = p1 + tuple(reversed(p2[1:-1]))
            return False, ((u, v), cycle)
    return True, None


def is_two_sparse(g: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """Every edge must touch a vertex of degree <= 2; returns a violator if not."""
    for u, v in g.edges():
        if g.degree(u) > 2 and g.degree(v) > 2:
            return False, (u, v)
    return True, None


# ---------------------------------------------------------------------------
# proper 2-cutsets and 2-edge-cutsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProperTwoCutsetSplit:
    u: int
    v: int
    side_x: frozenset[int]
    side_y: frozenset[int]


def _split_is_valid(rows: tuple[int, ...], u: int, v: int, xm: int, ym: int) -> bool:
    """Each side has a component touching both u and v, and with u and v
    does not induce a path.  Every component of G - {u, v} touches u or v,
    so side | {u, v} is then connected, and a path exactly when its degrees
    there are at most 2 and sum to 2 * |side| + 2."""
    pair = 1 << u | 1 << v
    for side in (xm, ym):
        if not any(rows[u] & c and rows[v] & c for c in component_masks(rows, side)):
            return False
        within = side | pair
        degrees = [(rows[w] & within).bit_count() for w in bits(within)]
        if max(degrees) <= 2 and sum(degrees) == 2 * side.bit_count() + 2:
            return False
    return True


def find_proper_2_cutset(g: Graph) -> Optional[ProperTwoCutsetSplit]:
    """First valid split: pairs (u, v) in lexicographic order, u < v and
    nonadjacent; side X always holds the component with the least vertex and
    component-to-Y assignments are tried in ascending bitmask order.
    """
    if not is_connected_masked(g.rows, g.vertex_mask):
        raise NotConnected("proper 2-cutset search requires a connected graph")
    full = g.vertex_mask
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            rest = full & ~(1 << u) & ~(1 << v)
            comps = component_masks(g.rows, rest)
            if len(comps) < 2:
                continue
            for assign in range(1, 1 << len(comps) - 1):
                ym = sum(c for i, c in enumerate(comps[1:]) if assign >> i & 1)
                xm = rest ^ ym
                if _split_is_valid(g.rows, u, v, xm, ym):
                    return ProperTwoCutsetSplit(u, v, frozenset(bits(xm)), frozenset(bits(ym)))
    return None


# ---------------------------------------------------------------------------
# line-graph root recovery (Krausz partitions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RootGraphResult:
    root: Graph
    edge_map: tuple[tuple[int, int], ...]  # G-vertex -> edge of root


def _has_claw(g: Graph) -> bool:
    for v in range(g.n):
        nbrs = tuple(bits(g.rows[v]))
        if len(nbrs) < 3:
            continue
        for a, b, c in combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return True
    return False


def krausz_partitions(g: Graph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of E(G) into cliques with every vertex in <= 2 parts.

    Deterministic: the lowest uncovered edge is covered next; candidate
    cliques are tried largest first, then lexicographically.  ``covered[v]``
    masks v's neighbours across edges already in a part, so the lowest
    uncovered edge starts at the first u with an uncovered neighbour above
    it, and adding or removing a part is one XOR per member.
    """
    rows = g.rows
    covered = [0] * g.n
    counts = [0] * g.n

    def rec(start: int, parts: list[tuple[int, ...]]) -> Iterator[tuple]:
        for u in range(start, g.n):
            up = rows[u] & ~covered[u] & -(2 << u)
            if up:
                break
        else:
            yield tuple(parts)
            return
        v = (up & -up).bit_length() - 1
        if counts[u] >= 2 or counts[v] >= 2:
            return
        # cliques through (u, v): since (u, v) is the lowest uncovered edge,
        # any other member w < v would put a covered edge inside the clique,
        # so growing with members above v is exhaustive
        cands: list[tuple[tuple[int, ...], int]] = []

        def grow(members: tuple[int, ...], mm: int, common: int) -> None:
            cands.append((members, mm))
            for w in bits(common):
                if counts[w] < 2 and not covered[w] & mm:
                    grow(members + (w,), mm | 1 << w, common & rows[w] >> w + 1 << w + 1)

        grow((u, v), 1 << u | 1 << v, rows[u] & rows[v] >> v + 1 << v + 1)
        for members, mm in sorted(cands, key=lambda c: (-len(c[0]), c[0])):
            for x in members:
                covered[x] ^= mm ^ 1 << x
                counts[x] += 1
            yield from rec(u, parts + [members])
            for x in members:
                covered[x] ^= mm ^ 1 << x
                counts[x] -= 1

    yield from rec(0, [])


def root_from_partition(g: Graph, parts: tuple[tuple[int, ...], ...]) -> RootGraphResult:
    """Root graph for a Krausz partition: one vertex per part, a pendant
    vertex per G-vertex covered once; each G-vertex becomes a root edge."""
    part_of: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v].append(i)
    nxt = len(parts)
    hedges: list[tuple[int, int]] = []
    for v in range(g.n):
        ps = part_of[v]
        if len(ps) == 2:
            hedges.append((ps[0], ps[1]))
        elif len(ps) == 1:
            hedges.append((ps[0], nxt))
            nxt += 1
        else:  # isolated vertex of g maps to a free-standing root edge
            hedges.append((nxt, nxt + 1))
            nxt += 2
    root = graph_from_edges(nxt, hedges)
    return RootGraphResult(root, tuple(tuple(sorted(e)) for e in hedges))


def recognize_line_graph(g: Graph) -> Optional[RootGraphResult]:
    """Root graph H with L(H) isomorphic to g via edge_map, or None.

    The triangle is the one Whitney-ambiguous connected graph; its root is
    fixed to the triangle-free choice K_{1,3}.
    """
    if not is_connected_masked(g.rows, g.vertex_mask):
        raise NotConnected("line-graph recognition requires a connected graph")
    if g.n == 0:
        return RootGraphResult(graph_from_edges(1, []), ())
    if g.n == 3 and g.edge_count == 3:
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        return RootGraphResult(star, ((0, 1), (0, 2), (0, 3)))
    if _has_claw(g):
        return None  # line graphs are claw-free
    parts = next(krausz_partitions(g), None)
    return None if parts is None else root_from_partition(g, parts)


# ---------------------------------------------------------------------------
# K4 minors
# ---------------------------------------------------------------------------


def has_k4_minor(g: Graph) -> bool:
    """Series-parallel reduction: drop degree<=1 vertices, suppress degree-2
    vertices; the reduction empties exactly the K4-minor-free graphs.

    Removing v ORs its row into each neighbour's row, which joins the two
    neighbours of a degree-2 vertex and collapses parallel edges.
    """
    rows = list(g.rows)
    alive = g.vertex_mask
    queue = list(range(g.n))
    while queue:
        v = queue.pop()
        row = rows[v]
        if not alive >> v & 1 or row.bit_count() > 2:
            continue
        alive ^= 1 << v
        for w in bits(row):
            rows[w] = (rows[w] | row) & ~(1 << v | 1 << w)
            queue.append(w)
    return bool(alive)


def k4_subdivision_witness(g: Graph) -> Optional[Certificate]:
    """Four branch vertices joined by six internally disjoint paths, or None.

    Exists whenever a K4 minor does: K4 has maximum degree 3, so its minors
    lift to subdivisions.
    """
    if not has_k4_minor(g):
        return None
    deg3 = [v for v in range(g.n) if g.degree(v) >= 3]
    pair_order = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def paths_between(a: int, b: int, used: int) -> Iterator[tuple[int, ...]]:
        def walk(path: list[int], seen: int) -> Iterator[tuple[int, ...]]:
            last = path[-1]
            if g.has_edge(last, b):
                yield tuple(path) + (b,)
            for w in bits(g.rows[last] & ~seen & ~used):
                if w != b:
                    yield from walk(path + [w], seen | 1 << w)

        yield from walk([a], 1 << a)

    def assign(i: int, branches: tuple[int, ...], used: int, acc: list) -> Optional[list]:
        if i == 6:
            return acc
        a, b = branches[pair_order[i][0]], branches[pair_order[i][1]]
        for path in paths_between(a, b, used):
            got = assign(i + 1, branches, used | mask_of(path[1:-1]), acc + [path])
            if got is not None:
                return got
        return None

    for branches in combinations(deg3, 4):
        got = assign(0, branches, mask_of(branches), [])
        if got is not None:
            return Certificate("K4Subdivision", (tuple(branches), tuple(got)))
    return None


# ---------------------------------------------------------------------------
# dichotomy checkers for the two imported structure results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DichotomyResult:
    holds: bool
    branch: Optional[str]
    certificate: object


def triangle_free(g: Graph) -> bool:
    return all(not g.rows[u] & g.rows[v] for u, v in g.edges())


def is_only_prism(g: Graph) -> bool:
    """(theta, wheel, pyramid)-free; the plus variants are not excluded."""
    if find_induced_wheel(g) is not None:
        return False
    return not any(
        spec.kind in (THETA, PYRAMID) and not spec.chords for spec, _ in induced_3pcs(g.rows)
    )


def check_only_prism_dichotomy(g: Graph) -> DichotomyResult:
    """Either g is the line graph of a triangle-free chordless graph, or g has
    a clique cutset.  Branches are tested in that order and the first to hold
    is reported; both failing would falsify the imported structure theorem.
    """
    if not is_connected_masked(g.rows, g.vertex_mask):
        raise NotConnected("dichotomy defined for connected graphs")
    if not is_only_prism(g):
        raise PreconditionViolated("input is not an only-prism graph")
    root = recognize_line_graph(g)
    if root is not None and triangle_free(root.root) and is_chordless(root.root)[0]:
        return DichotomyResult(True, "LineGraphRoot", root)
    cutset = find_clique_cutset(g)
    if cutset is not None:
        return DichotomyResult(
            True, "CliqueCutset", Certificate("CliqueCutset", tuple(sorted(cutset[0])))
        )
    return DichotomyResult(False, None, None)


def check_chordless_dichotomy(g: Graph) -> DichotomyResult:
    """Either 2-sparse or a proper 2-cutset exists; 2-sparse is tested first."""
    if not is_two_connected(g):
        raise PreconditionViolated("input must be 2-connected")
    if not is_chordless(g)[0]:
        raise PreconditionViolated("input must be chordless")
    if is_two_sparse(g)[0]:
        return DichotomyResult(True, "TwoSparse", None)
    split = find_proper_2_cutset(g)
    if split is not None:
        return DichotomyResult(
            True,
            "ProperTwoCutset",
            Certificate(
                "ProperTwoCutsetSplit",
                (split.u, split.v, tuple(sorted(split.side_x)), tuple(sorted(split.side_y))),
            ),
        )
    return DichotomyResult(False, None, None)
