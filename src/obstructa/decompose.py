"""Structural primitives: degree-2 contraction, special edges, chordless and
2-sparse tests, proper 2-cutsets, 2-edge-cutsets, line-graph root recovery,
K4-minor testing, and the two imported-dichotomy checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    induced_rows,
    is_connected_masked,
    is_path_graph,
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
    while True:
        if cur.n == 3 and cur.edge_count == 3:
            break
        target = None
        for u, v in cur.edges():
            if cur.degree(u) == 2 and cur.degree(v) == 2:
                target = (u, v)
                break
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
    keep = tuple(v for v in range(g.n) if v not in set(removed))
    return Graph(len(keep), induced_rows(g.rows, keep)), removed


# ---------------------------------------------------------------------------
# chordless graphs
# ---------------------------------------------------------------------------


def _two_disjoint_paths(
    g: Graph, s: int, t: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two internally disjoint (s,t)-paths, or None if there are none.

    Unit-capacity max flow on the vertex-split network with two augmentations;
    by Menger, both succeed exactly when the paths exist.
    """
    inn = lambda v: 2 * v
    out = lambda v: 2 * v if v in (s, t) else 2 * v + 1
    cap: dict[tuple[int, int], int] = {}
    succ: dict[int, list[int]] = {}  # residual adjacency (both directions)
    forward: dict[int, list[int]] = {}  # original arc directions only

    def arc(a: int, b: int) -> None:
        cap[(a, b)] = 1
        cap.setdefault((b, a), 0)
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, []).append(a)
        forward.setdefault(a, []).append(b)

    for v in range(g.n):
        if v not in (s, t):
            arc(inn(v), out(v))
    for u, w in g.edges():
        arc(out(u), inn(w))
        arc(out(w), inn(u))

    source, sink = inn(s), inn(t)
    for _ in range(2):
        prev: dict[int, Optional[int]] = {source: None}
        frontier = [source]
        while frontier and sink not in prev:
            nxt = []
            for a in frontier:
                for b in succ.get(a, ()):
                    if cap.get((a, b), 0) > 0 and b not in prev:
                        prev[b] = a
                        nxt.append(b)
            frontier = nxt
        if sink not in prev:
            return None
        node = sink
        while prev[node] is not None:
            a = prev[node]
            cap[(a, node)] -= 1
            cap[(node, a)] += 1
            node = a

    def walk() -> tuple[int, ...]:
        # follow net flow over original arcs only, consuming as we go
        path = [s]
        node = source
        while node != sink:
            step = None
            for b in forward.get(node, ()):
                if cap[(node, b)] == 0:
                    step = b
                    break
            assert step is not None
            cap[(node, step)] = 1
            node = step
            if path[-1] != node // 2:
                path.append(node // 2)
        return tuple(path)

    return walk(), walk()


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
        stripped = Graph(g.n, tuple(rows))
        paths = _two_disjoint_paths(stripped, u, v)
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


def _split_is_valid(g: Graph, u: int, v: int, xm: int, ym: int) -> bool:
    pair = 1 << u | 1 << v
    for side in (xm, ym):
        if side == 0:
            return False
        # a (u,v)-path inside the side needs one component touching both
        comps = component_masks(g.rows, side)
        if not any(g.rows[u] & c and g.rows[v] & c for c in comps):
            return False
        verts = tuple(bits(side | pair))
        if is_path_graph(Graph(len(verts), induced_rows(g.rows, verts))):
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
            head, tail = comps[0], comps[1:]
            for assign in range(1, 1 << len(tail)):
                xm, ym = head, 0
                for i, c in enumerate(tail):
                    if assign >> i & 1:
                        ym |= c
                    else:
                        xm |= c
                if _split_is_valid(g, u, v, xm, ym):
                    return ProperTwoCutsetSplit(u, v, frozenset(bits(xm)), frozenset(bits(ym)))
    return None


def find_two_edge_cutsets(g: Graph):
    """All edge pairs whose removal disconnects the graph.

    Each item is ((e, f), components, small_side) where small_side flags the
    shape with exactly two components, one a single vertex or single edge.
    """
    if not is_connected_masked(g.rows, g.vertex_mask):
        raise NotConnected("2-edge-cutset search requires a connected graph")
    out = []
    for (a, b), (c, d) in combinations(g.edges(), 2):
        rows = list(g.rows)
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
        rows[c] &= ~(1 << d)
        rows[d] &= ~(1 << c)
        comps = component_masks(tuple(rows), g.vertex_mask)
        if len(comps) < 2:
            continue
        small = len(comps) == 2 and min(cm.bit_count() for cm in comps) <= 2
        out.append((((a, b), (c, d)), tuple(frozenset(bits(cm)) for cm in comps), small))
    return tuple(out)


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
    cliques are tried largest first, then lexicographically.
    """
    edges = g.edges()
    if not edges:
        yield ()
        return
    eidx = {e: i for i, e in enumerate(edges)}
    all_mask = (1 << len(edges)) - 1
    counts = [0] * g.n

    def clique_candidates(u: int, v: int, covered: int) -> list[tuple[int, ...]]:
        # cliques through (u, v): since (u, v) is the lowest uncovered edge,
        # any other member w < v would put a covered edge inside the clique,
        # so growing with members above v is exhaustive
        cands: list[tuple[int, ...]] = []

        def grow(members: tuple[int, ...], common: int) -> None:
            cands.append(members)
            for w in bits(common):
                if counts[w] >= 2:
                    continue
                if any(covered >> eidx[(min(x, w), max(x, w))] & 1 for x in members):
                    continue
                grow(members + (w,), common & g.rows[w] & ~((1 << (w + 1)) - 1))

        grow((u, v), g.rows[u] & g.rows[v] & ~((1 << (v + 1)) - 1))
        return sorted(cands, key=lambda c: (-len(c), c))

    def rec(covered: int, parts: list[tuple[int, ...]]) -> Iterator[tuple]:
        if covered == all_mask:
            yield tuple(parts)
            return
        low = ((covered + 1) & ~covered).bit_length() - 1  # lowest zero bit
        u, v = edges[low]
        if counts[u] >= 2 or counts[v] >= 2:
            return
        for clique in clique_candidates(u, v, covered):
            add = 0
            for x, y in combinations(clique, 2):
                add |= 1 << eidx[(min(x, y), max(x, y))]
            for w in clique:
                counts[w] += 1
            yield from rec(covered | add, parts + [clique])
            for w in clique:
                counts[w] -= 1

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
    for parts in krausz_partitions(g):
        return root_from_partition(g, parts)
    return None


# ---------------------------------------------------------------------------
# K4 minors
# ---------------------------------------------------------------------------


def has_k4_minor(g: Graph) -> bool:
    """Series-parallel reduction: drop degree<=1 vertices, suppress degree-2
    vertices (collapsing parallels on the fly); the reduction empties exactly
    the K4-minor-free graphs.
    """
    adj = {v: set(bits(g.rows[v])) for v in range(g.n)}
    queue = list(adj)
    while queue:
        v = queue.pop()
        if v not in adj:
            continue
        deg = len(adj[v])
        if deg > 2:
            continue
        if deg <= 1:
            for w in adj.pop(v):
                adj[w].discard(v)
                queue.append(w)
            continue
        x, y = adj.pop(v)
        adj[x].discard(v)
        adj[y].discard(v)
        if y not in adj[x]:
            adj[x].add(y)
            adj[y].add(x)
        queue += [x, y]
    return bool(adj)


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
