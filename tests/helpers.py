"""Shared test fixtures-in-code: a zoo of named graphs plus independent
brute-force oracles.  Each oracle avoids the library code path it is
compared with, so agreement tests are two-route checks.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Optional

from hypothesis import strategies as st

from obstructa.canon import canonical_rows
from obstructa.families import ThreePcSpec, build_3pc, specs_with_vertex_count
from obstructa.graphs import Graph, bits, flood, graph_from_edges, induced_rows


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------


def cycle(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def claw() -> Graph:
    return graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])


def diamond() -> Graph:
    return graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


def subdivide_every_edge(g: Graph) -> Graph:
    """Replace each edge by a path of length two through a fresh vertex."""
    edges = []
    nxt = g.n
    for u, v in g.edges():
        edges += [(u, nxt), (nxt, v)]
        nxt += 1
    return graph_from_edges(nxt, edges)


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return graph_from_edges(n, edges)


def relabel(g: Graph, rng) -> Graph:
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def graphs(draw, max_n: int, min_n: int = 0):
    """Hypothesis strategy: a graph on min_n..max_n vertices, any edge set."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if code >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def ham_cycle_brute(g: Graph) -> bool:
    """Permutation enumeration anchored at 0, orientation halved."""
    n = g.n
    if n < 3:
        return False
    rows = g.rows
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        prev = 0
        ok = True
        for v in perm:
            if not rows[prev] >> v & 1:
                ok = False
                break
            prev = v
        if ok and rows[prev] & 1:
            return True
    return False


def ham_path_brute(g: Graph) -> bool:
    n = g.n
    if n == 0:
        return False
    if n == 1:
        return True
    rows = g.rows
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        ok = True
        for a, b in zip(perm, perm[1:]):
            if not rows[a] >> b & 1:
                ok = False
                break
        if ok:
            return True
    return False


def first_ham_path_brute(g: Graph) -> Optional[tuple[int, ...]]:
    """The lexicographically first Hamiltonian path, by permutation order."""
    for perm in itertools.permutations(range(g.n)):
        if g.n and all(g.rows[a] >> b & 1 for a, b in zip(perm, perm[1:])):
            return perm
    return None


def first_ham_cycle_brute(g: Graph) -> Optional[tuple[int, ...]]:
    """The first Hamiltonian cycle, by permutation order, that starts at 0
    with its second vertex below its last."""
    if g.n < 3:
        return None
    for perm in itertools.permutations(range(1, g.n)):
        cyc = (0,) + perm
        if perm[0] < perm[-1] and all(g.rows[a] >> b & 1 for a, b in zip(cyc, perm + (0,))):
            return cyc
    return None


def is_induced_cycle(g: Graph, seq: tuple[int, ...]) -> bool:
    """``seq`` lists, in cycle order, the distinct vertices of an induced cycle."""
    k = len(seq)
    if k < 3 or len(set(seq)) != k:
        return False
    return all(
        g.has_edge(seq[i], seq[j]) == (j - i in (1, k - 1))
        for i in range(k)
        for j in range(i + 1, k)
    )


def _connected_brute(g: Graph, vertices: list[int]) -> bool:
    if not vertices:
        return True
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        u = stack.pop()
        for w in vertices:
            if w not in seen and g.has_edge(u, w):
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def two_connected_brute(g: Graph) -> bool:
    """At least three vertices, connected, and connected after deleting any one vertex."""
    vs = list(range(g.n))
    return (
        g.n >= 3
        and _connected_brute(g, vs)
        and all(_connected_brute(g, [u for u in vs if u != v]) for v in vs)
    )


def special_edges_brute(g: Graph) -> list[tuple[tuple[int, int], int]]:
    """((u, v), w) for every edge uv whose deletion with its ends leaves the
    graph disconnected with {w} a component and N(w) = {u, v}, from the
    definition: components by repeated connectivity tests, in (u, v, w)
    order."""
    out = []
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            continue
        rest = [x for x in range(g.n) if x not in (u, v)]
        if _connected_brute(g, rest):
            continue
        for w in rest:
            alone = all(not g.has_edge(w, x) for x in rest)
            if alone and set(g.neighbors(w)) == {u, v}:
                out.append(((u, v), w))
    return out


def min_degree2_subsets_oracle(rows: tuple[int, ...], sizes):
    """(ascending vertex tuple, bitmask) of every vertex subset whose induced
    subgraph has minimum degree >= 2; sizes in the order given, then
    lexicographic within a size.  Every combination is built, then filtered."""
    n = len(rows)
    pows = [1 << v for v in range(n)]
    for k in sizes:
        for subset in itertools.combinations(range(n), k):
            sub = sum(map(pows.__getitem__, subset))
            for v in subset:
                if (rows[v] & sub).bit_count() < 2:
                    break
            else:
                yield subset, sub


def nonminimal_oracle(g: Graph) -> Optional[tuple[int, ...]]:
    """First proper vertex subset of size >= 3 (size descending, then
    lexicographic) inducing a 2-connected non-Hamiltonian graph; None if
    there is none."""
    for size in range(g.n - 1, 2, -1):
        for subset in itertools.combinations(range(g.n), size):
            sub = Graph(size, induced_rows(g.rows, subset))
            if two_connected_brute(sub) and not ham_cycle_brute(sub):
                return subset
    return None


def is_wheel_brute(g: Graph) -> bool:
    """Whole-graph wheel test written directly from the definition."""
    if g.n < 4:
        return False
    for hub in range(g.n):
        rim = [v for v in range(g.n) if v != hub]
        if sum(1 for v in rim if g.has_edge(hub, v)) < 3:
            continue
        rim_mask = sum(1 << v for v in rim)
        if all((g.rows[v] & rim_mask).bit_count() == 2 for v in rim) and flood(
            g.rows, 1 << rim[0], rim_mask
        ) == rim_mask:
            return True
    return False


def wheel_subset_oracle(g: Graph) -> bool:
    """Induced wheel containment from the definition, over vertex bitmasks:
    some set R of at least three vertices induces a cycle (every induced
    degree is 2 and R is connected) and some vertex outside R has at least
    three neighbours in R."""
    rows = g.rows
    full = (1 << g.n) - 1
    for rim in range(1, full + 1):
        if (
            rim.bit_count() >= 3
            and all((rows[v] & rim).bit_count() == 2 for v in bits(rim))
            and flood(rows, rim & -rim, rim) == rim
            and any((rows[h] & rim).bit_count() >= 3 for h in bits(full & ~rim))
        ):
            return True
    return False


def isomorphic_brute(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism with degree pruning; no canonical forms."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    n = g1.n
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for u in range(v):
                if g1.has_edge(u, v) != g2.has_edge(image[u], w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def threepc_subset_oracle(g: Graph, spec_graphs: dict[int, list[Graph]]) -> Optional[frozenset[int]]:
    """First vertex subset (size ascending, then lexicographic) inducing a 3PC,
    found by brute isomorphism against built specs; None if there is none.

    ``spec_graphs`` maps vertex count to the list of constructed 3PC graphs.
    """
    for size in range(5, g.n + 1):
        candidates = spec_graphs.get(size, [])
        if not candidates:
            continue
        for subset in itertools.combinations(range(g.n), size):
            sub = Graph(size, induced_rows(g.rows, subset))
            for h in candidates:
                if isomorphic_brute(sub, h):
                    return frozenset(subset)
    return None


@functools.lru_cache(maxsize=None)
def _spec_forms(n: int) -> dict:
    """{(edge count, degree sequence): [(spec, canonical rows)]} over the
    specs on n vertices."""
    out: dict = {}
    for spec in specs_with_vertex_count(n):
        h = build_3pc(spec)
        key = (h.edge_count, h.degree_sequence())
        out.setdefault(key, []).append((spec, canonical_rows(h.n, h.rows)))
    return out


def recognize_3pc_oracle(g: Graph) -> Optional[ThreePcSpec]:
    """The spec g is isomorphic to, or None, by canonical-form lookup: each
    spec on g.n vertices with g's edge count and degree sequence is built
    and its canonical rows compared with g's."""
    candidates = _spec_forms(g.n).get((g.edge_count, g.degree_sequence()), [])
    mine = canonical_rows(g.n, g.rows) if candidates else None
    return next((spec for spec, form in candidates if form == mine), None)


def induced_3pcs_oracle(g: Graph) -> Iterator[tuple[ThreePcSpec, tuple[int, ...]]]:
    """(spec, vertex tuple) of every vertex subset inducing a 3PC, size
    ascending, then lexicographic: every combination of minimum induced
    degree 2 goes through :func:`recognize_3pc_oracle`."""
    for subset, _ in min_degree2_subsets_oracle(g.rows, range(5, g.n + 1)):
        spec = recognize_3pc_oracle(Graph(len(subset), induced_rows(g.rows, subset)))
        if spec is not None:
            yield spec, subset


def find_induced_3pc_oracle(g: Graph) -> Optional[tuple[ThreePcSpec, frozenset[int]]]:
    """The first of :func:`induced_3pcs_oracle`, with its vertex set."""
    for spec, subset in induced_3pcs_oracle(g):
        return spec, frozenset(subset)
    return None


def k4_minor_oracle(g: Graph) -> bool:
    """Minor-model enumeration: four disjoint connected sets, pairwise joined."""
    n = g.n
    if n < 4:
        return False
    conn: list[int] = []
    nbr: dict[int, int] = {}
    for s in range(1, 1 << n):
        if flood(g.rows, s & -s, s) == s:
            conn.append(s)
            reach = 0
            for v in bits(s):
                reach |= g.rows[v]
            nbr[s] = reach & ~s
    for a in conn:
        for b in conn:
            if b & a or (b & -b) < (a & -a) or not nbr[a] & b:
                continue
            ab = a | b
            for c in conn:
                if c & ab or (c & -c) < (b & -b) or not (nbr[a] & c and nbr[b] & c):
                    continue
                abc = ab | c
                for d in conn:
                    if d & abc or (d & -d) < (c & -c):
                        continue
                    if nbr[a] & d and nbr[b] & d and nbr[c] & d:
                        return True
    return False


def labeled_class_count(n: int) -> int:
    """Number of isomorphism classes by canonicalizing every labeled graph."""
    seen = set()
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if code >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        seen.add(canonical_rows(n, tuple(rows)))
    return len(seen)


# ---------------------------------------------------------------------------
# reference copies of the generation kernel
# ---------------------------------------------------------------------------


def refine_reference(rows: tuple[int, ...], cells: list[int]) -> list[int]:
    """Equitable refinement counting every vertex's neighbours in every cell
    on every pass, cells split in ascending order of the count tuple."""
    while True:
        changed = False
        out: list[int] = []
        for cm in cells:
            if cm & (cm - 1) == 0:
                out.append(cm)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in bits(cm):
                sig = tuple((rows[v] & m).bit_count() for m in cells)
                groups[sig] = groups.get(sig, 0) | 1 << v
            changed |= len(groups) > 1
            out += [groups[sig] for sig in sorted(groups)]
        if not changed:
            return out
        cells = out


def twin_classes_reference(rows: tuple[int, ...], members: list[int]) -> list[tuple[int, int]]:
    """(least member, size) of each class of u~v, rows equal outside {u, v},
    by union-find over all member pairs."""
    parent = {v: v for v in members}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in itertools.combinations(members, 2):
        d = rows[u] ^ rows[v]
        if d == 0 or d == (1 << u | 1 << v):
            a, b = find(u), find(v)
            parent[max(a, b)] = min(a, b)
    sizes: dict[int, int] = {}
    for v in members:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return sorted(sizes.items())


def group_order(n: int, gens: list[tuple[int, ...]]) -> int:
    """Order of the permutation group generated by ``gens`` (v -> p[v]), by
    Schreier-Sims: grow a base and strong generators until every Schreier
    generator of every level sifts to the identity through the levels below."""
    ident = tuple(range(n))

    def mul(p, q):  # p, then q
        return tuple(q[x] for x in p)

    def inv(p):
        r = [0] * n
        for i, x in enumerate(p):
            r[x] = i
        return tuple(r)

    levels: list[list] = []  # [base point, generators, transversal]

    def orbit(level: list) -> None:
        b, gs, trans = level
        queue = list(trans)
        for x in queue:
            for g in gs:
                if g[x] not in trans:
                    trans[g[x]] = mul(trans[x], g)
                    queue.append(g[x])

    def sift(g, i: int) -> tuple:
        while i < len(levels):
            u = levels[i][2].get(g[levels[i][0]])
            if u is None:
                break
            g = mul(g, inv(u))
            i += 1
        return g, i

    def add(g, first: int) -> None:
        g, j = sift(g, first)
        if g == ident:
            return
        if j == len(levels):
            b = next(x for x in range(n) if g[x] != x)
            levels.append([b, [], {b: ident}])
        for level in levels[first : j + 1]:
            level[1].append(g)
            orbit(level)

    for g in gens:
        add(g, 0)
    changed = True
    while changed:
        changed = False
        for i, (_, gs, trans) in enumerate(levels):
            for x, u in list(trans.items()):
                for g in list(gs):
                    s = mul(mul(u, g), inv(trans[g[x]]))
                    if sift(s, i + 1)[0] != ident:
                        add(s, i + 1)
                        changed = True
    order = 1
    for level in levels:
        order *= len(level[2])
    return order


def labeled_masks_reference(n_parent: int, rows: tuple[int, ...], gens) -> list[int]:
    """Masks that pass ``_child_forms``'s rules and orbit skip for one
    parent, in order: the rule (degree, sum of neighbour degrees) read off
    each child's own rows, and orbits as vertex tuples."""
    n = n_parent + 1
    deg = [r.bit_count() for r in rows]
    done: set[tuple[int, ...]] = set()
    labeled = []
    for d in range(max(deg, default=0), n):
        below = [u for u in range(n_parent) if deg[u] < d]
        for neighbours in itertools.combinations(below, d):
            if neighbours in done:
                continue
            mask = sum(1 << u for u in neighbours)
            child = [r | (mask >> i & 1) << n_parent for i, r in enumerate(rows)] + [mask]
            cdeg = [r.bit_count() for r in child]
            assert max(cdeg) == cdeg[n_parent] == d
            nsum = [sum(cdeg[x] for x in bits(r)) for r in child]
            if any(cdeg[w] == d and nsum[w] > nsum[n_parent] for w in range(n_parent)):
                continue
            orbit = [neighbours]
            done.add(neighbours)
            for m in orbit:
                for p in gens:
                    image = tuple(sorted(p[u] for u in m))
                    if image not in done:
                        done.add(image)
                        orbit.append(image)
            labeled.append(mask)
    return labeled
