"""Small simple graphs as immutable bitset-adjacency values.

Vertices are always the dense range 0..n-1 with n <= 64, so every adjacency
row fits in one machine word (a Python int used as a bitmask).  Graph values
are frozen, hashable, and safe to share between threads; every operation in
this module is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CapacityExceeded,
    EdgeAbsent,
    MalformedGraph6,
    NotConnected,
    SelfLoop,
    VertexOutOfRange,
)

MAX_VERTICES = 64
GRAPH6_MAX_VERTICES = 62  # short form only; long forms are out of scope


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask rows."""

    n: int
    rows: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.rows[v])

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(r):
                out.append((u, v))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


@dataclass(frozen=True, slots=True)
class Certificate:
    """Tagged witness re-validatable against the graph it was issued for.

    Tags and payloads:
      HamCycle                  -- vertex sequence
      CutVertex                 -- (v,)
      CliqueCutset              -- sorted vertex tuple
      Embedding                 -- sorted vertex tuple of an induced subgraph
      K4Subdivision             -- (branch 4-tuple, six path tuples)
      ProperTwoCutsetSplit      -- (u, v, X tuple, Y tuple)
    """

    tag: str
    payload: tuple


def _check_vertex(v: int, n: int) -> None:
    if not isinstance(v, int) or v < 0 or v >= n:
        raise VertexOutOfRange(f"vertex {v!r} outside 0..{n - 1}")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an unordered edge list; duplicates are tolerated."""
    if n < 0 or n > MAX_VERTICES:
        raise CapacityExceeded(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise SelfLoop(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6 codec (short form, printable bytes 63..126)
# ---------------------------------------------------------------------------


def encode_graph6(g: Graph) -> str:
    """Encode with the upper-triangle column-major convention, n <= 62."""
    if g.n > GRAPH6_MAX_VERTICES:
        raise CapacityExceeded(f"graph6 short form holds at most {GRAPH6_MAX_VERTICES} vertices")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    """Inverse of :func:`encode_graph6`; rejects long forms and bad bytes."""
    data = text.strip()
    if not data:
        raise MalformedGraph6("empty graph6 string")
    codes = [ord(c) for c in data]
    if any(c < 63 or c > 126 for c in codes):
        raise MalformedGraph6("graph6 bytes must lie in 63..126")
    n = codes[0] - 63
    if n > GRAPH6_MAX_VERTICES:
        raise MalformedGraph6("long-form graph6 (n > 62) is not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    body = codes[1:]
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} payload bytes for n={n}, got {len(body)}")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[pos // 6] - 63
            if byte >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# edge-list text format used by the CLI ("n" then one "u v" line per edge)
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedGraph6("empty edge-list input")
    try:
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except ValueError as exc:
        raise MalformedGraph6(f"bad edge-list line: {exc}") from exc
    return graph_from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    return "\n".join([str(g.n)] + [f"{u} {v}" for u, v in g.edges()]) + "\n"


# ---------------------------------------------------------------------------
# induced subgraphs and contraction
# ---------------------------------------------------------------------------


def induced_rows(rows: Sequence[int], vertices: Sequence[int]) -> tuple[int, ...]:
    """Rows of the induced subgraph on ``vertices``, relabeled 0..k-1 in the
    given order."""
    out = []
    for v in vertices:
        rv = rows[v]
        r = 0
        for i, u in enumerate(vertices):
            r |= (rv >> u & 1) << i
        out.append(r)
    return tuple(out)


def min_degree2_subsets(rows: Sequence[int], lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(vertex mask, branch mask) of every vertex subset of ``lo`` to ``hi``
    vertices whose induced subgraph has minimum degree >= 2, in
    lexicographic order of the ascending vertex lists, so a subset comes
    right before its extensions.  The branch mask holds the subset's
    vertices with >= 3 neighbours in it.

    One depth-first walk picks vertices in ascending order and visits only
    prefixes that can still be completed within the window: every chosen
    vertex keeps at least two neighbours among the chosen vertices and the
    candidates above the last pick.  That test only gets harder as the next
    pick rises, so a chosen vertex that fails it caps the whole branch.
    Three masks hold the vertices with >= 1, >= 2 and >= 3 chosen
    neighbours, so each subset's branch vertices come with it.  A prefix with
    no room to skip a vertex is completed in one step, and a prefix two
    picks below ``hi`` takes its last pick from one bitmask per
    second-to-last pick.  Sparse graphs thus skip almost all of the 2^n
    subsets; dense graphs, where almost every subset qualifies, remain
    exponential.
    """
    n = len(rows)
    hi = min(hi, n)
    if lo > hi:
        return
    # top1/top2: highest and second-highest neighbour (-1 if none); up1/up2:
    # vertices with >= 1 / >= 2 neighbours above them
    top1 = [r.bit_length() - 1 for r in rows]
    top2 = [(r ^ 1 << t).bit_length() - 1 if r else -1 for r, t in zip(rows, top1)]
    up1 = up2 = 0
    for v in range(n):
        if top1[v] > v:
            up1 |= 1 << v
        if top2[v] > v:
            up2 |= 1 << v
    # frames: (prefix size, its mask, vertices with >= 1 / >= 2 / >= 3
    # neighbours in it, first candidate); children are pushed highest first
    stack = [(0, 0, 0, 0, 0, 0)]
    while stack:
        d, sub, ones, twos, threes, start = stack.pop()
        if d < lo:
            top = n - lo + d  # the highest next pick that leaves room for lo
            if start == top:
                # no room to skip a vertex: the only completion takes the rest
                for v in range(start, n):
                    r = rows[v]
                    threes |= twos & r
                    twos |= ones & r
                    ones |= r
                sub |= (1 << n) - (1 << start)
                if not sub & ~twos:
                    yield sub, threes & sub
                continue
        else:
            if not sub & ~twos:
                yield sub, threes & sub
            if d == hi:
                continue
            top = n - 1
        short = sub & ~twos  # chosen vertices with < 2 chosen neighbours
        while short:
            u = short & -short
            short ^= u
            u = u.bit_length() - 1
            # neighbours still needed must lie at or above the next pick
            cap = top1[u] if ones >> u & 1 else top2[u]
            if cap < top:
                top = cap
        if top < start:
            continue
        # the next pick needs two neighbours among the chosen vertices and
        # those above it
        cand = (twos | ones & up1 | up2) & (2 << top) - (1 << start)
        if d < hi - 2:
            while cand:
                w = cand.bit_length() - 1
                cand ^= 1 << w
                r = rows[w]
                stack.append(
                    (d + 1, sub | 1 << w, ones | r, twos | ones & r, threes | twos & r, w + 1)
                )
            continue
        # the last two picks: w, then every x above it that gives each short
        # vertex its missing neighbour and has two chosen neighbours
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            r = rows[w]
            pick = sub | 1 << w
            ones_w = ones | r
            twos_w = twos | ones & r
            threes_w = threes | twos & r
            short = pick & ~twos_w
            if not short:
                if d + 1 >= lo:
                    yield pick, threes_w & pick
            elif short & ~ones_w:
                continue
            last = twos_w >> w + 1 << w + 1
            while short and last:
                u = short & -short
                last &= rows[u.bit_length() - 1]
                short ^= u
            while last:
                x = last & -last
                last ^= x
                yield pick | x, (threes_w | twos_w & rows[x.bit_length() - 1]) & (pick | x)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph plus the order-preserving old->new label mapping."""
    vs = tuple(sorted(set(vertices)))
    for v in vs:
        _check_vertex(v, g.n)
    sub = Graph(len(vs), induced_rows(g.rows, vs))
    return sub, {old: new for new, old in enumerate(vs)}


def contract_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    """Contract an edge; labels stay dense (last vertex fills the gap).

    The merged vertex keeps label min(u, v); the freed slot max(u, v) is
    reoccupied by the previous last vertex, so |V| drops by exactly one and
    parallel edges collapse.
    """
    u, v = edge
    _check_vertex(u, g.n)
    _check_vertex(v, g.n)
    if u == v or not g.has_edge(u, v):
        raise EdgeAbsent(f"({u}, {v}) is not an edge")
    u, v = min(u, v), max(u, v)
    rows = list(g.rows)
    rows[u] = (rows[u] | rows[v]) & ~(1 << u | 1 << v)
    for w in bits(rows[u]):
        rows[w] |= 1 << u
    order = list(range(g.n - 1))
    if v < g.n - 1:
        order[v] = g.n - 1
    return Graph(g.n - 1, induced_rows(rows, order))


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def flood(rows: tuple[int, ...], seed: int, within: int) -> int:
    """Bitmask flood fill: component of ``seed`` inside ``within``."""
    comp = seed & within
    frontier = comp
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        nxt &= within & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def component_masks(rows: tuple[int, ...], within: int) -> list[int]:
    """Connected components of the induced subgraph on ``within``, as masks."""
    out = []
    rest = within
    while rest:
        seed = rest & -rest
        comp = flood(rows, seed, within)
        out.append(comp)
        rest &= ~comp
    return out


def is_connected_masked(rows: tuple[int, ...], within: int) -> bool:
    if within == 0:
        return True
    return flood(rows, within & -within, within) == within


def _cut_vertices(rows: tuple[int, ...], within: int) -> int:
    """Bitmask of articulation vertices of the subgraph induced on ``within``
    (union over its components), via recursive lowpoint DFS (Hopcroft &
    Tarjan, 1973) with depths in place of discovery times.  The recursion is
    at most ``MAX_VERTICES`` deep."""
    depth = [0] * len(rows)
    cut = 0

    def low(v: int, parent: int, d: int) -> int:
        # the least depth a back edge from v's subtree reaches; v splits off
        # the subtree of each child that reaches no higher than v, and a
        # root has no parent's side to split from
        nonlocal cut
        depth[v] = least = d
        splits = 0
        for w in bits(rows[v] & within):
            if not depth[w]:
                reach = low(w, v, d + 1)
                if reach >= d:
                    splits += 1
                if reach < least:
                    least = reach
            elif w != parent and depth[w] < least:
                least = depth[w]
        if splits > (parent < 0):
            cut |= 1 << v
        return least

    for root in bits(within):
        if not depth[root]:
            low(root, -1, 1)
    return cut


def _two_connected(rows: tuple[int, ...], within: int) -> bool:
    """:func:`is_two_connected` for the subgraph induced on ``within``."""
    return (
        within.bit_count() >= 3
        and is_connected_masked(rows, within)
        and not _cut_vertices(rows, within)
    )


def is_two_connected(g: Graph) -> bool:
    """2-connected means n >= 3, connected, and no cut vertex."""
    return _two_connected(g.rows, g.vertex_mask)


@dataclass(frozen=True, slots=True)
class ConnectivityReport:
    connected: bool
    components: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    two_connected: bool


def connectivity_report(g: Graph) -> ConnectivityReport:
    comps = component_masks(g.rows, g.vertex_mask)
    return ConnectivityReport(
        connected=len(comps) <= 1,
        components=tuple(frozenset(bits(c)) for c in comps),
        cut_vertices=frozenset(bits(_cut_vertices(g.rows, g.vertex_mask))),
        two_connected=is_two_connected(g),
    )


# ---------------------------------------------------------------------------
# clique cutsets
# ---------------------------------------------------------------------------


def find_clique_cutset(g: Graph) -> Optional[tuple[frozenset[int], tuple[frozenset[int], ...]]]:
    """First clique (size ascending, then lexicographic) whose removal
    disconnects g, with the components left.  Cliques grow a size at a time
    as (mask, common neighbours above the last vertex): parents in
    lexicographic order, extended in ascending order, keep each size in that
    order unsorted.  A clique is tested when made; dense graphs stay
    exponential."""
    rows = g.rows
    full = g.vertex_mask
    if not is_connected_masked(rows, full):
        raise NotConnected("clique cutset search requires a connected graph")
    level = [(0, full)]  # the empty clique, every vertex a candidate
    while level:
        grown = []
        for cm, common in level:
            for w in bits(common):
                clique = cm | 1 << w
                comps = component_masks(rows, full & ~clique)
                if len(comps) >= 2:
                    return frozenset(bits(clique)), tuple(frozenset(bits(c)) for c in comps)
                grown.append((clique, common & rows[w] >> w + 1 << w + 1))
        level = grown
    return None


# ---------------------------------------------------------------------------
# line graph
# ---------------------------------------------------------------------------


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph plus the vertex->edge index mapping (lexicographic edge
    order); ``inc[v]`` masks the edges at v, so edge uv meets inc[u] | inc[v]."""
    edges = g.edges()
    if len(edges) > MAX_VERTICES:
        raise CapacityExceeded(f"line graph would need {len(edges)} > {MAX_VERTICES} vertices")
    inc = [0] * g.n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    rows = tuple((inc[u] | inc[v]) & ~(1 << i) for i, (u, v) in enumerate(edges))
    return Graph(len(edges), rows), tuple(edges)
