"""Parameterized constructors and exact recognizers for the 3PC families.

A 3-path-configuration (3PC) is a prism, pyramid, or theta, possibly with
chords added between the ends of selected constituent paths ("+" variants; a
theta takes at most one chord).  Short variants (some path of length one)
are intentionally separate constructions: a short prism is not a 3PC, and a
short pyramid is a wheel under the convention used throughout this package.

Specs are canonical: lengths sorted ascending, chords re-indexed to the
lowest positions within each run of equal lengths, a theta chord stored as
{1}.  Recognition therefore has a unique answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    CapacityExceeded,
    InvalidLengths,
    ShortVariant,
    SpecSyntaxError,
    TooFewSpokes,
    TooManyThetaChords,
    VertexOutOfRange,
)
from .graphs import MAX_VERTICES, Graph, bits, graph_from_edges

THETA = "theta"
PYRAMID = "pyramid"
PRISM = "prism"
KIND_ORDER = (THETA, PYRAMID, PRISM)  # recognition / enumeration order
# vertex count minus the sum of the path lengths
VERTEX_OFFSET = {THETA: -1, PYRAMID: 1, PRISM: 3}

SHORT_PRISM = "shortprism"
SHORT_PYRAMID = "shortpyramid"


def _canonical_chords(lengths: tuple[int, int, int], chords: frozenset[int]) -> frozenset[int]:
    """Push chord marks to the lowest indices within each equal-length run."""
    out: set[int] = set()
    for c in chords:
        i = lengths.index(lengths[c - 1]) + 1  # the first index of c's run
        while i in out:
            i += 1
        out.add(i)
    return frozenset(out)


@dataclass(frozen=True, slots=True)
class ThreePcSpec:
    """Canonical description of one 3PC: kind, path lengths, chorded paths."""

    kind: str
    lengths: tuple[int, int, int]
    chords: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in KIND_ORDER:
            raise SpecSyntaxError(f"unknown 3PC kind {self.kind!r}")
        if len(self.lengths) != 3 or any(l < 1 for l in self.lengths):
            raise InvalidLengths(f"lengths must be three positive ints, got {self.lengths}")
        if not set(self.chords) <= {1, 2, 3}:
            raise SpecSyntaxError(f"chords must select paths 1..3, got {set(self.chords)}")
        if self.kind == THETA and len(self.chords) > 1:
            raise TooManyThetaChords("a theta admits at most one chord")
        if tuple(sorted(self.lengths)) != self.lengths:
            raise SpecSyntaxError("lengths must be stored sorted ascending")
        want = (
            frozenset({1})
            if self.kind == THETA and self.chords
            else _canonical_chords(self.lengths, self.chords)
        )
        if self.chords != want:
            raise SpecSyntaxError(f"chords {set(self.chords)} are not in canonical position")

    @classmethod
    def of(cls, kind: str, lengths, chords=()) -> "ThreePcSpec":
        """Normalizing constructor: sorts lengths and re-indexes chords."""
        lengths = tuple(lengths)
        if len(lengths) != 3:
            raise InvalidLengths(f"need exactly three lengths, got {lengths}")
        chordset = frozenset(chords)
        if not chordset <= {1, 2, 3}:
            raise SpecSyntaxError(f"chords must select paths 1..3, got {set(chordset)}")
        if kind == THETA:
            if len(chordset) > 1:
                raise TooManyThetaChords("a theta admits at most one chord")
            canon_chords = frozenset({1}) if chordset else frozenset()
            return cls(THETA, tuple(sorted(lengths)), canon_chords)
        order = sorted(range(3), key=lambda i: (lengths[i], i))
        new_lengths = tuple(lengths[i] for i in order)
        moved = frozenset(order.index(c - 1) + 1 for c in chordset)
        return cls(kind, new_lengths, _canonical_chords(new_lengths, moved))

    @property
    def vertex_count(self) -> int:
        return sum(self.lengths) + VERTEX_OFFSET[self.kind]

    @property
    def edge_count(self) -> int:
        base = {THETA: 0, PYRAMID: 3, PRISM: 6}[self.kind]
        return sum(self.lengths) + base + len(self.chords)

    def sort_key(self):
        return (KIND_ORDER.index(self.kind), self.lengths, tuple(sorted(self.chords)))


@dataclass(frozen=True, slots=True)
class WheelSpec:
    """A rim cycle plus a hub wired to at least three rim positions."""

    cycle_len: int
    hub_neighbors: frozenset[int]

    def __post_init__(self) -> None:
        if self.cycle_len < 3:
            raise InvalidLengths(f"rim needs at least 3 vertices, got {self.cycle_len}")
        if any(p < 0 or p >= self.cycle_len for p in self.hub_neighbors):
            raise VertexOutOfRange("hub position outside the rim")
        if len(self.hub_neighbors) < 3:
            raise TooFewSpokes("a wheel hub needs at least three rim neighbors")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _assemble(kind: str, lengths: tuple[int, int, int], chords: frozenset[int]) -> Graph:
    """Shared construction: branch/triangle vertices first, path internals after.

    Labels: theta a=0 b=1; pyramid triangle 0,1,2 apex 3; prism triangles
    0,1,2 and 3,4,5 (path i joins i to 3+i).  Internals follow in path order.
    """
    if kind == THETA:
        ends = [(0, 1), (0, 1), (0, 1)]
        nxt = 2
        edges = []
    elif kind == PYRAMID:
        ends = [(0, 3), (1, 3), (2, 3)]
        nxt = 4
        edges = [(0, 1), (0, 2), (1, 2)]
    else:
        ends = [(0, 3), (1, 4), (2, 5)]
        nxt = 6
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    # checked before the edge list is built, which huge lengths would exhaust
    if nxt + sum(lengths) - 3 > MAX_VERTICES:
        raise CapacityExceeded(f"{kind} with lengths {lengths} exceeds {MAX_VERTICES} vertices")
    for i, length in enumerate(lengths):
        a, b = ends[i]
        prev = a
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
        if i + 1 in chords:
            edges.append((a, b))
    return graph_from_edges(nxt, edges)


def build_3pc(spec: ThreePcSpec) -> Graph:
    """Construct the 3PC; rejects short variants (some length one)."""
    if min(spec.lengths) < 2:
        raise ShortVariant(f"length-1 path makes {spec.kind} a short variant")
    return _assemble(spec.kind, spec.lengths, spec.chords)


def build_short_variant(kind: str, lengths) -> Graph:
    """Short prism (some length 1) or short pyramid (exactly one length 1)."""
    ls = tuple(sorted(lengths))
    if len(ls) != 3 or any(l < 1 for l in ls):
        raise InvalidLengths(f"need three positive lengths, got {lengths}")
    if kind == SHORT_PRISM:
        if 1 not in ls:
            raise InvalidLengths("a short prism needs some path of length one")
        return _assemble(PRISM, ls, frozenset())
    if kind == SHORT_PYRAMID:
        if ls.count(1) != 1:
            raise InvalidLengths("a short pyramid has exactly one path of length one")
        return _assemble(PYRAMID, ls, frozenset())
    raise SpecSyntaxError(f"unknown short variant {kind!r}")


def build_wheel(spec: WheelSpec) -> Graph:
    """Rim 0..cycle_len-1 in order; the hub is the last label."""
    c = spec.cycle_len
    if c + 1 > MAX_VERTICES:
        raise CapacityExceeded(f"a wheel with rim {c} exceeds {MAX_VERTICES} vertices")
    edges = [(i, (i + 1) % c) for i in range(c)]
    edges += [(p, c) for p in sorted(spec.hub_neighbors)]
    return graph_from_edges(c + 1, edges)


# ---------------------------------------------------------------------------
# spec enumeration and recognition
# ---------------------------------------------------------------------------


def _length_triples(total: int) -> Iterator[tuple[int, int, int]]:
    """Sorted triples (l1 <= l2 <= l3), all >= 2, summing to total."""
    for l1 in range(2, total // 3 + 1):
        for l2 in range(l1, (total - l1) // 2 + 1):
            l3 = total - l1 - l2
            if l3 >= l2:
                yield (l1, l2, l3)


@lru_cache(maxsize=None)
def specs_with_vertex_count(n: int) -> tuple[ThreePcSpec, ...]:
    """All canonical specs on exactly n vertices, in canonical order."""
    specs = {
        ThreePcSpec.of(kind, lengths, chords)
        for kind in KIND_ORDER
        for lengths in _length_triples(n - VERTEX_OFFSET[kind])
        for k in range(2 if kind == THETA else 4)  # a theta takes at most one chord
        for chords in combinations((1, 2, 3), k)
    }
    return tuple(sorted(specs, key=ThreePcSpec.sort_key))


def all_specs_up_to(max_n: int) -> list[ThreePcSpec]:
    out: list[ThreePcSpec] = []
    for n in range(5, max_n + 1):
        out.extend(specs_with_vertex_count(n))
    return out


def spec_of_rows(
    rows: Sequence[int], sub: int, branch: Optional[int] = None
) -> Optional[ThreePcSpec]:
    """The canonical spec of the graph induced on the vertex mask ``sub``, or
    None if that graph is not a 3PC, read off its three-path skeleton.

    ``branch`` is the mask of the induced graph's vertices of degree >= 3,
    given only when every vertex of it has degree >= 2 (as
    :func:`obstructa.graphs.min_degree2_subsets` yields it); without it the
    degrees are counted here.

    In a 3PC the vertices of degree >= 3 are exactly the 2, 4 or 6 ends of
    its paths (theta ends, pyramid triangle and apex, prism triangles), and
    every path-internal vertex has degree 2.  So the induced graph is a 3PC
    iff every vertex has degree >= 2, its branch vertices (degree >= 3) are
    2, 4 or 6, its *legs* (paths from a branch vertex through degree-2
    vertices to a branch vertex) cover it and none returns to its start,
    and the multigraph of branch vertices and leg lengths is the skeleton
    of :func:`build_3pc`, chords being length-1 legs beside long legs:

    * theta: three legs of length >= 2 between the two ends, and at most one
      length-1 leg;
    * pyramid: one apex with three long legs, one to each corner; the corners
      pairwise joined by length-1 legs, each corner perhaps also to the apex;
    * prism: one long leg at each vertex, pairing the vertices; a length-1
      leg between the ends of a pair is its chord, and the other length-1
      legs form two disjoint triangles.

    The graph is the subdivision of that skeleton, so the skeleton decides
    isomorphism to ``build_3pc(spec)``; no vertex is labeled.
    """
    if branch is None:
        branch = 0
        for v in bits(sub):
            d = (rows[v] & sub).bit_count()
            if d < 2:
                return None
            if d > 2:
                branch |= 1 << v
    count = branch.bit_count()
    if count not in (2, 4, 6):
        return None
    # legs[v]: (other end, length) of each long leg at v; a leg is walked
    # once, from its lower end, which covers its internal vertices.  A branch
    # vertex has at most three long legs (theta ends, pyramid apex), and
    # exactly one in a prism
    legs: dict[int, list[tuple[int, int]]] = {v: [] for v in bits(branch)}
    most = 1 if count == 6 else 3
    covered = branch
    for u in bits(branch):
        for w in bits(rows[u] & sub & ~covered):
            prev, cur, length = u, w, 1
            while not branch >> cur & 1:
                covered |= 1 << cur
                prev, cur = cur, (rows[cur] & sub & ~(1 << prev)).bit_length() - 1
                length += 1
            if cur == u:
                return None
            legs[u].append((cur, length))
            legs[cur].append((u, length))
            if len(legs[u]) > most or len(legs[cur]) > most:
                return None
    if covered != sub:
        return None
    if count == 2:
        a, b = legs
        if len(legs[a]) != 3:
            return None
        return ThreePcSpec.of(THETA, [l for _, l in legs[a]], (1,) if rows[a] >> b & 1 else ())
    if count == 4:
        # the apex is the one end of three long legs; each corner has one
        apex = next((v for v, at in legs.items() if len(at) == 3), None)
        if apex is None or any(len(at) != 1 for v, at in legs.items() if v != apex):
            return None
        corners = branch & ~(1 << apex)
        lengths, chords = [], []
        for i, (c, length) in enumerate(legs[apex]):
            if rows[c] & corners != corners & ~(1 << c):
                return None
            lengths.append(length)
            if rows[c] >> apex & 1:
                chords.append(i + 1)
        return ThreePcSpec.of(PYRAMID, lengths, chords)
    if any(len(at) != 1 for at in legs.values()):
        return None
    # triangle[v]: v's length-1 legs other than its pair's chord; each must
    # be two adjacent vertices, so they form two disjoint triangles
    triangle = {v: rows[v] & branch & ~(1 << m) for v, [(m, _)] in legs.items()}
    for t in triangle.values():
        if t.bit_count() != 2 or not triangle[t.bit_length() - 1] & (t & -t):
            return None
    lengths, chords = [], []
    for v, [(m, length)] in legs.items():
        if v < m:
            lengths.append(length)
            if rows[v] >> m & 1:
                chords.append(len(lengths))
    return ThreePcSpec.of(PRISM, lengths, chords)


def recognize_3pc(g: Graph) -> Optional[ThreePcSpec]:
    """The unique canonical spec g is isomorphic to, or None
    (see :func:`spec_of_rows`)."""
    return spec_of_rows(g.rows, g.vertex_mask)


# ---------------------------------------------------------------------------
# spec tables, kept for perfbench/layers.py
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def family_tables(max_n: int):
    """Per-n tables {n: ((edge count, degree sequence) set, frozenset of
    specs)} over the specs on 5..max_n vertices.  No detector reads them;
    they are kept only because ``perfbench/layers.py`` gates recognition on
    the signature set and passes the tables to
    :func:`obstructa.detectors.scan_contains_family`."""
    tables = {}
    for n in range(5, max_n + 1):
        specs = specs_with_vertex_count(n)
        sigs = {(s.edge_count, build_3pc(s).degree_sequence()) for s in specs}
        tables[n] = (sigs, frozenset(specs))
    return tables


# ---------------------------------------------------------------------------
# spec text syntax:  theta:2,2,2   prism+13:2,3,2   theta+1:2,2,2
#                    wheel:6@0,2,4   shortprism:1,1,1   shortpyramid:1,2,2
# ---------------------------------------------------------------------------

FamilySpec = Union[ThreePcSpec, WheelSpec, tuple]


def format_spec(spec: FamilySpec) -> str:
    if isinstance(spec, ThreePcSpec):
        plus = "+" + "".join(str(c) for c in sorted(spec.chords)) if spec.chords else ""
        return f"{spec.kind}{plus}:{','.join(map(str, spec.lengths))}"
    if isinstance(spec, WheelSpec):
        pos = ",".join(map(str, sorted(spec.hub_neighbors)))
        return f"wheel:{spec.cycle_len}@{pos}"
    kind, lengths = spec
    return f"{kind}:{','.join(map(str, lengths))}"


def parse_spec(text: str) -> FamilySpec:
    """Parse family spec text; raises SpecSyntaxError / family errors."""
    text = text.strip()
    head, sep, tail = text.partition(":")
    if not sep or not tail:
        raise SpecSyntaxError(f"expected 'kind:args' in {text!r}")
    if head == "wheel":
        size, sep, pos = tail.partition("@")
        if not sep:
            raise SpecSyntaxError("wheel spec needs 'wheel:LEN@p1,p2,...'")
        try:
            cycle_len = int(size)
            positions = [int(p) for p in pos.split(",")]
        except ValueError as exc:
            raise SpecSyntaxError(f"bad wheel spec {text!r}") from exc
        if len(set(positions)) != len(positions):
            raise SpecSyntaxError(f"hub positions must be distinct, got {pos!r}")
        return WheelSpec(cycle_len, frozenset(positions))
    try:
        lengths = tuple(int(x) for x in tail.split(","))
    except ValueError as exc:
        raise SpecSyntaxError(f"bad lengths in {text!r}") from exc
    if len(lengths) != 3:
        raise SpecSyntaxError(f"expected three path lengths in {text!r}")
    if head in (SHORT_PRISM, SHORT_PYRAMID):
        return (head, lengths)
    kind, plus, digits = head.partition("+")
    if kind not in KIND_ORDER:
        raise SpecSyntaxError(f"unknown family {kind!r}")
    chords: frozenset[int] = frozenset()
    if plus:
        if not digits or not all(d in "123" for d in digits) or len(set(digits)) != len(digits):
            raise SpecSyntaxError(f"chord list must be distinct digits 1-3, got {digits!r}")
        chords = frozenset(int(d) for d in digits)
    return ThreePcSpec.of(kind, lengths, chords)


def build_from_spec(spec: FamilySpec) -> Graph:
    if isinstance(spec, ThreePcSpec):
        return build_3pc(spec)
    if isinstance(spec, WheelSpec):
        return build_wheel(spec)
    kind, lengths = spec
    return build_short_variant(kind, lengths)
