"""Seeded graph6 corpus for the check-batch workload.

The generator builds every graph itself (it shares no code with the package
under test), so the facts it records about each graph are known from the
construction alone.  What the classification record of an entry must say
depends on its kind:

* ``3pc``: ``hc_obstruction`` is true and ``recognized_3pc`` is the spec the
  graph was built from (every 3PC is an HC-obstruction);
* ``wheel`` and ``shortpyramid``: ``wheel_free`` is false (a short pyramid is
  a wheel under the package's inclusive convention);
* ``shortprism`` and ``random``: nothing beyond the theorem-consistency
  checks that every record must pass.

The mix is stratified, so every seed yields the same number of graphs of each
kind and vertex count; only the shapes, chords, edges and labelings vary.
That keeps the per-seed cost of a batch steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

MIN_N = 9
MAX_N = 13
# blocks in the traced run's check phase and in its CLI comparison batch
TRACE_BLOCKS = 2

# Per vertex count, per block of the corpus.  The kinds cover the obstruction
# slow tail (3PCs, whose minimality check runs to completion), graphs that
# contain wheels, near-3PCs, and the typical input (random 2-connected graphs,
# mostly Hamiltonian).  The shares are a fixed choice, not drawn from a
# population of inputs; README.md gives the metric each share drives.
THREEPC_FAMILIES = ("theta", "theta+", "pyramid", "pyramid+", "prism", "prism+")
BLOCK = (
    [("3pc", fam) for fam in THREEPC_FAMILIES]
    + [("wheel", None)] * 2
    + [("shortpyramid", None), ("shortprism", None)]
    + [("random", None)] * 8
)

# vertices = sum of path lengths + offset
_OFFSET = {"theta": -1, "pyramid": 1, "prism": 3}


@dataclass(frozen=True)
class Entry:
    graph6: str
    kind: str
    spec: Optional[str]  # the 3PC spec text for kind == "3pc"


def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 short form: upper triangle, column by column."""
    out = [chr(n + 63)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | ((i, j) in edges)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> str:
    perm = list(range(n))
    rng.shuffle(perm)
    return encode_graph6(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges})


def _path(edges: list, a: int, b: int, length: int, nxt: int) -> int:
    prev = a
    for _ in range(length - 1):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    edges.append((prev, b))
    return nxt


def _split(rng: random.Random, total: int) -> tuple[int, int, int]:
    """Three sorted path lengths of at least 2 summing to ``total``."""
    while True:
        a = rng.randint(2, total)
        b = rng.randint(2, total)
        if total - a - b >= 2:
            return tuple(sorted((a, b, total - a - b)))


def _canonical_chords(kind: str, lengths: tuple[int, int, int], chords: set[int]) -> list[int]:
    """Chorded paths as the package's spec text writes them: a theta chord is
    path 1; otherwise chords move to the lowest paths in each run of equal
    lengths."""
    if kind == "theta":
        return [1] if chords else []
    out: list[int] = []
    i = 0
    while i < 3:
        j = i
        while j < 3 and lengths[j] == lengths[i]:
            j += 1
        hits = sum(1 for c in chords if i + 1 <= c <= j)
        out.extend(range(i + 1, i + 1 + hits))
        i = j
    return out


def build_3pc(
    kind: str, lengths: tuple[int, int, int], chords: set[int]
) -> tuple[int, list[tuple[int, int]]]:
    """Theta ends 0,1; pyramid triangle 0,1,2 and apex 3; prism triangles
    0,1,2 and 3,4,5.  Path i runs between its ends; a chord on path i joins
    those ends directly."""
    if kind == "theta":
        ends, nxt, edges = [(0, 1)] * 3, 2, []
    elif kind == "pyramid":
        ends, nxt, edges = [(0, 3), (1, 3), (2, 3)], 4, [(0, 1), (0, 2), (1, 2)]
    else:
        ends, nxt = [(0, 3), (1, 4), (2, 5)], 6
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    for i, length in enumerate(lengths):
        nxt = _path(edges, *ends[i], length, nxt)
        if i + 1 in chords:
            edges.append(ends[i])
    return nxt, edges


def _threepc(rng: random.Random, n: int, family: str) -> Entry:
    kind = family.rstrip("+")
    lengths = _split(rng, n - _OFFSET[kind])
    chords: set[int] = set()
    if family.endswith("+"):
        if kind == "theta":
            chords = {1}
        while not chords:
            chords = {p for p in (1, 2, 3) if rng.random() < 0.5}
    canon = _canonical_chords(kind, lengths, chords)
    plus = "+" + "".join(map(str, canon)) if canon else ""
    spec = f"{kind}{plus}:{','.join(map(str, lengths))}"
    size, edges = build_3pc(kind, lengths, set(canon))
    assert size == n
    return Entry(_relabel(rng, n, edges), "3pc", spec)


def _wheel(rng: random.Random, n: int) -> Entry:
    rim = n - 1
    spokes = rng.sample(range(rim), rng.randint(3, rim))
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(p, rim) for p in spokes]
    return Entry(_relabel(rng, n, edges), "wheel", None)


def _short(rng: random.Random, n: int, kind: str) -> Entry:
    """Short pyramid (exactly one path of length one, the rest >= 2) or short
    prism (a path of length one, the rest >= 1)."""
    base, low = ("pyramid", 2) if kind == "shortpyramid" else ("prism", 1)
    rest = n - _OFFSET[base] - 1
    a = rng.randint(low, rest // 2)
    size, edges = build_3pc(base, (1, a, rest - a), set())
    assert size == n
    return Entry(_relabel(rng, n, edges), kind, None)


def is_two_connected(n: int, adj: list[set[int]]) -> bool:
    """At least three vertices, and connected after deleting any one vertex."""

    def connected_without(skip: int) -> bool:
        start = 1 if skip == 0 else 0
        seen = {start, skip}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return n >= 3 and all(connected_without(v) for v in range(n))


def _random_two_connected(rng: random.Random, n: int) -> Entry:
    """G(n, p) with p drawn per graph, rejected until 2-connected."""
    while True:
        p = rng.uniform(0.2, 0.5)
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if is_two_connected(n, adj):
            return Entry(encode_graph6(n, set(edges)), "random", None)


def generate(seed: int | str, blocks: int, max_n: int = MAX_N) -> list[Entry]:
    """``blocks`` copies of BLOCK at every vertex count, shuffled by the seed."""
    rng = random.Random(seed)
    out: list[Entry] = []
    for _ in range(blocks):
        for n in range(MIN_N, max_n + 1):
            for kind, family in BLOCK:
                if kind == "3pc":
                    out.append(_threepc(rng, n, family))
                elif kind == "wheel":
                    out.append(_wheel(rng, n))
                elif kind == "random":
                    out.append(_random_two_connected(rng, n))
                else:
                    out.append(_short(rng, n, kind))
    rng.shuffle(out)
    return out
