"""Exact canonical labeling by partition refinement with backtracking.

The canonical form of a graph is the lexicographically least tuple of
relabeled adjacency rows over the orderings explored by an
isomorphism-invariant search tree: refine the unit partition to an equitable
one, then repeatedly individualize vertices of the first non-singleton cell.
Equal forms therefore mean isomorphic graphs and vice versa.

One exactness-preserving pruning keeps the tree small, and the same search
measures the automorphism group:

* vertices of the target cell that are twins (swapping them is an
  automorphism) produce identical subtrees, so only one representative per
  twin class is expanded, weighted by the class size;
* the search counts the leaves realizing the canonical form, which is
  exactly the automorphism group order (used by the census tests as an
  independent completeness oracle);
* the search also collects generators of the automorphism group: every
  leaf whose relabeled rows equal the best so far maps each vertex to the
  vertex holding its position in the best leaf, and every twin merge is the
  transposition of the two twins (McKay & Piperno, "Practical graph
  isomorphism II", 2014).  Generation uses them to extend each parent once
  per automorphism orbit.
"""

from __future__ import annotations

from .graphs import Graph, bits


def _refine(n: int, rows: tuple[int, ...], cells: list[int]) -> list[int]:
    """Refine an ordered partition (list of cell masks) to an equitable one.

    Vertex signatures are neighbor counts against every cell, packed into one
    int (n <= 64 keeps each count in 7 bits); the derived cell order depends
    only on those counts, so refinement is isomorphism-invariant.
    """
    while True:
        changed = False
        out: list[int] = []
        for cm in cells:
            if cm & (cm - 1) == 0:
                out.append(cm)
                continue
            groups: dict[int, int] = {}
            for v in bits(cm):
                rv = rows[v]
                sig = 0
                for m in cells:
                    sig = sig << 7 | (rv & m).bit_count()
                if sig in groups:
                    groups[sig] |= 1 << v
                else:
                    groups[sig] = 1 << v
            if len(groups) == 1:
                out.append(cm)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        if not changed:
            return out
        cells = out


def _twin_classes(
    rows: tuple[int, ...], members: list[int], merges: set[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Group cell members u~v when the transposition (u v) is an automorphism.

    Returns (representative, class size) pairs, representatives ascending,
    and adds to ``merges`` each pair (u, v) whose transposition joined two
    classes.  u~v holds iff the rows agree outside {u, v}: identical rows
    (non-adjacent twins) or rows differing exactly in the two bits u, v
    (adjacent twins).
    """
    parent = {v: v for v in members}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, u in enumerate(members):
        ru = rows[u]
        for v in members[i + 1 :]:
            d = ru ^ rows[v]
            if d == 0 or d == (1 << u | 1 << v):
                a, b = find(u), find(v)
                if a != b:
                    parent[max(a, b)] = min(a, b)
                    merges.add((u, v))
    sizes: dict[int, int] = {}
    for v in members:
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.items())


def _canonical_search(
    n: int, rows: tuple[int, ...]
) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """Return (canonical rows, automorphism count, automorphism generators).

    Each generator is a permutation tuple ``p`` with ``v -> p[v]``; together
    they generate the automorphism group.
    """
    if n == 0:
        return (), 1, []
    best: tuple[int, ...] | None = None
    best_cells: list[int] = []
    count = 0
    gens: list[tuple[int, ...]] = []
    merges: set[tuple[int, int]] = set()

    def leaf(cells: list[int], mult: int) -> None:
        nonlocal best, best_cells, count
        pos = [0] * n
        for i, c in enumerate(cells):
            pos[c.bit_length() - 1] = i
        new = []
        for c in cells:
            m = rows[c.bit_length() - 1]
            r = 0
            while m:
                b = m & -m
                m ^= b
                r |= 1 << pos[b.bit_length() - 1]
            new.append(r)
        key = tuple(new)
        if best is None or key < best:
            best = key
            best_cells = cells
            count = mult
        elif key == best:
            count += mult
            perm = [0] * n
            for c, b in zip(cells, best_cells):
                perm[c.bit_length() - 1] = b.bit_length() - 1
            gens.append(tuple(perm))

    def rec(cells: list[int], mult: int) -> None:
        for idx, cm in enumerate(cells):
            if cm & (cm - 1):
                break
        else:
            leaf(cells, mult)
            return
        for rep, size in _twin_classes(rows, list(bits(cm)), merges):
            nxt = cells[:idx] + [1 << rep, cm & ~(1 << rep)] + cells[idx + 1 :]
            rec(_refine(n, rows, nxt), mult * size)

    rec(_refine(n, rows, [(1 << n) - 1]), 1)
    assert best is not None
    for u, v in sorted(merges):
        perm = list(range(n))
        perm[u], perm[v] = v, u
        gens.append(tuple(perm))
    return best, count, gens


def canonical_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    return _canonical_search(n, rows)[0]


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: n, then the relabeled rows at fixed width."""
    rows = canonical_rows(g.n, g.rows)
    width = (g.n + 7) // 8 if g.n else 0
    return bytes([g.n]) + b"".join(r.to_bytes(width, "little") for r in rows)


def graph_from_canonical(form: bytes) -> Graph:
    """Rebuild the canonically labeled representative from its byte form."""
    n = form[0]
    width = (n + 7) // 8 if n else 0
    rows = tuple(
        int.from_bytes(form[1 + i * width : 1 + (i + 1) * width], "little") for i in range(n)
    )
    return Graph(n, rows)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    return canonical_rows(g1.n, g1.rows) == canonical_rows(g2.n, g2.rows)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group (canonical leaf count of the search)."""
    return _canonical_search(g.n, g.rows)[1]
