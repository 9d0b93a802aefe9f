"""Exact canonical labeling by partition refinement with backtracking.

The canonical form of a graph is the lexicographically least tuple of
relabeled adjacency rows over the orderings explored by an
isomorphism-invariant search tree: refine the unit partition to an equitable
one, then repeatedly individualize vertices of the first non-singleton cell.
Equal forms therefore mean isomorphic graphs and vice versa.

After the root, refinement counts neighbours only against the cells that
just split, less the last fragment of each (McKay & Piperno, "Practical
graph isomorphism II", 2014).  Within a cell only those counts can differ,
and they sort its vertices as counts against every cell would, so the cell
order and every canonical form are those of full refinement (see _refine).

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
  transposition of a twin and its class representative (McKay & Piperno).
  Generation uses them to extend each parent once per automorphism orbit.
"""

from __future__ import annotations

import struct

from .graphs import Graph, bits


def _refine(n: int, rows: tuple[int, ...], cells: list[int], active: list[int]) -> list[int]:
    """Refine an ordered partition (list of cell masks) to an equitable one.

    Each pass splits every cell by its vertices' neighbour counts against
    the ``active`` cells, taken in order (lexicographic on the count tuple),
    and the next pass counts only against the fragments it made, leaving out
    the last fragment of each split cell.  The root call passes the whole
    vertex set as ``active``; after individualizing ``rep`` in an equitable
    partition it is ``[1 << rep]``.  The cell order equals that of sorting
    on counts against every cell: the vertices of a cell already agree on
    their counts against every older cell, and the fragments of one split
    cell have a constant count sum, so the dropped counts are constant or
    decided by the earlier fragments.  The counts are packed into one int
    (n <= 64 keeps each in 7 bits), or against a lone active singleton are
    its two adjacency masks, non-neighbours first; the order depends only on
    them, so refinement is isomorphism-invariant.  A discrete partition ends
    the refinement.
    """
    while active:
        out: list[int] = []
        split: list[int] = []
        first = active[0]
        # counts against one singleton {s} are adjacency to s: two masks
        s = rows[first.bit_length() - 1] if len(active) == 1 and first & (first - 1) == 0 else -1
        for p in cells:
            if p & (p - 1) == 0:
                out.append(p)
                continue
            if s >= 0:
                lo = p & ~s
                parts = [lo, p ^ lo] if lo and lo != p else [p]
            else:
                groups: dict[int, int] = {}
                m = p
                while m:
                    b = m & -m
                    m ^= b
                    rv = rows[b.bit_length() - 1]
                    sig = 0
                    for a in active:
                        sig = sig << 7 | (rv & a).bit_count()
                    groups[sig] = groups.get(sig, 0) | b
                parts = [groups[sig] for sig in sorted(groups)] if len(groups) > 1 else [p]
            out += parts
            split += parts[:-1]
        if len(out) == n:
            return out
        cells, active = out, split
    return cells


def _twin_classes(
    rows: tuple[int, ...], members: list[int], merges: set[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Group cell members u~v when the transposition (u v) is an automorphism.

    Returns (representative, class size) pairs, representatives ascending,
    and adds to ``merges`` the pair (rep, v) for every other member v of a
    class.  u~v holds iff the rows agree outside {u, v}: identical open rows
    (non-adjacent twins) or identical closed rows (adjacent twins).  The
    relation is an equivalence and each class is all adjacent or all
    non-adjacent, so one lookup on each row finds a member's class; an open
    row never equals another vertex's closed row.
    """
    reps: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for v in members:
        r = rows[v]
        rep = reps.get(r, reps.get(r | 1 << v))
        if rep is None:
            reps[r] = reps[r | 1 << v] = v
            sizes[v] = 1
        else:
            sizes[rep] += 1
            merges.add((rep, v))
    return list(sizes.items())


def _canonical_search(
    n: int, rows: tuple[int, ...]
) -> tuple[tuple[int, ...], int, list[tuple[int, ...]], tuple[int, ...]]:
    """Return (canonical rows, automorphism count, automorphism generators,
    canonical order).

    Each generator is a permutation tuple ``p`` with ``v -> p[v]``; together
    they generate the automorphism group.  The canonical order is the best
    leaf's vertex order: vertex ``order[i]`` becomes vertex ``i`` of the
    canonical rows.  Another best leaf gives its image under an
    automorphism, so any isomorphism-invariant choice read off the order is
    unique up to automorphism.
    """
    if n == 0:
        return (), 1, [], ()
    best: tuple[int, ...] | None = None
    best_order: list[int] = []
    count = 0
    gens: list[tuple[int, ...]] = []
    merges: set[tuple[int, int]] = set()

    def leaf(cells: list[int], mult: int) -> None:
        nonlocal best, best_order, count
        order = [c.bit_length() - 1 for c in cells]
        posbit = [0] * n
        for i, v in enumerate(order):
            posbit[v] = 1 << i
        new = []
        for v in order:
            m = rows[v]
            r = 0
            while m:
                b = m & -m
                m ^= b
                r |= posbit[b.bit_length() - 1]
            new.append(r)
        key = tuple(new)
        if best is None or key < best:
            best = key
            best_order = order
            count = mult
        elif key == best:
            count += mult
            perm = [0] * n
            for v, b in zip(order, best_order):
                perm[v] = b
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
            # a discrete partition is already equitable
            rec(nxt if len(nxt) == n else _refine(n, rows, nxt, [1 << rep]), mult * size)

    rec(_refine(n, rows, [(1 << n) - 1], [(1 << n) - 1]), 1)
    assert best is not None
    for u, v in sorted(merges):
        perm = list(range(n))
        perm[u], perm[v] = v, u
        gens.append(tuple(perm))
    return best, count, gens, tuple(best_order)


def canonical_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    return _canonical_search(n, rows)[0]


def encode_form(n: int, rows: tuple[int, ...]) -> bytes:
    """The byte string :func:`graph_from_canonical` decodes: n, then the
    rows at fixed width, little-endian."""
    if n <= 8:
        # one byte per row, or none when n == 0
        return bytes([n]) + bytes(rows)
    if n <= 16:
        return bytes([n]) + struct.pack(f"<{n}H", *rows)
    width = (n + 7) // 8
    return bytes([n]) + b"".join(r.to_bytes(width, "little") for r in rows)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: n, then the relabeled rows at fixed width."""
    return encode_form(g.n, canonical_rows(g.n, g.rows))


def graph_from_canonical(form: bytes) -> Graph:
    """Rebuild the graph whose rows :func:`encode_form` packed: the
    canonically labeled representative when they are a canonical form."""
    n = form[0]
    if n <= 8:
        return Graph(n, tuple(form[1:]))
    if n <= 16:
        return Graph(n, struct.unpack(f"<{n}H", form[1:]))
    width = (n + 7) // 8
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
