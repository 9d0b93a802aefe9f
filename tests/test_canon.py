import itertools
import random

from hypothesis import given, settings

import helpers
from obstructa.canon import (
    _canonical_search,
    _refine,
    _twin_classes,
    are_isomorphic,
    automorphism_count,
    canonical_form,
    canonical_rows,
    encode_form,
    graph_from_canonical,
)
from obstructa.families import ThreePcSpec, build_3pc
from obstructa.graphs import bits, graph_from_edges


def permuted(g, perm):
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_invariance_under_relabeling_1000_trials():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = helpers.random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_distinct_forms_for_distinct_classes_n4():
    # all 11 classes on four vertices get 11 distinct forms
    forms = set()
    pairs = list(itertools.combinations(range(4), 2))
    for code in range(1 << 6):
        edges = [pairs[i] for i in range(6) if code >> i & 1]
        forms.add(canonical_form(graph_from_edges(4, edges)))
    assert len(forms) == 11


def test_c4_differs_from_k3_plus_isolated():
    c4 = helpers.cycle(4)
    k3_plus = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(c4) != canonical_form(k3_plus)
    assert not are_isomorphic(c4, k3_plus)


def test_theta_length_order_irrelevant():
    a = build_3pc(ThreePcSpec.of("theta", (2, 2, 3)))
    b = build_3pc(ThreePcSpec.of("theta", (3, 2, 2)))
    assert canonical_form(a) == canonical_form(b)


def test_canonical_rows_is_a_relabeling():
    rng = random.Random(7)
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(1, 8), 0.4)
        rep = graph_from_canonical(canonical_form(g))
        assert rep.degree_sequence() == g.degree_sequence()
        assert rep.edge_count == g.edge_count
        assert helpers.isomorphic_brute(rep, g)


def test_canonical_order_relabels_to_the_canonical_rows(atlas8):
    # on a random relabeling of every class with n <= 7, moving vertex
    # order[i] to position i turns the rows into the canonical rows, which
    # are the class's own
    rng = random.Random(17)
    for n in range(min(7, max(atlas8)) + 1):
        for g in atlas8[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            rows, _, _, order = _canonical_search(n, h.rows)
            assert sorted(order) == list(range(n))
            position = {v: i for i, v in enumerate(order)}
            relabeled = tuple(sum(1 << position[u] for u in bits(h.rows[v])) for v in order)
            assert relabeled == rows == g.rows, g


def test_form_layout_round_trips_at_every_width():
    # n, then the rows at fixed width (n + 7) // 8, little-endian, for the
    # one-byte, two-byte and wider rows alike
    rng = random.Random(5)
    for n in range(41):
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        width = (n + 7) // 8
        form = encode_form(n, rows)
        assert form == bytes([n]) + b"".join(r.to_bytes(width, "little") for r in rows)
        assert graph_from_canonical(form).rows == rows


def test_are_isomorphic_agrees_with_brute(atlas8):
    rng = random.Random(13)
    pool = [g for n in range(4, 7) for g in atlas8[n]]
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        assert are_isomorphic(a, b) == helpers.isomorphic_brute(a, b)


def test_automorphism_counts_known():
    assert automorphism_count(helpers.complete(4)) == 24
    assert automorphism_count(helpers.cycle(5)) == 10
    assert automorphism_count(helpers.path(3)) == 2
    assert automorphism_count(graph_from_edges(5, [])) == 120
    assert automorphism_count(helpers.complete_bipartite(3, 3)) == 72
    assert automorphism_count(helpers.petersen()) == 120
    assert automorphism_count(helpers.claw()) == 6


def test_search_generators_generate_the_automorphism_group(atlas8):
    # every generator maps rows onto rows, and the group they generate,
    # closed by breadth-first search over permutation tuples, has order
    # automorphism_count(g)
    for n in range(1, min(7, max(atlas8)) + 1):
        for g in atlas8[n]:
            gens = _canonical_search(g.n, g.rows)[2]
            edges = set(g.edges())
            for p in gens:
                assert sorted(p) == list(range(n))
                assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
            group = {tuple(range(n))}
            frontier = list(group)
            while frontier:
                nxt = []
                for q in frontier:
                    for p in gens:
                        r = tuple(p[q[v]] for v in range(n))
                        if r not in group:
                            group.add(r)
                            nxt.append(r)
                frontier = nxt
            assert len(group) == automorphism_count(g), g


def _assert_kernel_matches_reference(g):
    # at the root and at every individualization the search makes, the
    # refinement against the cells that just split gives the same ordered
    # cells as the full-signature reference, and the twin lookup the same
    # classes as the union-find reference; the generators of the search are
    # automorphisms and generate a group of order automorphism_count
    n, rows = g.n, g.rows
    if n == 0:
        return
    full = (1 << n) - 1
    root = _refine(n, rows, [full], [full])
    assert root == helpers.refine_reference(rows, [full])
    stack = [root]
    while stack:
        cells = stack.pop()
        cm = next((c for c in cells if c & (c - 1)), 0)
        if not cm:
            continue
        idx = cells.index(cm)
        members = list(bits(cm))
        classes = _twin_classes(rows, members, set())
        assert classes == helpers.twin_classes_reference(rows, members)
        for rep, _ in classes:
            nxt = cells[:idx] + [1 << rep, cm & ~(1 << rep)] + cells[idx + 1 :]
            refined = _refine(n, rows, nxt, [1 << rep])
            assert refined == helpers.refine_reference(rows, nxt)
            stack.append(refined)
    _, count, gens, _ = _canonical_search(n, rows)
    edges = {frozenset(e) for e in g.edges()}
    for p in gens:
        assert sorted(p) == list(range(n))
        assert {frozenset((p[u], p[v])) for u, v in edges} == edges
    assert helpers.group_order(n, gens) == count


def test_kernel_matches_reference_on_every_graph_to_n7(atlas8):
    for n in range(min(7, max(atlas8)) + 1):
        for g in atlas8[n]:
            _assert_kernel_matches_reference(g)


@settings(max_examples=100, deadline=None, database=None)
@given(helpers.graphs(16))
def test_kernel_matches_reference_to_16_vertices(g):
    _assert_kernel_matches_reference(g)
