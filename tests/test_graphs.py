import itertools
import random

import pytest

import helpers
from obstructa.errors import (
    CapacityExceeded,
    EdgeAbsent,
    MalformedGraph6,
    NotConnected,
    SelfLoop,
    VertexOutOfRange,
)
from obstructa.families import ThreePcSpec, WheelSpec, all_specs_up_to, build_3pc, build_wheel
from obstructa.graphs import (
    Graph,
    _cut_vertices,
    bits,
    connectivity_report,
    contract_edge,
    decode_graph6,
    encode_graph6,
    find_clique_cutset,
    graph_from_edges,
    induced_subgraph,
    is_connected_masked,
    is_two_connected,
    line_graph,
    min_degree2_subsets,
    parse_edge_list,
)
from obstructa.canon import are_isomorphic


class TestConstruction:
    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count == 3
        assert g.degree_sequence() == (2, 2, 2)

    def test_k4_is_complete(self):
        g = helpers.complete(4)
        assert g.edge_count == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            graph_from_edges(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange):
            graph_from_edges(2, [(0, 2)])

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            graph_from_edges(65, [])

    def test_duplicate_edges_idempotent(self):
        g = graph_from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_edges_lexicographic(self):
        g = graph_from_edges(4, [(2, 3), (0, 3), (0, 1)])
        assert g.edges() == [(0, 1), (0, 3), (2, 3)]


class TestGraph6:
    def test_k4(self):
        assert encode_graph6(helpers.complete(4)) == "C~"

    def test_k2(self):
        assert encode_graph6(graph_from_edges(2, [(0, 1)])) == "A_"

    def test_two_isolated(self):
        assert encode_graph6(graph_from_edges(2, [])) == "A?"

    def test_decode_inverse_on_random(self):
        rng = random.Random(11)
        for _ in range(300):
            g = helpers.random_graph(rng, rng.randint(0, 12), rng.random())
            assert decode_graph6(encode_graph6(g)) == g

    def test_reject_long_form(self):
        with pytest.raises(MalformedGraph6):
            decode_graph6("~??")

    def test_reject_bad_length(self):
        with pytest.raises(MalformedGraph6):
            decode_graph6("C~~")

    def test_reject_bad_byte(self):
        with pytest.raises(MalformedGraph6):
            decode_graph6("C\x07")

    def test_reject_encode_beyond_62(self):
        with pytest.raises(CapacityExceeded):
            encode_graph6(graph_from_edges(63, []))


class TestEdgeListFormat:
    def test_round_trip(self):
        g = helpers.cycle(5)
        from obstructa.graphs import format_edge_list

        assert parse_edge_list(format_edge_list(g)) == g

    def test_bad_line(self):
        with pytest.raises(MalformedGraph6):
            parse_edge_list("3\n0 x\n")


class TestInducedSubgraph:
    def test_k4_minus_vertex_is_triangle(self):
        sub, mapping = induced_subgraph(helpers.complete(4), {0, 1, 3})
        assert sub.edge_count == 3 and sub.n == 3
        assert mapping == {0: 0, 1: 1, 3: 2}

    def test_c5_segment_is_path(self):
        sub, _ = induced_subgraph(helpers.cycle(5), {0, 1, 2, 3})
        assert sub.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_theta_two_paths_give_c4(self):
        theta = build_3pc(ThreePcSpec.of("theta", (2, 2, 2)))
        # ends 0, 1 plus two of the three internals
        sub, _ = induced_subgraph(theta, {0, 1, 2, 3})
        assert are_isomorphic(sub, helpers.cycle(4))


    def test_min_degree2_subsets_filter_and_order(self, atlas8):
        # the oracle against the definition
        rng = random.Random(12)
        for _ in range(60):
            g = helpers.random_graph(rng, rng.randint(3, 8), rng.random())
            sizes = list(range(g.n, 2, -1))
            want = []
            for k in sizes:
                for s in itertools.combinations(range(g.n), k):
                    sub_rows = induced_subgraph(g, s)[0].rows
                    if min(r.bit_count() for r in sub_rows) >= 2:
                        branch = [v for v, r in zip(s, sub_rows) if r.bit_count() >= 3]
                        want.append((s, sum(1 << v for v in s), sum(1 << v for v in branch)))
            assert list(helpers.min_degree2_subsets_oracle(g.rows, sizes)) == want
        # the pruned walk against the oracle: masks, branch masks and order,
        # on every small class, sparse 3PCs and wheels where pruning cuts
        # most, cliques where it cuts nothing, and random graphs in between.
        # Each one-size window walks the sizes one at a time, as the 3PC
        # scan does; the whole window and the minimality check's window
        # 3..n-1 are one lexicographic pass over all sizes
        graphs = [g for n in range(8) for g in atlas8[n]]
        graphs += [build_3pc(spec) for spec in all_specs_up_to(12)]
        graphs += [
            build_wheel(WheelSpec(c, frozenset(hub)))
            for c, hub in [(3, (0, 1, 2)), (6, (0, 2, 4)), (9, (0, 1, 5)), (12, (0, 4, 8)), (12, range(12))]
        ]
        graphs += [helpers.complete(n) for n in range(3, 11)]
        graphs += [
            helpers.random_graph(rng, rng.randint(3, 12), p / 10) for p in range(1, 10) for _ in range(4)
        ]
        for g in graphs:
            sizes = range(g.n + 2)  # size 0 and a size above n included
            oracle = helpers.min_degree2_subsets_oracle
            want = {k: [(sub, branch) for _, sub, branch in oracle(g.rows, [k])] for k in sizes}
            for k in sizes:
                assert list(min_degree2_subsets(g.rows, k, k)) == want[k], (g, k)
            for lo, hi in [(0, g.n + 1), (3, g.n - 1)]:
                window = sorted(
                    (s for k in range(lo, hi + 1) for s in want[k]), key=lambda s: list(bits(s[0]))
                )
                assert list(min_degree2_subsets(g.rows, lo, hi)) == window, (g, lo, hi)


class TestConnectivity:
    def test_c5(self):
        rep = connectivity_report(helpers.cycle(5))
        assert rep.connected and rep.two_connected and not rep.cut_vertices

    def test_bowtie_cut_vertex(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        rep = connectivity_report(g)
        assert rep.cut_vertices == frozenset({2})
        assert not rep.two_connected

    def test_k2_not_two_connected(self):
        rep = connectivity_report(graph_from_edges(2, [(0, 1)]))
        assert rep.connected and not rep.two_connected

    def test_components_partition(self):
        g = graph_from_edges(5, [(0, 1), (2, 3)])
        rep = connectivity_report(g)
        assert sorted(map(sorted, rep.components)) == [[0, 1], [2, 3], [4]]

    def test_cut_vertices_match_oracle_to_n6(self, atlas8):
        # every class under every vertex mask, disconnected masks included
        for n in range(7):
            for g in atlas8[n]:
                for within in range(1 << n):
                    cut = helpers.cut_vertices_oracle(g, within)
                    assert _cut_vertices(g.rows, within) == cut, (g, within)
                    sub, _ = induced_subgraph(g, bits(within))
                    want = sub.n >= 3 and is_connected_masked(g.rows, within) and not cut
                    assert is_two_connected(sub) == want, (g, within)

    def test_64_vertex_path_and_cycle(self):
        # the largest graphs there are, so the deepest depth-first walks
        path, cycle = helpers.path(64), helpers.cycle(64)
        assert not is_two_connected(path) and is_two_connected(cycle)
        rep = connectivity_report(path)
        assert rep.connected and not rep.two_connected
        assert rep.cut_vertices == frozenset(range(1, 63))
        assert rep.components == (frozenset(range(64)),)
        rep = connectivity_report(cycle)
        assert rep.connected and rep.two_connected and not rep.cut_vertices

    def test_two_connected_survives_any_deletion(self, atlas):
        # exhaustive cross-check up to the acceptance scale
        from obstructa.graphs import flood, is_two_connected

        for n, reps in atlas.items():
            if n < 3:
                continue
            for g in reps:
                if not is_two_connected(g):
                    continue
                for v in range(n):
                    rest = g.vertex_mask & ~(1 << v)
                    assert flood(g.rows, rest & -rest, rest) == rest


class TestCliqueCutset:
    def test_theta_plus_cut_pair(self):
        g = build_3pc(ThreePcSpec.of("theta", (2, 2, 2), {1}))
        hit = find_clique_cutset(g)
        assert hit is not None
        clique, comps = hit
        assert clique == frozenset({0, 1})
        assert sorted(map(sorted, comps)) == [[2], [3], [4]]

    def test_diamond(self):
        hit = find_clique_cutset(helpers.diamond())
        assert hit is not None
        clique, _ = hit
        assert clique == frozenset({0, 1})  # the two degree-3 vertices

    def test_c5_none(self):
        assert find_clique_cutset(helpers.cycle(5)) is None

    def test_requires_connected(self):
        with pytest.raises(NotConnected):
            find_clique_cutset(graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_cut_vertex_found_as_size_one(self):
        g = helpers.path(3)
        hit = find_clique_cutset(g)
        assert hit is not None and hit[0] == frozenset({1})

    def test_matches_subset_oracle_to_n7(self, atlas8):
        for n in range(min(7, max(atlas8)) + 1):
            for g in atlas8[n]:
                if is_connected_masked(g.rows, g.vertex_mask):
                    assert find_clique_cutset(g) == helpers.clique_cutset_oracle(g), g


class TestLineGraph:
    def test_p3(self):
        lg, emap = line_graph(helpers.path(3))
        assert lg.n == 2 and lg.edge_count == 1
        assert emap == ((0, 1), (1, 2))

    def test_claw_gives_triangle(self):
        lg, _ = line_graph(helpers.claw())
        assert are_isomorphic(lg, helpers.complete(3))

    def test_c5_self(self):
        lg, _ = line_graph(helpers.cycle(5))
        assert are_isomorphic(lg, helpers.cycle(5))

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            line_graph(helpers.complete(13))  # 78 edges

    def test_matches_definition_to_n7(self, atlas8):
        for n in range(min(7, max(atlas8)) + 1):
            for g in atlas8[n]:
                assert line_graph(g) == helpers.line_graph_oracle(g), g


class TestContraction:
    def test_c6_to_c5(self):
        g = contract_edge(helpers.cycle(6), (0, 1))
        assert are_isomorphic(g, helpers.cycle(5))

    def test_triangle_to_edge(self):
        g = contract_edge(helpers.complete(3), (0, 1))
        assert g.n == 2 and g.edge_count == 1

    def test_theta_contraction_degree(self):
        theta = build_3pc(ThreePcSpec.of("theta", (2, 2, 2)))
        g = contract_edge(theta, (0, 2))  # end with an internal
        assert g.degree(0) == 3

    def test_absent_edge(self):
        with pytest.raises(EdgeAbsent):
            contract_edge(helpers.cycle(5), (0, 2))

    def test_shrinks_and_stays_simple(self):
        rng = random.Random(5)
        for _ in range(300):
            g = helpers.random_graph(rng, rng.randint(2, 10), 0.5)
            edges = g.edges()
            if not edges:
                continue
            e = rng.choice(edges)
            h = contract_edge(g, e)
            assert h.n == g.n - 1
            for v in range(h.n):
                assert not h.rows[v] >> v & 1
                for w in range(h.n):
                    assert (h.rows[v] >> w & 1) == (h.rows[w] >> v & 1)
