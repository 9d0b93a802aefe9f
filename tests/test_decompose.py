import itertools
import random

import pytest

import helpers
from obstructa.canon import are_isomorphic, canonical_form
from obstructa.decompose import (
    SpecialEdge,
    check_chordless_dichotomy,
    check_only_prism_dichotomy,
    find_proper_2_cutset,
    find_special_edges,
    find_two_edge_cutsets,
    has_k4_minor,
    is_chordless,
    is_only_prism,
    is_two_sparse,
    k4_subdivision_witness,
    krausz_partitions,
    recognize_line_graph,
    reduce_adjacent_degree2,
    reduce_special_edges,
    root_from_partition,
    triangle_free,
)
from obstructa.errors import AmbiguousMidpoints, NotTwoConnected, PreconditionViolated
from obstructa.families import ThreePcSpec, build_3pc, build_short_variant, recognize_3pc
from obstructa.graphs import (
    Graph,
    contract_edge,
    graph_from_edges,
    induced_subgraph,
    is_two_connected,
    line_graph,
)


class TestDegree2Reduction:
    def test_c6_collapses_to_triangle(self):
        g, log = reduce_adjacent_degree2(helpers.cycle(6))
        assert g.n == 3 and g.edge_count == 3
        assert len(log) == 3

    def test_theta_333_to_222(self):
        g, _ = reduce_adjacent_degree2(build_3pc(ThreePcSpec.of("theta", (3, 3, 3))))
        assert recognize_3pc(g) == ThreePcSpec.of("theta", (2, 2, 2))

    def test_prism_fixed_point(self):
        prism = build_3pc(ThreePcSpec.of("prism", (2, 2, 2)))
        g, log = reduce_adjacent_degree2(prism)
        assert g == prism and log == ()

    def test_triangle_fixed_point(self):
        g, log = reduce_adjacent_degree2(helpers.complete(3))
        assert g.n == 3 and log == ()

    def test_log_replays(self):
        rng = random.Random(31)
        candidates = [helpers.cycle(7), build_3pc(ThreePcSpec.of("theta", (2, 3, 4)))]
        for g in candidates:
            reduced, log = reduce_adjacent_degree2(g)
            cur = g
            for e in log:
                cur = contract_edge(cur, e)
            assert cur == reduced

    def test_requires_two_connected(self):
        with pytest.raises(NotTwoConnected):
            reduce_adjacent_degree2(helpers.path(4))

    def test_output_two_connected(self, atlas8):
        for n in range(3, 8):
            for g in atlas8[n]:
                if is_two_connected(g):
                    reduced, _ = reduce_adjacent_degree2(g)
                    assert is_two_connected(reduced)


class TestSpecialEdges:
    def test_k4_with_pendant_triangle(self):
        g = graph_from_edges(5, list(itertools.combinations(range(4), 2)) + [(0, 4), (1, 4)])
        assert find_special_edges(g) == (SpecialEdge((0, 1), 4),)
        reduced, removed = reduce_special_edges(g)
        assert removed == (4,)
        assert are_isomorphic(reduced, helpers.complete(4))

    def test_c5_empty(self):
        assert find_special_edges(helpers.cycle(5)) == ()
        reduced, removed = reduce_special_edges(helpers.cycle(5))
        assert removed == () and reduced == helpers.cycle(5)

    def test_theta_plus_three_midpoints(self):
        g = build_3pc(ThreePcSpec.of("theta", (2, 2, 2), {1}))
        specials = find_special_edges(g)
        assert specials == (
            SpecialEdge((0, 1), 2),
            SpecialEdge((0, 1), 3),
            SpecialEdge((0, 1), 4),
        )
        with pytest.raises(AmbiguousMidpoints):
            reduce_special_edges(g)

    def test_midpoint_edge_is_real(self, atlas8):
        # after removing the midpoint the edge endpoints stay adjacent
        for n in range(4, 8):
            for g in atlas8[n]:
                if not is_two_connected(g):
                    continue
                for s in find_special_edges(g):
                    u, v = s.edge
                    assert g.has_edge(u, v)
                    assert g.rows[s.midpoint] == (1 << u | 1 << v)


    def test_matches_definition_on_every_graph_to_n8(self, atlas8):
        # the direct degree-2 test against components after deleting each
        # edge, on all 7,661 2-connected classes at the default scale
        checked = 0
        for n in range(3, 9):
            for g in atlas8[n]:
                if not is_two_connected(g):
                    continue
                checked += 1
                got = [(s.edge, s.midpoint) for s in find_special_edges(g)]
                assert got == helpers.special_edges_brute(g), g
        assert checked > 0


class TestChordless:
    def test_trees_and_cycles(self):
        assert is_chordless(helpers.path(5))[0]
        assert is_chordless(helpers.cycle(8))[0]

    def test_k4_witness(self):
        ok, witness = is_chordless(helpers.complete(4))
        assert not ok
        (u, v), cycle = witness
        g = helpers.complete(4)
        assert g.has_edge(u, v)
        assert u in cycle and v in cycle
        k = len(cycle)
        assert len(set(cycle)) == k >= 3
        for i in range(k):
            assert g.has_edge(cycle[i], cycle[(i + 1) % k])
        assert (u, v) not in [tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)]

    def test_k26(self):
        assert is_chordless(helpers.complete_bipartite(2, 6))[0]

    def test_diamond_has_chord(self):
        assert not is_chordless(helpers.diamond())[0]


class TestTwoSparse:
    def test_examples(self):
        assert is_two_sparse(build_3pc(ThreePcSpec.of("theta", (2, 2, 2))))[0]
        ok, edge = is_two_sparse(helpers.complete(4))
        assert not ok and edge is not None
        ok, edge = is_two_sparse(build_short_variant("shortprism", (1, 1, 1)))
        assert not ok


class TestProperTwoCutset:
    def test_theta_has_none(self):
        assert find_proper_2_cutset(build_3pc(ThreePcSpec.of("theta", (2, 2, 2)))) is None

    def test_c6_has_none(self):
        assert find_proper_2_cutset(helpers.cycle(6)) is None

    def test_k26_split_validates(self):
        g = helpers.complete_bipartite(2, 6)
        split = find_proper_2_cutset(g)
        assert split is not None
        assert {split.u, split.v} == {0, 1}  # the degree-6 side
        assert not g.has_edge(split.u, split.v)
        assert split.side_x and split.side_y
        assert split.side_x | split.side_y == set(range(2, 8))
        for side in (split.side_x, split.side_y):
            for a in side:
                for b in (split.side_x | split.side_y) - side:
                    assert not g.has_edge(a, b)
            sub, _ = induced_subgraph(g, side | {split.u, split.v})
            from obstructa.graphs import is_path_graph

            assert not is_path_graph(sub)


class TestTwoEdgeCutsets:
    def test_c4_all_pairs(self):
        assert len(find_two_edge_cutsets(helpers.cycle(4))) == 6

    def test_triangular_prism_three_edge_connected(self):
        assert find_two_edge_cutsets(build_short_variant("shortprism", (1, 1, 1))) == ()

    def test_subdivided_k4_isolating_pair(self):
        g = graph_from_edges(
            5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
        )  # K4 with edge 01 subdivided by 4
        hits = find_two_edge_cutsets(g)
        assert (((0, 4), (1, 4)), (frozenset({0, 1, 2, 3}), frozenset({4})), True) in hits


class TestLineGraphRecognition:
    def test_c5_root(self):
        res = recognize_line_graph(helpers.cycle(5))
        assert res is not None and are_isomorphic(res.root, helpers.cycle(5))

    def test_k3_root_is_star(self):
        res = recognize_line_graph(helpers.complete(3))
        assert are_isomorphic(res.root, helpers.claw())

    def test_claw_is_not_a_line_graph(self):
        assert recognize_line_graph(helpers.claw()) is None

    def test_triangular_prism_root_is_k23(self):
        res = recognize_line_graph(build_short_variant("shortprism", (1, 1, 1)))
        assert res is not None
        assert are_isomorphic(res.root, helpers.complete_bipartite(2, 3))

    def test_edge_map_is_isomorphism(self, atlas8):
        # root soundness: L(root) is isomorphic to g via edge_map
        from obstructa.graphs import is_connected_masked

        for n in range(2, 8):
            for g in atlas8[n]:
                if not is_connected_masked(g.rows, g.vertex_mask):
                    continue
                res = recognize_line_graph(g)
                if res is None:
                    continue
                lg, edges = line_graph(res.root)
                index = {e: i for i, e in enumerate(edges)}
                image = [index[e] for e in res.edge_map]
                assert sorted(image) == list(range(g.n))
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        assert g.has_edge(u, v) == lg.has_edge(image[u], image[v])

    def test_recognition_complete_against_generated_line_graphs(self, atlas8):
        # every connected graph on <= 7 vertices that IS a line graph (of some
        # connected root on <= 8 vertices with <= 7 edges) must be recognized,
        # and everything recognized must be in that set
        from obstructa.graphs import is_connected_masked

        top = max(atlas8) - 1  # a connected root can need n+1 vertices
        true_line_graphs = set()
        for n in range(1, max(atlas8) + 1):
            for h in atlas8[n]:
                if not is_connected_masked(h.rows, h.vertex_mask):
                    continue
                if h.edge_count > top:
                    continue
                lg, _ = line_graph(h)
                true_line_graphs.add(canonical_form(lg))
        for n in range(1, top + 1):
            for g in atlas8[n]:
                if not is_connected_masked(g.rows, g.vertex_mask):
                    continue
                got = recognize_line_graph(g)
                assert (got is not None) == (canonical_form(g) in true_line_graphs), g

    def test_whitney_uniqueness(self, atlas8):
        # all Krausz partitions of a connected line graph (not K3) give
        # isomorphic roots; recognition first, so only line graphs are
        # partition-enumerated
        from obstructa.graphs import is_connected_masked

        for n in range(2, max(atlas8) + 1):
            for g in atlas8[n]:
                if not is_connected_masked(g.rows, g.vertex_mask):
                    continue
                if g.n == 3 and g.edge_count == 3:
                    continue
                if recognize_line_graph(g) is None:
                    continue
                forms = set()
                for parts in krausz_partitions(g):
                    forms.add(canonical_form(root_from_partition(g, parts).root))
                assert len(forms) == 1, g


class TestK4Minor:
    def test_examples(self):
        assert has_k4_minor(helpers.complete(4))
        assert not has_k4_minor(build_3pc(ThreePcSpec.of("theta", (2, 2, 2))))
        assert has_k4_minor(build_short_variant("shortprism", (1, 1, 1)))
        assert not has_k4_minor(helpers.cycle(9))
        assert has_k4_minor(helpers.complete_bipartite(3, 3))

    def test_agrees_with_model_oracle(self, atlas8):
        for n in range(1, 8):
            for g in atlas8[n]:
                assert has_k4_minor(g) == helpers.k4_minor_oracle(g), g

    def test_witness_valid_when_minor_exists(self, atlas8):
        pool = [g for n in range(4, 8) for g in atlas8[n] if has_k4_minor(g)]
        for g in pool + [helpers.petersen()]:
            cert = k4_subdivision_witness(g)
            assert cert is not None and cert.tag == "K4Subdivision"
            branches, paths = cert.payload
            assert len(branches) == 4 and len(paths) == 6
            interiors = set()
            pair_order = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
            for (i, j), path in zip(pair_order, paths):
                assert path[0] == branches[i] and path[-1] == branches[j]
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
                inner = set(path[1:-1])
                assert not inner & set(branches)
                assert not inner & interiors
                interiors |= inner

    def test_witness_none_when_minor_free(self):
        assert k4_subdivision_witness(helpers.cycle(6)) is None


class TestDichotomies:
    def test_triangular_prism_line_graph_branch(self):
        res = check_only_prism_dichotomy(build_short_variant("shortprism", (1, 1, 1)))
        assert res.holds and res.branch == "LineGraphRoot"
        assert are_isomorphic(res.certificate.root, helpers.complete_bipartite(2, 3))

    def test_theta_plus_clique_cutset_branch(self):
        res = check_only_prism_dichotomy(build_3pc(ThreePcSpec.of("theta", (2, 2, 2), {1})))
        assert res.holds and res.branch == "CliqueCutset"
        assert res.certificate.payload == (0, 1)

    def test_c6_line_graph_branch(self):
        res = check_only_prism_dichotomy(helpers.cycle(6))
        assert res.holds and res.branch == "LineGraphRoot"

    def test_only_prism_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_only_prism_dichotomy(helpers.complete(4))  # a wheel
        with pytest.raises(PreconditionViolated):
            check_only_prism_dichotomy(build_3pc(ThreePcSpec.of("theta", (2, 2, 2))))

    def test_theta_plus_is_only_prism(self):
        # the plus variants are not excluded by the only-prism property
        assert is_only_prism(build_3pc(ThreePcSpec.of("theta", (2, 2, 2), {1})))
        assert not is_only_prism(build_3pc(ThreePcSpec.of("theta", (2, 2, 2))))
        assert not is_only_prism(build_3pc(ThreePcSpec.of("pyramid", (2, 2, 2))))
        assert is_only_prism(build_3pc(ThreePcSpec.of("prism", (2, 2, 2))))

    def test_is_only_prism_matches_definition_oracle(self, atlas8):
        # no induced wheel and no induced theta or pyramid without chords,
        # each read from the definition on every vertex subset
        for n in range(8):
            for g in atlas8[n]:
                banned = any(
                    spec.kind in ("theta", "pyramid") and not spec.chords
                    for spec, _ in helpers.induced_3pcs_oracle(g)
                )
                want = not helpers.wheel_subset_oracle(g) and not banned
                assert is_only_prism(g) == want, g

    def test_chordless_dichotomy_examples(self):
        assert check_chordless_dichotomy(build_3pc(ThreePcSpec.of("theta", (2, 2, 2)))).branch == "TwoSparse"
        assert check_chordless_dichotomy(helpers.complete_bipartite(2, 6)).branch == "TwoSparse"
        assert check_chordless_dichotomy(helpers.cycle(8)).branch == "TwoSparse"

    def test_chordless_dichotomy_cutset_branch(self):
        # two 4-cycles sharing w=6, plus the edge 01 joining the degree-3
        # hubs: 2-connected, chordless, and not 2-sparse (edge 01)
        g = graph_from_edges(
            7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6)]
        )
        assert is_chordless(g)[0] and not is_two_sparse(g)[0]
        res = check_chordless_dichotomy(g)
        assert res.holds and res.branch == "ProperTwoCutset"
        u, v, side_x, side_y = res.certificate.payload
        assert not g.has_edge(u, v)
        assert set(side_x) | set(side_y) | {u, v} == set(range(7))

    def test_chordless_dichotomy_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_chordless_dichotomy(helpers.complete(4))  # chorded
        with pytest.raises(PreconditionViolated):
            check_chordless_dichotomy(helpers.path(4))  # not 2-connected


class TestReductionSafetySmall:
    def test_verdicts_preserved_small(self, atlas8):
        # full-scale version lives in the acceptance suite
        from obstructa.detectors import find_induced_wheel, scan_contains_family
        from obstructa.families import family_tables
        from obstructa.hamiltonicity import find_hamiltonian_cycle

        def verdicts(g):
            return (
                is_two_connected(g),
                find_hamiltonian_cycle(g).found,
                find_induced_wheel(g) is None,
                not scan_contains_family(g.n, g.rows, family_tables(g.n)),
            )

        for n in range(3, 8):
            for g in atlas8[n]:
                if not is_two_connected(g):
                    continue
                reduced, log = reduce_adjacent_degree2(g)
                if not log:
                    continue
                assert verdicts(g) == verdicts(reduced), g
