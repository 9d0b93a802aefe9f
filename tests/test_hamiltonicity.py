import random

import pytest

import helpers
from obstructa.errors import TooLarge
from obstructa.families import (
    ThreePcSpec,
    WheelSpec,
    all_specs_up_to,
    build_3pc,
    build_short_variant,
    build_wheel,
)
from obstructa import hamiltonicity
from obstructa.graphs import (
    Certificate,
    bits,
    decode_graph6,
    graph_from_edges,
    induced_subgraph,
    min_degree2_subsets,
)
from obstructa.hamiltonicity import (
    _forced_cycle,
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    is_hc_obstruction,
)


class TestCycleSearch:
    def test_c5(self):
        res = find_hamiltonian_cycle(helpers.cycle(5))
        assert res.found and res.order == (0, 1, 2, 3, 4)

    def test_k23_has_none(self):
        assert not find_hamiltonian_cycle(helpers.complete_bipartite(2, 3)).found

    def test_line_graph_of_subdivided_k4(self):
        from obstructa.graphs import line_graph

        k = helpers.subdivide_every_edge(helpers.complete(4))
        lg, _ = line_graph(k)
        assert lg.n == 12
        res = find_hamiltonian_cycle(lg)
        assert res.found and is_hamiltonian_cycle(lg, res.order)

    def test_determinism_convention(self):
        rng = random.Random(3)
        for _ in range(200):
            g = helpers.random_graph(rng, rng.randint(3, 8), 0.6)
            res = find_hamiltonian_cycle(g)
            if res.found:
                assert res.order[0] == 0
                assert res.order[1] < res.order[-1]
                assert is_hamiltonian_cycle(g, res.order)

    def test_small_graphs(self):
        assert not find_hamiltonian_cycle(graph_from_edges(1, [])).found
        assert not find_hamiltonian_cycle(graph_from_edges(2, [(0, 1)])).found


class TestPathSearch:
    def test_path_is_its_own_witness(self):
        res = find_hamiltonian_path(helpers.path(4))
        assert res.found and res.order == (0, 1, 2, 3)

    def test_claw_has_none(self):
        assert not find_hamiltonian_path(helpers.claw()).found

    def test_k23_has_one(self):
        g = helpers.complete_bipartite(2, 3)
        res = find_hamiltonian_path(g)
        assert res.found and is_hamiltonian_path(g, res.order)

    def test_single_vertex(self):
        assert find_hamiltonian_path(graph_from_edges(1, [])).order == (0,)

    def test_lexicographically_least(self):
        # DFS in ascending order returns the lexicographically least sequence
        g = helpers.cycle(4)
        assert find_hamiltonian_path(g).order == (0, 1, 2, 3)


class TestOracleAgreement:
    def test_cycle_agrees_with_brute_small_atlas(self, atlas8):
        # the witness too: the oracle's first cycle in permutation order
        for n in range(1, 8):
            for g in atlas8[n]:
                assert find_hamiltonian_cycle(g).order == helpers.first_ham_cycle_brute(g), g

    def test_first_path_is_lexicographically_first(self, atlas8):
        # the apex search returns exactly the first path in permutation order
        assert find_hamiltonian_path(graph_from_edges(0, [])).order is None
        assert find_hamiltonian_path(graph_from_edges(2, [])).order is None
        for n in range(1, 7):
            for g in atlas8[n]:
                assert find_hamiltonian_path(g).order == helpers.first_ham_path_brute(g), g

    def test_path_agrees_with_brute_small_atlas(self, atlas8):
        for n in range(1, 8):
            for g in atlas8[n]:
                assert find_hamiltonian_path(g).found == helpers.ham_path_brute(g), g


class TestForcedEdges:
    def test_verdicts_agree_with_brute(self, atlas8):
        # a forced cycle is the brute force's first cycle, () is never wrong,
        # and the outcome counts over the n <= 7 atlas are pinned so that a
        # rule that silently stops deciding fails here
        counts = {"hamiltonian": 0, "not": 0, "open": 0}
        for n in range(8):
            for g in atlas8[n]:
                verdict = _forced_cycle(g.rows, g.vertex_mask)
                counts["open" if verdict is None else "hamiltonian" if verdict else "not"] += 1
                if verdict is not None:
                    assert verdict == (helpers.first_ham_cycle_brute(g) or ()), g
        assert counts == {"hamiltonian": 16, "not": 158, "open": 1079}
        for spec in all_specs_up_to(9):
            g = build_3pc(spec)
            verdict = _forced_cycle(g.rows, g.vertex_mask)
            assert verdict is None or verdict == (helpers.first_ham_cycle_brute(g) or ()), spec

    def test_outcomes_on_named_graphs(self):
        two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert _forced_cycle(two_triangles.rows, two_triangles.vertex_mask) == ()
        # C5 plus a pendant path: vertex 4 has three forced edges, and the
        # mask of the C5 alone is its forced cycle
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)])
        assert _forced_cycle(g.rows, g.vertex_mask) == ()
        assert _forced_cycle(g.rows, 0b11111) == (0, 1, 2, 3, 4)
        # no vertex of degree 2: nothing is forced
        k4 = helpers.complete(4)
        assert _forced_cycle(k4.rows, k4.vertex_mask) is None


class TestObstruction:
    def test_theta_222(self):
        v = is_hc_obstruction(build_3pc(ThreePcSpec.of("theta", (2, 2, 2))))
        assert v.is_obstruction and v.failure_reason is None

    def test_prism_222(self):
        assert is_hc_obstruction(build_3pc(ThreePcSpec.of("prism", (2, 2, 2)))).is_obstruction

    def test_triangular_prism_fails_hamiltonian(self):
        g = build_short_variant("shortprism", (1, 1, 1))
        v = is_hc_obstruction(g)
        assert not v.is_obstruction and v.failure_reason == "Hamiltonian"
        assert v.witness.tag == "HamCycle"
        assert is_hamiltonian_cycle(g, v.witness.payload)

    def test_not_two_connected(self):
        v = is_hc_obstruction(helpers.path(4))
        assert not v.is_obstruction and v.failure_reason == "NotTwoConnected"
        assert v.witness.tag == "CutVertex"

    def test_non_minimal_witness(self):
        # K_{2,4} is 2-connected and non-Hamiltonian but contains K_{2,3}
        g = helpers.complete_bipartite(2, 4)
        v = is_hc_obstruction(g)
        assert not v.is_obstruction and v.failure_reason == "NonMinimal"
        assert v.witness.tag == "Embedding"
        # the witness is the largest failing subset, lexicographically first
        assert v.witness.payload == (0, 1, 2, 3, 4)
        from obstructa.graphs import induced_subgraph, is_two_connected

        sub, _ = induced_subgraph(g, v.witness.payload)
        assert is_two_connected(sub)
        assert not find_hamiltonian_cycle(sub).found

    def test_verdicts_and_witnesses_match_oracle_small(self, atlas8):
        # minimality on every 2-connected non-Hamiltonian class, against a
        # permutation-and-deletion oracle that shares no search code
        graphs = [g for n in range(3, 8) for g in atlas8[n]]
        # 3PCs up to 9 vertices: sparse obstructions whose minimality check
        # walks every subset size down to 3
        graphs += [build_3pc(spec) for spec in all_specs_up_to(9)]
        # subdivisions on at most 9 vertices: every cycle in them is forced
        graphs += [
            helpers.subdivide_every_edge(g)
            for level in atlas8.values()
            for g in level
            if g.n + g.edge_count <= 9
        ]
        checked = 0
        for g in graphs:
            if not helpers.two_connected_brute(g) or helpers.ham_cycle_brute(g):
                continue
            checked += 1
            v = is_hc_obstruction(g)
            witness = helpers.nonminimal_oracle(g)
            if witness is None:
                assert v.is_obstruction, g
            else:
                assert v.failure_reason == "NonMinimal", g
                assert v.witness == Certificate("Embedding", witness), g
        assert checked > 0

    def test_one_pass_witness_is_the_largest_failing_subset(self, atlas8):
        # the walk is one lexicographic pass over the sizes 3..n-1, so it can
        # meet a smaller failing subset before the witness; the witness is
        # still the largest failing subset, lexicographically first of its
        # size.  On F?Fn_ the walk meets (0, 1, 2, 5, 6) first
        def failing(g, subset):
            sub, _ = induced_subgraph(g, subset)
            return helpers.two_connected_brute(sub) and not helpers.ham_cycle_brute(sub)

        def met_before(g, witness):
            walk = (tuple(bits(s)) for s, _ in min_degree2_subsets(g.rows, 3, g.n - 1))
            return [s for s in iter(walk.__next__, witness) if failing(g, s)]

        g = decode_graph6("F?Fn_")
        v = is_hc_obstruction(g)
        assert v.witness == Certificate("Embedding", (0, 1, 3, 4, 5, 6))
        assert helpers.nonminimal_oracle(g) == (0, 1, 3, 4, 5, 6)
        assert met_before(g, (0, 1, 3, 4, 5, 6))[0] == (0, 1, 2, 5, 6)
        # every atlas class where the walk meets a failing subset before the
        # witness
        early = 0
        for n in range(3, 9):
            for g in atlas8[n]:
                v = is_hc_obstruction(g)
                if v.failure_reason == "NonMinimal" and met_before(g, v.witness.payload):
                    early += 1
                    assert v.witness.payload == helpers.nonminimal_oracle(g), g
        assert early == 36

    def test_minimality_work_on_specs(self, monkeypatch):
        # a 3PC spec is an obstruction, so its minimality pass finds no
        # failing subset and tests every subset the walk yields with a
        # branch vertex: 1,321 of the 1,969 over all_specs_up_to(11); the
        # others are disjoint cycles.  Each tested subset meets the forced
        # edges once, as does the whole graph
        walked, forced = [], []
        walk, decide = hamiltonicity.min_degree2_subsets, hamiltonicity._forced_cycle

        def counted_walk(rows, lo, hi):
            for item in walk(rows, lo, hi):
                walked.append(item)
                yield item

        def counted_forced(rows, within):
            forced.append(within)
            return decide(rows, within)

        monkeypatch.setattr(hamiltonicity, "min_degree2_subsets", counted_walk)
        monkeypatch.setattr(hamiltonicity, "_forced_cycle", counted_forced)
        specs = all_specs_up_to(11)
        assert len(specs) == 134
        assert all(is_hc_obstruction(build_3pc(spec)).is_obstruction for spec in specs)
        assert len(walked) == 1969
        assert sum(1 for _, branch in walked if branch) == len(forced) - len(specs) == 1321

    def test_too_large(self):
        with pytest.raises(TooLarge):
            is_hc_obstruction(graph_from_edges(17, [(i, (i + 1) % 17) for i in range(17)]))

    def test_full_wheels_are_hamiltonian(self):
        for c in range(3, 9):
            w = build_wheel(WheelSpec(c, frozenset(range(c))))
            assert find_hamiltonian_cycle(w).found
