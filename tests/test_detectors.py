import importlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import helpers
from obstructa import detectors, hamiltonicity
from obstructa.detectors import (
    ClassificationRecord,
    classify,
    find_induced_3pc,
    find_induced_wheel,
)
from obstructa.errors import TooLarge
from obstructa.families import (
    ThreePcSpec,
    WheelSpec,
    all_specs_up_to,
    build_3pc,
    build_short_variant,
    build_wheel,
    format_spec,
    recognize_3pc,
)
from obstructa.graphs import (
    Graph,
    decode_graph6,
    graph_from_edges,
    induced_rows,
    induced_subgraph,
    is_two_connected,
)
from obstructa.hamiltonicity import find_hamiltonian_cycle, is_hc_obstruction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def short_variants(max_n: int) -> list[Graph]:
    """The short prisms and pyramids on at most max_n vertices."""
    graphs = [
        build_short_variant(kind, (1, a, b))
        for kind, low in (("shortprism", 1), ("shortpyramid", 2))
        for a in range(low, max_n)
        for b in range(a, max_n)
    ]
    return [h for h in graphs if h.n <= max_n]


class TestWheelDetector:
    def test_k4(self):
        # the first induced cycle is the triangle 012; 3 is its only hub
        assert find_induced_wheel(helpers.complete(4)) == (3, (0, 1, 2))

    def test_triangular_prism_none(self):
        assert find_induced_wheel(build_short_variant("shortprism", (1, 1, 1))) is None

    def test_alternating_wheel(self):
        w = build_wheel(WheelSpec(6, frozenset({0, 2, 4})))
        hit = find_induced_wheel(w)
        assert hit is not None and hit[0] == 6

    def test_witness_revalidates(self):
        rng = random.Random(99)
        for _ in range(500):
            g = helpers.random_graph(rng, rng.randint(4, 8), rng.random())
            hit = find_induced_wheel(g)
            if hit is None:
                continue
            hub, rim = hit
            assert hub not in rim
            assert sum(1 for v in rim if g.has_edge(hub, v)) >= 3
            assert helpers.is_induced_cycle(g, rim)

    def test_induced_cycles_match_recursive_walk(self, atlas8):
        # the explicit-stack walk yields the cycles of the recursive one in
        # the same order, on every class with n <= 7, anchored at each
        # vertex with the candidates above it (as the wheel search takes
        # them) and with every other vertex
        for n in range(1, 8):
            for g in atlas8[n]:
                for anchor in range(n):
                    above = g.vertex_mask & ~((2 << anchor) - 1)
                    for cand in (above, g.vertex_mask & ~(1 << anchor)):
                        got = list(detectors.induced_cycles(g.rows, anchor, cand))
                        assert got == list(helpers.induced_cycles_oracle(g.rows, anchor, cand)), g

    def test_completeness_vs_subset_oracle_small(self, atlas8):
        for n in range(4, 8):
            for g in atlas8[n]:
                found = find_induced_wheel(g) is not None
                assert found == helpers.wheel_subset_oracle(g)

    def test_subset_oracle_vs_per_subset_definition_small(self, atlas8):
        # the bitmask oracle against is_wheel_brute on every induced subgraph
        for n in range(1, min(6, max(atlas8)) + 1):
            for g in atlas8[n]:
                per_subset = any(
                    helpers.is_wheel_brute(Graph(size, induced_rows(g.rows, subset)))
                    for size in range(4, n + 1)
                    for subset in itertools.combinations(range(n), size)
                )
                assert helpers.wheel_subset_oracle(g) == per_subset, g

    def test_witness_convention_small(self, atlas8):
        # the rim is an induced cycle read from its least vertex toward its
        # smaller neighbor, and the hub is the least vertex off the rim with
        # three rim neighbors
        for n in range(4, 8):
            for g in atlas8[n]:
                hit = find_induced_wheel(g)
                if hit is None:
                    continue
                hub, rim = hit
                rim_mask = sum(1 << v for v in rim)
                assert helpers.is_induced_cycle(g, rim), g
                assert rim[0] == min(rim) and rim[1] < rim[-1], g
                on_rim = [(g.rows[v] & rim_mask).bit_count() for v in range(n)]
                assert hub == min(v for v in range(n) if v not in rim and on_rim[v] >= 3), g

    def test_whole_graph_recognizer(self):
        # the definition-level test behind wheel_subset_oracle
        assert helpers.is_wheel_brute(helpers.complete(4))
        assert helpers.is_wheel_brute(build_short_variant("shortpyramid", (1, 2, 2)))
        assert not helpers.is_wheel_brute(helpers.cycle(5))
        assert not helpers.is_wheel_brute(build_short_variant("shortprism", (1, 1, 1)))


class TestThreePcDetector:
    def test_theta_finds_itself(self):
        g = build_3pc(ThreePcSpec.of("theta", (2, 2, 3)))
        hit = find_induced_3pc(g)
        assert hit is not None
        spec, verts = hit
        assert verts == frozenset(range(g.n))
        assert spec == ThreePcSpec.of("theta", (2, 2, 3))

    def test_k33_contains_theta222(self):
        hit = find_induced_3pc(helpers.complete_bipartite(3, 3))
        assert hit is not None
        spec, verts = hit
        assert spec == ThreePcSpec.of("theta", (2, 2, 2))
        assert verts == frozenset({0, 1, 2, 3, 4})  # first subset in the order

    def test_c7_none(self):
        assert find_induced_3pc(helpers.cycle(7)) is None

    def test_embedding_revalidates(self, atlas8):
        rng = random.Random(4)
        pool = [g for g in atlas8[7]]
        for g in rng.sample(pool, 120):
            hit = find_induced_3pc(g)
            if hit is not None:
                spec, verts = hit
                sub, _ = induced_subgraph(g, verts)
                assert recognize_3pc(sub) == spec

    def test_completeness_vs_subset_oracle_small(self, atlas8):
        from obstructa.families import specs_with_vertex_count

        spec_graphs = {
            k: [build_3pc(s) for s in specs_with_vertex_count(k)] for k in range(5, 11)
        }
        graphs = [g for n in range(5, 8) for g in atlas8[n]]
        # sparse inputs up to 10 vertices, where the subset walk prunes most:
        # 3PCs, and the short prisms and pyramids that are not 3PCs
        graphs += [h for k in range(5, 11) for h in spec_graphs[k]]
        graphs += short_variants(10)
        for g in graphs:
            hit = find_induced_3pc(g)
            witness = None if hit is None else hit[1]
            assert witness == helpers.threepc_subset_oracle(g, spec_graphs), g

    def test_matches_oracle_scan_on_two_connected_classes(self, atlas8):
        # the skeleton reader on each candidate subset against the
        # canonical-lookup oracle on every minimum-degree-2 combination
        for n in range(5, 9):
            for g in atlas8.get(n, ()):
                if is_two_connected(g):
                    assert find_induced_3pc(g) == helpers.find_induced_3pc_oracle(g), g

    def test_induced_3pcs_match_oracle_on_two_connected_classes(self, atlas8):
        # every (spec, subset) in order, against the canonical-lookup oracle
        # on every minimum-degree-2 combination
        for n in range(5, 8):
            for g in atlas8[n]:
                if is_two_connected(g):
                    assert list(detectors.induced_3pcs(g.rows)) == list(
                        helpers.induced_3pcs_oracle(g)
                    ), g

    def test_too_large(self, monkeypatch):
        # the cap is checked before the subset walk starts
        def no_walk(*args):
            raise AssertionError("subset walk started above the cap")

        monkeypatch.setattr(detectors, "min_degree2_subsets", no_walk)
        with pytest.raises(TooLarge):
            find_induced_3pc(graph_from_edges(21, []))


class TestClassify:
    def test_k23(self):
        rec = classify(helpers.complete_bipartite(2, 3))
        assert rec.to_dict() == {
            "two_connected": True,
            "wheel_free": True,
            "contains_3pc": True,
            "hamiltonian": False,
            "hc_obstruction": True,
            "recognized_3pc": "theta:2,2,2",
        }

    def test_triangular_prism(self):
        rec = classify(build_short_variant("shortprism", (1, 1, 1)))
        assert rec.two_connected and rec.wheel_free and rec.hamiltonian
        assert not rec.contains_3pc and not rec.hc_obstruction
        assert rec.recognized_3pc is None

    def test_k4(self):
        rec = classify(helpers.complete(4))
        assert rec.two_connected and not rec.wheel_free
        assert not rec.contains_3pc and rec.hamiltonian and not rec.hc_obstruction

    def test_json_schema_on_small_graphs(self, atlas8):
        keys = {
            "two_connected",
            "wheel_free",
            "contains_3pc",
            "hamiltonian",
            "hc_obstruction",
            "recognized_3pc",
        }
        rng = random.Random(8)
        pool = [g for n in range(1, 8) for g in atlas8[n]]
        pool += rng.sample(list(atlas8[8]), 300) if 8 in atlas8 else []
        for g in pool:
            d = classify(g).to_dict()
            assert set(d) == keys
            record = json.loads(json.dumps(d))
            assert record == d

    def test_record_invariants(self, atlas8):
        rng = random.Random(21)
        pool = [g for n in range(3, 8) for g in atlas8[n]]
        for g in rng.sample(pool, 200):
            rec = classify(g)
            if rec.hc_obstruction:
                assert rec.two_connected and not rec.hamiltonian
            if rec.recognized_3pc is not None:
                assert rec.contains_3pc

    def test_too_large(self):
        with pytest.raises(TooLarge):
            classify(graph_from_edges(17, []))

    def test_matches_standalone_detectors(self, atlas8, monkeypatch):
        # classify shares verdicts between facts; each standalone detector
        # decides its fact alone, and the records must agree
        monkeypatch.syspath_prepend(str(PERFBENCH))
        corpus = importlib.import_module("corpus")
        graphs = [g for n in range(8) for g in atlas8[n]]
        graphs += [build_3pc(s) for s in all_specs_up_to(12)]
        graphs += short_variants(10)
        graphs += [decode_graph6(e.graph6) for e in corpus.generate(1, 2)]
        for g in graphs:
            alone = ClassificationRecord(
                two_connected=is_two_connected(g),
                wheel_free=find_induced_wheel(g) is None,
                contains_3pc=find_induced_3pc(g) is not None,
                hamiltonian=find_hamiltonian_cycle(g).found,
                hc_obstruction=is_hc_obstruction(g).is_obstruction,
                recognized_3pc=recognize_3pc(g),
            )
            assert classify(g) == alone, g

    def test_work_counts(self, atlas8, monkeypatch):
        # a graph that is itself a 3PC needs no subset scan, and every
        # 2-connected graph gets exactly one Hamiltonian cycle search over all
        # its vertices, any other graph none
        scans = []
        real_scan = detectors.induced_3pcs
        monkeypatch.setattr(
            detectors, "induced_3pcs", lambda rows: scans.append(rows) or real_scan(rows)
        )
        searched = []
        real_search = hamiltonicity._cycle_search
        monkeypatch.setattr(
            hamiltonicity,
            "_cycle_search",
            lambda rows, within: searched.append(within.bit_count()) or real_search(rows, within),
        )
        for spec in all_specs_up_to(12):
            g = build_3pc(spec)
            searched.clear()
            classify(g)
            assert searched.count(g.n) == 1, spec
        assert scans == []
        others = [g for n in range(7) for g in atlas8[n]] + short_variants(9)
        for g in others:
            searched.clear()
            classify(g)
            assert searched.count(g.n) == is_two_connected(g), g
        # every graph that is not itself a 3PC gets the scan, once
        assert len(scans) == sum(recognize_3pc(g) is None for g in others)

    def test_no_spec_graph_is_built(self, atlas8, monkeypatch):
        # 3PCs are read off skeletons, so classify builds no spec graph, not
        # even for a table of degree signatures; verify builds each spec once,
        # for check (b), and no other
        from obstructa import families
        from obstructa.enumeration import verify_main_theorem

        built = []
        real_build = families.build_3pc
        for key, module in list(sys.modules.items()):
            if key.startswith("obstructa") and getattr(module, "build_3pc", None) is real_build:
                monkeypatch.setattr(
                    module, "build_3pc", lambda spec: built.append(spec) or real_build(spec)
                )
        families.family_tables.cache_clear()
        monkeypatch.syspath_prepend(str(PERFBENCH))
        corpus = importlib.import_module("corpus")
        for e in corpus.generate(1, 1):
            classify(decode_graph6(e.graph6))
        for n in range(8):
            for g in atlas8[n]:
                classify(g)
        assert built == []
        verify_main_theorem(7, jobs=1)
        assert built == all_specs_up_to(7) and len(built) == 12


class TestCharacterizationProperties:
    def test_wheel_free_3pc_free_implies_hamiltonian_small(self, atlas8):
        # 2-connected, wheel-free, 3PC-free implies Hamiltonian (n <= 7 here;
        # the acceptance suite pushes this to the full scale)
        from obstructa.graphs import is_two_connected
        from obstructa.hamiltonicity import find_hamiltonian_cycle

        for n in range(3, 8):
            for g in atlas8[n]:
                if not is_two_connected(g):
                    continue
                if find_induced_wheel(g) is not None:
                    continue
                if find_induced_3pc(g) is not None:
                    continue
                assert find_hamiltonian_cycle(g).found

    def test_wheel_free_obstructions_match_wheel_free_3pcs_small(self, atlas8):
        # wheel-free HC-obstructions coincide with wheel-free 3PCs
        from obstructa.graphs import is_two_connected
        from obstructa.hamiltonicity import is_hc_obstruction

        for n in range(3, 8):
            for g in atlas8[n]:
                if not is_two_connected(g):
                    continue
                wheel_free = find_induced_wheel(g) is None
                spec = recognize_3pc(g)
                if wheel_free:
                    assert (spec is not None) == is_hc_obstruction(g).is_obstruction
                elif spec is not None:
                    # non-wheel-free 3PCs are still obstructions
                    assert is_hc_obstruction(g).is_obstruction
