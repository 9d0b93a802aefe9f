import collections
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from click.testing import CliRunner

import helpers
from obstructa import canon, detectors, enumeration, families, graphs, hamiltonicity
from obstructa.canon import (
    _canonical_search,
    automorphism_count,
    canonical_form,
    graph_from_canonical,
)
from obstructa.cli import EXIT_COUNTEREXAMPLE, main
from obstructa.detectors import classify, find_induced_3pc, find_induced_wheel, find_wheel_through
from obstructa.enumeration import (
    CensusReport,
    census,
    enumerate_graphs,
    verify_main_theorem,
)
from obstructa.errors import InvalidJobCount, TooLarge
from obstructa.families import all_specs_up_to, build_3pc, parse_spec
from obstructa.graphs import Graph, encode_graph6, graph_from_edges, is_two_connected
from obstructa.hamiltonicity import HamResult, ObstructionVerdict

KNOWN_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_TWO_CONNECTED = {1: 0, 2: 0, 3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7123}
GOLDEN = Path(__file__).parent / "golden"


def canonical_maximizer_orbit(n: int, rows: tuple[int, ...]) -> set[int]:
    """The automorphism orbit of the first vertex of the canonical order
    that maximizes (degree, sum of neighbour degrees, twice the number of
    edges among the neighbours)."""
    _, _, gens, order = _canonical_search(n, rows)
    key = [helpers.deletion_key(rows, v) for v in range(n)]
    orbit = {next(v for v in order if key[v] == max(key))}
    while True:
        grown = orbit | {p[v] for p in gens for v in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


class TestGeneration:
    def test_counts_match_brute_labeled_enumeration(self):
        for n in range(0, 7):
            assert sum(1 for _ in enumerate_graphs(n)) == helpers.labeled_class_count(n)

    @pytest.mark.skipif(
        not os.environ.get("OBSTRUCTA_EXHAUSTIVE"),
        reason="2^21 labeled graphs; set OBSTRUCTA_EXHAUSTIVE=1 to run",
    )
    def test_counts_match_brute_labeled_enumeration_n7(self):
        assert sum(1 for _ in enumerate_graphs(7)) == helpers.labeled_class_count(7)

    def test_orbit_sum_identity(self, atlas8):
        # independent completeness oracle: sum over classes of n!/|Aut|
        # equals the number of labeled graphs
        for n in range(1, max(atlas8) + 1):
            total = sum(math.factorial(n) // automorphism_count(g) for g in atlas8[n])
            assert total == 2 ** (n * (n - 1) // 2), n

    def test_known_counts(self, atlas8):
        for n, want in KNOWN_CLASS_COUNTS.items():
            if n <= max(atlas8):
                assert len(atlas8[n]) == want

    def test_two_connected_filter(self):
        got = [g for g in enumerate_graphs(4) if is_two_connected(g)]
        assert len(got) == 3

    def test_one_per_class_and_sorted(self, atlas8):
        for n in range(1, 7):
            forms = [canonical_form(g) for g in atlas8[n]]
            assert len(set(forms)) == len(forms)
            assert forms == sorted(forms)

    def test_single_vertex(self):
        assert sum(1 for _ in enumerate_graphs(1)) == 1

    def test_too_large(self):
        with pytest.raises(TooLarge):
            list(enumerate_graphs(10))

    def test_labelings_per_n(self, monkeypatch):
        # canonical deletion labels a child only when a rival ties its new
        # vertex on (degree, sum of neighbour degrees, twice the number of
        # edges among the neighbours) and neither twins nor the root
        # equitable partition decide the tie, and a parent only when some
        # cell of its root partition is not one twin class: verify at
        # n <= 8 makes 1,750 searches, 429 of them for the automorphism
        # generators of a parent, where searching each of the 1,253
        # parents made 2,574, the invariant without its third coordinate
        # 2,616, labeling every tied child 6,146 and labeling every child
        # 15,908.  The sorted view labels once each class accepted without a
        # search, so per n enumerate_graphs labels each class once plus each
        # tied child the search rejects: 13,600 at n <= 8 (13,625 without
        # the third coordinate), no more than the 14,655 of labeling every
        # tie, which labeled as many children as the seen-set did, one per
        # automorphism orbit of masks where the new vertex maximizes
        # (degree, sum of neighbour degrees).  A searched tie or parent starts
        # from the root partition refined before it, so verify refines
        # 10,144 partitions, against 10,849 when every parent was searched,
        # 12,374 without the third coordinate and 13,737 when each search
        # refined its own root
        sizes = []
        refined = []
        search = enumeration._canonical_search
        refine = canon._refine

        def counting(n, rows, *root):
            sizes.append(n)
            return search(n, rows, *root)

        def counting_refine(*args):
            refined.append(args[0])
            return refine(*args)

        monkeypatch.setattr(enumeration, "_canonical_search", counting)
        monkeypatch.setattr(enumeration, "canonical_rows", lambda n, rows: counting(n, rows)[0])
        monkeypatch.setattr(enumeration, "_refine", counting_refine)
        monkeypatch.setattr(canon, "_refine", counting_refine)
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        assert verify_main_theorem(8, jobs=1).counterexamples == ()
        assert len(refined) == 10144
        # the searches on n vertices: the parents of n + 1 vertices whose
        # root partition does not settle their group, and the tied children
        # on n vertices that go to the search
        per_size = collections.Counter(sizes)
        assert [per_size[n] for n in range(9)] == [0, 0, 0, 0, 6, 16, 97, 501, 1130]
        assert len(sizes) == 1750
        # less the tied children searched at n = 4..8, as pinned in
        # test_tie_decision_matches_the_search
        assert len(sizes) - sum([3, 6, 37, 145, 1130]) == 429
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        per_n = []
        for n in range(1, 9):
            sizes.clear()
            assert sum(1 for _ in enumerate_graphs(n, jobs=1)) == KNOWN_CLASS_COUNTS[n]
            per_n.append(sizes.count(n))
        assert per_n == [1, 2, 4, 11, 34, 156, 1044, 12348]
        assert all(a <= b for a, b in zip(per_n, [1, 2, 4, 11, 34, 159, 1096, 13348]))

    def test_neighbour_degree_sum_rule_matches_child_reference(self, atlas8, monkeypatch):
        # the rule on per-parent sums and triangle counts and the bitmask
        # orbits pass the same masks in the same order as the key read off
        # each child's rows and vertex-tuple orbits, on every parent with
        # n <= 7.  A stand-in tie decision keeps each tied child as built,
        # so every mask that passes is accepted, with or without a tie, as
        # the last row of its child
        monkeypatch.setattr(enumeration, "_decide_tie", lambda n, child, rivals: (child, 0))
        for n in range(min(7, max(atlas8)) + 1):
            for g in atlas8[n]:
                accepted, _ = enumeration._child_forms([(g.rows, 0)])
                passed = [graph_from_canonical(r).rows[-1] for r in accepted]
                gens = _canonical_search(n, g.rows)[2]
                assert passed == helpers.labeled_masks_reference(n, g.rows, gens), g

    def test_canonical_deletion_accepts_each_class_once(self, monkeypatch):
        # with no seen-set, the children accepted at each n <= 8 are pairwise
        # non-isomorphic and one per class (A000088); a child accepted after
        # a search keeps its canonical rows, and in one accepted without a
        # search the new vertex is in the orbit of the first maximizer of
        # (degree, sum of neighbour degrees, twice the number of edges among
        # the neighbours) in the child's canonical order;
        # the two halves of a strided jobs=2 split of the n = 7 parents
        # accept disjoint sets of classes
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        for n in range(1, 9):
            level, facts = enumeration._level(n)
            forms = [canonical_form(graph_from_canonical(r)) for r in level]
            assert len(set(forms)) == len(level) == KNOWN_CLASS_COUNTS[n], n
            for packed, form, x in zip(level, forms, facts):
                if x & enumeration.CANONICAL:
                    assert packed == form
                    continue
                rows = graph_from_canonical(packed).rows
                assert n - 1 in canonical_maximizer_orbit(n, rows), rows
        parents = [(graph_from_canonical(r).rows, x) for r, x in zip(*enumeration._level(7))]
        halves = [enumeration._child_forms(parents[i::2])[0] for i in range(2)]
        forms = [{canonical_form(graph_from_canonical(r)) for r in half} for half in halves]
        assert not forms[0] & forms[1]
        assert len(forms[0]) + len(forms[1]) == KNOWN_CLASS_COUNTS[8]

    def test_tie_decision_matches_the_search(self, monkeypatch):
        # on every tied child at n <= 8, the twin and root-cell steps give
        # the verdict of the full search: accept exactly when the new vertex
        # is in the orbit of the first maximizer of the canonical order, on
        # the three-coordinate key read off the child's own rows.  Per n,
        # the ties end in a twin accept, a root-cell accept or reject, or a
        # search
        calls = collections.Counter()
        ties = []
        real = {name: getattr(enumeration, name) for name in ("_refine", "_canonical_search")}
        decide = enumeration._decide_tie

        def counted(name):
            def wrapper(*args):
                calls[name] += 1
                return real[name](*args)

            return wrapper

        def recording(n, child, rivals):
            calls.clear()
            kept = decide(n, child, rivals)
            if calls["_canonical_search"]:
                branch = "search"
            elif not calls["_refine"]:
                branch = "twin"
            else:
                branch = "cell accept" if kept else "cell reject"
            ties.append((n, tuple(child), kept is not None, branch))
            return kept

        for name in real:
            monkeypatch.setattr(enumeration, name, counted(name))
        monkeypatch.setattr(enumeration, "_decide_tie", recording)
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        enumeration._level(8)
        for n, rows, accepted, _ in ties:
            assert accepted == (n - 1 in canonical_maximizer_orbit(n, rows)), rows
        branches = collections.Counter((n, branch) for n, _, _, branch in ties)
        got = {
            n: [branches[n, b] for b in ("twin", "cell accept", "cell reject", "search")]
            for n in range(2, 9)
        }
        assert got == {
            2: [2, 0, 0, 0],
            3: [3, 0, 0, 0],
            4: [5, 0, 0, 3],
            5: [13, 0, 0, 6],
            6: [42, 1, 1, 37],
            7: [207, 12, 20, 145],
            8: [1493, 369, 426, 1130],
        }
        # without the third coordinate: 4,352 ties at n = 8, of which 1,386
        # twin, 823 cell accept, 977 cell reject and 1,166 search
        assert sum(got[8]) == 3418

    def test_root_cell_twin_test_reads_only_maximizers(self, monkeypatch):
        # a child on 12 vertices, one of degree 2 and the rest of degree 4,
        # whose new vertex 11 ties the rivals 7 and 10 on (degree, sum of
        # neighbour degrees, twice the number of edges among the neighbours)
        # = (4, 16, 4), neither of them its twin.  The first root cell that
        # holds a maximizer is {2, 8, 9, 11}, where 2 and 8 score 2 and 9
        # scores 0 on the third coordinate, so 11 is the only maximizer in
        # it: the root-cell step accepts, with no search, as the search does.
        # No tied child at n <= 8 has a non-maximizer in that cell
        edges = [(0, 2), (0, 8), (0, 9), (0, 11), (1, 4), (1, 8), (1, 9), (1, 10)]
        edges += [(2, 4), (2, 5), (2, 10), (3, 6), (3, 7), (3, 8), (3, 11), (4, 7)]
        edges += [(4, 11), (5, 6), (5, 9), (5, 10), (7, 9), (7, 11), (8, 10)]
        rows = graph_from_edges(12, edges).rows
        key = [helpers.deletion_key(rows, v) for v in range(12)]
        assert [v for v in range(12) if key[v] == max(key)] == [7, 10, 11]
        assert [key[v][2] for v in (2, 8, 9)] == [2, 2, 0]
        full = (1 << 12) - 1
        root = canon._refine(12, rows, [full], [full])
        cells = [list(graphs.bits(c)) for c in root]
        assert cells == [[6], [2, 8, 9, 11], [7, 10], [1, 4], [0], [3, 5]]
        assert 11 in canonical_maximizer_orbit(12, rows)
        searched = []
        search = enumeration._canonical_search
        monkeypatch.setattr(
            enumeration, "_canonical_search", lambda *args: searched.append(args) or search(*args)
        )
        child = list(rows)
        assert enumeration._decide_tie(12, child, 1 << 7 | 1 << 10) == (child, 0)
        assert searched == []

    def test_facts_match_direct_tests(self, atlas8):
        # the facts generation decides from each parent equal the direct
        # tests on every class with n <= 8
        for n, classes in atlas8.items():
            facts = enumeration._forms_for(n)[1]
            assert [is_two_connected(g) for g in classes] == [
                bool(x & enumeration.TWO_CONNECTED) for x in facts
            ], n
            assert [find_induced_wheel(g) is None for g in classes] == [
                bool(x & enumeration.WHEEL_FREE) for x in facts
            ], n

    def test_fact_rules_on_every_mask(self, atlas8):
        # the rules hold for every extension of every parent with n <= 6, not
        # only the ones generation labels; generation labels no one-vertex
        # mask on a connected parent of two or more vertices (the new vertex
        # has the maximum degree), so only these cases test |M| >= 2
        for n in range(min(7, max(atlas8) + 1)):
            for g, x in zip(atlas8[n], enumeration._forms_for(n)[1]):
                two_connected, hub_free = enumeration._extension_facts(g.rows, x)
                for mask in range(1 << n):
                    child = [r | (mask >> i & 1) << n for i, r in enumerate(g.rows)] + [mask]
                    assert enumeration._grow(g.rows, mask) == child
                    h = Graph(n + 1, tuple(child))
                    assert two_connected(mask) == is_two_connected(h), (g, mask)
                    wheel_free = hub_free(mask) and find_wheel_through(child, n, (1 << n) - 1) is None
                    assert wheel_free == (find_induced_wheel(h) is None), (g, mask)

    def test_parent_generators_generate_the_automorphism_group(self, atlas8, monkeypatch):
        # on every class with n <= 7 the generators, searched or read off
        # the root partition, generate a group of order automorphism_count
        # that holds every generator of the full search.  The root
        # partition settles 688 of the 1,044 classes on 7 vertices and
        # 9,276 of the 12,346 on 8
        searched = []
        search = enumeration._canonical_search
        monkeypatch.setattr(
            enumeration, "_canonical_search", lambda *args: searched.append(args[0]) or search(*args)
        )
        for n in range(min(8, max(atlas8)) + 1):
            searched.clear()
            for g in atlas8[n]:
                gens = enumeration._parent_generators(n, g.rows)
                if n > 7:
                    continue
                group = {tuple(range(n))}
                stack = list(group)
                while stack:
                    p = stack.pop()
                    for q in gens:
                        r = tuple(q[p[v]] for v in range(n))
                        if r not in group:
                            group.add(r)
                            stack.append(r)
                assert len(group) == automorphism_count(g), g
                assert set(search(n, g.rows)[2]) <= group, g
            if n in (7, 8):
                assert len(atlas8[n]) - len(searched) == {7: 688, 8: 9276}[n]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_last_level_report_equals_cached_level_report(self, monkeypatch, jobs):
        # verify walks an uncached level max_n as a last level, which counts
        # its classes and keeps only the wheel-free 2-connected ones; at
        # every n <= 8 its report is byte-identical with the one read from
        # the cached full level, and it keeps the same classes
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})

        def kept_classes(n):
            kept = enumeration._census_level(n, jobs, True)[2]
            return sorted(canonical_form(graph_from_canonical(r)) for r in kept)

        for n in range(1, 9):
            cold = verify_main_theorem(n, jobs=jobs).to_json()
            cold_kept = kept_classes(n)
            assert n not in enumeration._atlas
            enumeration._level(n, jobs)
            assert verify_main_theorem(n, jobs=jobs).to_json().encode() == cold.encode(), n
            assert kept_classes(n) == cold_kept, n

    def test_last_level_is_not_cached(self, monkeypatch):
        # after a cold verify at 7 no level 7 is cached, and the levels
        # generated after it still give the A000088 counts and the golden
        # rows
        golden = json.loads((GOLDEN / "verify-9.json").read_text())["rows"]
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        assert [r.to_dict() for r in verify_main_theorem(7, jobs=1).rows] == golden[:7]
        assert sorted(enumeration._atlas) == list(range(7))
        assert sum(1 for _ in enumerate_graphs(7, jobs=1)) == KNOWN_CLASS_COUNTS[7]
        rows = verify_main_theorem(8, jobs=1).rows
        assert [r.all for r in rows] == [KNOWN_CLASS_COUNTS[n] for n in range(1, 9)]
        assert [r.to_dict() for r in rows] == golden[:8]
        assert sorted(enumeration._atlas) == list(range(8))

    def test_last_level_wheel_tests(self, monkeypatch):
        # the last level runs the rim test only on a 2-connected child of a
        # wheel-free parent that passes the hub test: 826 children at n = 8,
        # where the full level tests 2,891 hub-free children of wheel-free
        # parents, 2-connected or not
        calls = collections.Counter()
        real = enumeration.find_wheel_through

        def counting(rows, anchor, cand):
            calls[len(rows)] += 1
            return real(rows, anchor, cand)

        monkeypatch.setattr(enumeration, "find_wheel_through", counting)
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        verify_main_theorem(8, jobs=1)
        assert calls[8] == 826
        calls.clear()
        enumeration._level(8)
        assert calls[8] == 2891

    def test_matches_networkx_graph_atlas(self):
        # independent completeness oracle: the networkx atlas of all 1,253
        # graphs on at most 7 vertices
        by_n = {}
        for h in nx.graph_atlas_g():
            by_n.setdefault(h.number_of_nodes(), []).append(h)
        assert sum(len(hs) for hs in by_n.values()) == 1253
        for n in range(0, 8):
            ours = list(enumerate_graphs(n))
            assert len(by_n[n]) == len(ours), n
            # degree sequences share no code with canonical labeling
            theirs_degrees = sorted(tuple(sorted(d for _, d in h.degree())) for h in by_n[n])
            ours_degrees = sorted(tuple(sorted(r.bit_count() for r in g.rows)) for g in ours)
            assert theirs_degrees == ours_degrees, n
            forms = {canonical_form(g) for g in ours}
            for h in by_n[n]:
                assert canonical_form(graph_from_edges(n, h.edges())) in forms, n

    def test_caps_checked_at_call_time(self, monkeypatch):
        # no next(): the checks run when the iterator is built
        with pytest.raises(TooLarge):
            enumerate_graphs(10)
        with pytest.raises(TooLarge):
            enumerate_graphs(-1)
        monkeypatch.setenv("OBSTRUCTA_JOBS", "abc")
        with pytest.raises(InvalidJobCount):
            enumerate_graphs(3)


class TestCensus:
    def test_census_small_counts(self):
        rep = census(5)
        by_n = {r.n: r for r in rep.rows}
        assert [by_n[n].all for n in range(1, 6)] == [1, 2, 4, 11, 34]
        assert [by_n[n].two_connected for n in range(1, 6)] == [0, 0, 1, 3, 10]
        assert by_n[5].hc_obstructions_wheel_free == 2
        assert by_n[5].recognized_3pcs == 2
        assert rep.counterexamples == ()

    def test_obstruction_counts_n6(self):
        rep = verify_main_theorem(6)
        by_n = {r.n: r for r in rep.rows}
        assert by_n[6].hc_obstructions_wheel_free == 2
        assert rep.counterexamples == ()

    def test_hc_obstructions_all_zero_up_to_4(self):
        rep = census(4)
        assert all(r.hc_obstructions_wheel_free == 0 for r in rep.rows)
        assert all(r.recognized_3pcs == 0 for r in rep.rows)

    def test_wheel_free_invariant_columns(self):
        rep = verify_main_theorem(7)
        for r in rep.rows:
            assert r.hc_obstructions_wheel_free == r.wheel_free_3pcs
            assert r.three_pc_free_among_those == r.hamiltonian_among_those

    def test_rows_count_the_classify_records(self, atlas8):
        # the survey's gates never change a fact: each row is a count of the
        # records check prints, over every class of that size
        rows = census(7).rows
        for r in rows:
            recs = [classify(g) for g in atlas8[r.n]]
            kept = [x for x in recs if x.two_connected and x.wheel_free]
            assert r == enumeration.CensusRow(
                n=r.n,
                all=len(recs),
                two_connected=sum(x.two_connected for x in recs),
                wheel_free_2conn=len(kept),
                three_pc_free_among_those=sum(not x.contains_3pc for x in kept),
                hamiltonian_among_those=sum(x.hamiltonian and not x.contains_3pc for x in kept),
                hc_obstructions_wheel_free=sum(x.hc_obstruction for x in kept),
                recognized_3pcs=sum(x.recognized_3pc is not None for x in recs),
                wheel_free_3pcs=sum(x.recognized_3pc is not None for x in kept),
            )

    def test_survey_reads_facts(self, atlas8, monkeypatch):
        # the survey tests no class for 2-connectivity or wheels and
        # recognizes none, generation included: check (a) scans each
        # wheel-free 2-connected class for an induced 3PC and searches only
        # the 3PC-free ones for a Hamiltonian cycle; check (b) tests only the
        # spec graphs for wheels and only the wheel-free ones for obstruction
        classes = [
            g
            for n in range(1, 8)
            for g in atlas8[n]
            if is_two_connected(g) and find_induced_wheel(g) is None
        ]
        free = [g.rows for g in classes if find_induced_3pc(g) is None]
        spec_graphs = [build_3pc(s) for s in all_specs_up_to(7)]
        wheel_free_specs = [g.rows for g in spec_graphs if find_induced_wheel(g) is None]
        calls = collections.defaultdict(list)

        def recording(name, fn):
            def wrapper(*args):
                if isinstance(args[0], Graph):
                    calls[name].append(args[0].rows)
                return fn(*args)

            return wrapper

        originals = {
            "is_two_connected": graphs.is_two_connected,
            "recognize_3pc": families.recognize_3pc,
            "find_induced_wheel": detectors.find_induced_wheel,
            "find_induced_3pc": detectors.find_induced_3pc,
            "find_hamiltonian_cycle": hamiltonicity.find_hamiltonian_cycle,
            "is_hc_obstruction": hamiltonicity.is_hc_obstruction,
        }
        for module in [m for key, m in sys.modules.items() if key.startswith("obstructa")]:
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, recording(name, fn))
        monkeypatch.setattr(enumeration, "_atlas", {0: enumeration._atlas[0]})
        verify_main_theorem(7, jobs=1)

        def classes_of(rows_list):
            # verify reads the graphs generation accepted, as it labeled them
            return sorted(canonical_form(Graph(len(rows), rows)) for rows in rows_list)

        assert calls["is_two_connected"] == calls["recognize_3pc"] == []
        assert classes_of(calls["find_induced_3pc"]) == classes_of(g.rows for g in classes)
        assert len(classes) == 91
        assert classes_of(calls["find_hamiltonian_cycle"]) == classes_of(free)
        assert len(free) == 38
        assert calls["find_induced_wheel"] == [g.rows for g in spec_graphs]
        assert len(spec_graphs) == 12
        assert calls["is_hc_obstruction"] == wheel_free_specs and len(wheel_free_specs) == 9

    def test_counterexamples_reported(self, monkeypatch):
        # C5 loses its Hamiltonian cycle in check (a) and K_{2,3}
        # (theta:2,2,2) its obstruction verdict in check (b); each must come
        # back as a counterexample, and verify must exit 1
        c5 = canonical_form(helpers.cycle(5))
        k23 = canonical_form(helpers.complete_bipartite(2, 3))
        assert canonical_form(build_3pc(parse_spec("theta:2,2,2"))) == k23
        real_search = enumeration.find_hamiltonian_cycle
        real_verdict = enumeration.is_hc_obstruction
        monkeypatch.setattr(
            enumeration,
            "find_hamiltonian_cycle",
            lambda g: HamResult(False) if canonical_form(g) == c5 else real_search(g),
        )
        monkeypatch.setattr(
            enumeration,
            "is_hc_obstruction",
            lambda g: ObstructionVerdict(False, "NonMinimal")
            if canonical_form(g) == k23
            else real_verdict(g),
        )
        expected = tuple(sorted(encode_graph6(graph_from_canonical(f)) for f in (k23, c5)))
        rep = verify_main_theorem(6, jobs=1)
        assert rep.counterexamples == expected
        row = rep.rows[4]
        assert row.hamiltonian_among_those == row.three_pc_free_among_those - 1
        assert row.hc_obstructions_wheel_free == row.wheel_free_3pcs - 1
        res = CliRunner().invoke(main, ["verify", "--max-n", "5", "--jobs", "1"])
        assert res.exit_code == EXIT_COUNTEREXAMPLE
        assert json.loads(res.output)["counterexamples"] == list(expected)

    def test_too_large(self):
        # full generation is capped at 9: n = 10 has 12,005,168 classes
        with pytest.raises(TooLarge):
            census(10)
        with pytest.raises(TooLarge):
            verify_main_theorem(10)


class TestReportFormats:
    def test_json_schema(self):
        rep = verify_main_theorem(5)
        payload = json.loads(rep.to_json())
        assert payload["max_n"] == 5
        assert isinstance(payload["rows"], list) and len(payload["rows"]) == 5
        assert payload["counterexamples"] == []
        row = payload["rows"][4]
        for key in (
            "n",
            "all",
            "two_connected",
            "wheel_free_2conn",
            "three_pc_free_among_those",
            "hamiltonian_among_those",
            "hc_obstructions_wheel_free",
            "recognized_3pcs",
            "wheel_free_3pcs",
        ):
            assert key in row

    def test_csv_mirror(self):
        rep = census(4)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0].startswith("n,all,two_connected")
        assert len(lines) == 5
        assert lines[1] == "1,1,0,0,0,0,0,0,0"

    def test_text_format(self):
        text = census(3).to_text()
        assert "counterexamples: none" in text

    def test_determinism_byte_identical(self):
        a = verify_main_theorem(6).to_json()
        b = verify_main_theorem(6).to_json()
        assert a == b

    def test_parallel_agrees_with_serial(self):
        serial = census(6, jobs=1).to_json()
        parallel = census(6, jobs=2).to_json()
        assert serial == parallel

    def test_parallel_generation_agrees_with_serial(self, monkeypatch):
        # the module atlas caches generated levels, so drop n > 5 to make
        # both runs generate n = 6 in this process from the same parents, and
        # the jobs=2 run walk n = 7 as the last level in the worker pool and
        # then generate it there in full: its chunks hold the serial level's
        # graphs and facts in another order, the pool labels the sorted view
        # the serial one labels in process, and the reports agree
        def drop_above_5():
            kept = {n: f for n, f in enumeration._atlas.items() if n <= 5}
            monkeypatch.setattr(enumeration, "_atlas", kept)

        drop_above_5()
        serial = verify_main_theorem(7, jobs=1).to_json()
        level7 = enumeration._level(7)
        view7 = enumeration._forms_for(7)
        drop_above_5()
        parallel = verify_main_theorem(7, jobs=2).to_json()
        assert sorted(zip(*enumeration._level(7, jobs=2))) == sorted(zip(*level7))
        assert enumeration._forms_for(7, jobs=2) == view7
        assert parallel.encode() == serial.encode()

    def test_workers_agree_under_spawn(self):
        # only module-level functions and picklable arguments cross the pool,
        # so workers started fresh by spawn, on the two strided halves, give
        # the results of one process, in another order: generation and the
        # labeling of the sorted view rely on none of fork's copied state
        import multiprocessing as mp

        forms, facts = enumeration._forms_for(6)
        parents = [(graph_from_canonical(f).rows, x) for f, x in zip(forms, facts)]
        children = list(zip(*enumeration._child_forms(parents)))
        unlabeled = [(r, x) for r, x in children if not x & enumeration.CANONICAL]
        with mp.get_context("spawn").Pool(2) as pool:
            halves = pool.map(enumeration._child_forms, [parents[0::2], parents[1::2]])
            labeled = pool.map(enumeration._label, [unlabeled[0::2], unlabeled[1::2]])
        assert sorted(p for rows, x in halves for p in zip(rows, x)) == sorted(children)
        assert sorted(labeled[0] + labeled[1]) == sorted(enumeration._label(unlabeled))

    def test_verify_agrees_under_spawn_start_method(self):
        # with spawn as the process-wide start method, verify at n = 7 pools
        # the n = 7 generation step (156 parents) and gives the serial report
        # byte for byte
        src = os.path.dirname(os.path.dirname(enumeration.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = (
            "import multiprocessing, sys\n"
            "from obstructa.enumeration import verify_main_theorem\n"
            "multiprocessing.set_start_method('spawn')\n"
            "sys.stdout.write(verify_main_theorem(7, jobs=2).to_json())\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
            check=True,
        )
        assert run.stdout == verify_main_theorem(7, jobs=1).to_json().encode()


class TestJobs:
    def test_explicit_and_env(self, monkeypatch):
        monkeypatch.delenv("OBSTRUCTA_JOBS", raising=False)
        assert enumeration.resolve_jobs() == 1
        assert enumeration.resolve_jobs(3) == 3
        monkeypatch.setenv("OBSTRUCTA_JOBS", "2")
        assert enumeration.resolve_jobs() == 2
        assert enumeration.resolve_jobs(1) == 1

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
    def test_bad_env_raises(self, monkeypatch, env):
        monkeypatch.setenv("OBSTRUCTA_JOBS", env)
        with pytest.raises(InvalidJobCount):
            enumeration.resolve_jobs()
