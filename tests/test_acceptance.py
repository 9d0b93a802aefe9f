"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The exhaustive sweeps default to 9 vertices; set
OBSTRUCTA_TEST_MAX_N to lower that during development.

Criterion 3 note: the characterization is verified in its sharp form.
Every 3PC is an HC-obstruction (criterion 1) and every wheel-free
HC-obstruction is a 3PC; graph-by-graph equality holds between wheel-free
HC-obstructions and *wheel-free* 3PCs.  Equality against the full 3PC list
is impossible from 7 vertices up: pyramids with a chord are HC-obstructions
yet contain induced wheels (a short pyramid, which is a wheel under the
inclusive convention), and test_chorded_pyramid_counterexample pins that
fact.
"""

import random

import pytest

import helpers
from conftest import ATLAS_MAX_N
from obstructa.canon import canonical_form
from obstructa.decompose import (
    check_chordless_dichotomy,
    check_only_prism_dichotomy,
    is_chordless,
    reduce_adjacent_degree2,
    triangle_free,
    has_k4_minor,
)
from obstructa.detectors import find_induced_3pc, find_induced_wheel, induced_3pcs
from obstructa.enumeration import TWO_CONNECTED, WHEEL_FREE, _forms_for, verify_main_theorem
from obstructa.families import (
    all_specs_up_to,
    build_3pc,
    specs_with_vertex_count,
)
from obstructa.graphs import (
    decode_graph6,
    encode_graph6,
    graph_from_edges,
    is_connected_masked,
    is_two_connected,
    line_graph,
)
from obstructa.hamiltonicity import (
    find_hamiltonian_cycle,
    is_hamiltonian_cycle,
    is_hc_obstruction,
)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="session")
def connected(atlas):
    """n -> [(graph, wheel_free)] over all connected representatives, so the
    wheel test runs once per class for criterion 6 and the 2-connected facts.
    The direct tests here are the oracle for the facts generation records."""
    out = {}
    for n in range(1, ATLAS_MAX_N + 1):
        out[n] = [
            (g, find_induced_wheel(g) is None)
            for g in atlas[n]
            if is_connected_masked(g.rows, g.vertex_mask)
        ]
    return out


@pytest.fixture(scope="session")
def twoconn(connected):
    """n -> [(graph, wheel_free)] over all 2-connected representatives."""
    return {
        n: [(g, wheel_free) for g, wheel_free in connected[n] if is_two_connected(g)]
        for n in range(3, ATLAS_MAX_N + 1)
    }


@pytest.fixture(scope="session")
def wheelfree_facts(twoconn):
    """n -> [(graph, hamiltonian, contains_3pc)] over 2-connected wheel-free reps."""
    out = {}
    for n, rows in twoconn.items():
        out[n] = [
            (g, find_hamiltonian_cycle(g).found, find_induced_3pc(g) is not None)
            for g, wheel_free in rows
            if wheel_free
        ]
    return out


def test_criterion_1_all_3pcs_are_obstructions():
    specs = all_specs_up_to(12)
    assert len(specs) > 100  # the full spec space, all kinds and chord masks
    violations = []
    for spec in specs:
        verdict = is_hc_obstruction(build_3pc(spec))
        if not verdict.is_obstruction:
            violations.append((spec, verdict.failure_reason))
    assert violations == []
    report(1, f"{len(specs)} specs up to 12 vertices, all HC-obstructions, 0 violations")


def test_criterion_2_wheel_free_3pc_free_implies_hamiltonian(wheelfree_facts):
    checked = 0
    violations = []
    for n, facts in wheelfree_facts.items():
        for g, ham, has_3pc in facts:
            if not has_3pc:
                checked += 1
                if not ham:
                    violations.append(encode_graph6(g))
    assert violations == []
    report(
        2,
        f"n <= {ATLAS_MAX_N}: {checked} 2-connected wheel-free 3PC-free graphs, "
        "all Hamiltonian, 0 counterexamples",
    )


def test_criterion_3_wheel_free_obstructions_are_exactly_wheel_free_3pcs(wheelfree_facts):
    expected_counts = {5: 2, 6: 2}
    for n in range(3, ATLAS_MAX_N + 1):
        # pipeline 1: enumeration -> wheel-free HC-obstructions
        obstruction_forms = set()
        for g, ham, _ in wheelfree_facts[n]:
            if not ham and is_hc_obstruction(g).is_obstruction:
                obstruction_forms.add(canonical_form(g))
        # pipeline 2: spec space -> built graphs, split by wheel containment
        all_3pc_forms = set()
        wheel_free_3pc_forms = set()
        for spec in specs_with_vertex_count(n):
            g = build_3pc(spec)
            form = canonical_form(g)
            all_3pc_forms.add(form)
            if find_induced_wheel(g) is None:
                wheel_free_3pc_forms.add(form)
        # converse direction: every wheel-free HC-obstruction is a 3PC
        assert obstruction_forms <= all_3pc_forms, f"n={n}"
        # sharp equality within the wheel-free universe, graph by graph
        assert obstruction_forms == wheel_free_3pc_forms, f"n={n}"
        if n in expected_counts:
            assert len(obstruction_forms) == expected_counts[n], f"n={n}"
    report(
        3,
        f"n <= {ATLAS_MAX_N}: wheel-free HC-obstructions == wheel-free 3PCs "
        "graph-by-graph; counts at n=5,6 are 2,2 as pinned",
    )


def test_chorded_pyramid_counterexample_to_unrestricted_equality():
    """Pins why criterion 3 must restrict to wheel-free 3PCs from n=7 on."""
    from obstructa.families import ThreePcSpec

    g = build_3pc(ThreePcSpec.of("pyramid", (2, 2, 2), {1}))
    assert is_hc_obstruction(g).is_obstruction
    assert find_induced_wheel(g) is not None


def test_criterion_4_line_graph_of_subdivided_k4_is_hamiltonian():
    k = helpers.subdivide_every_edge(helpers.complete(4))
    assert k.n == 10 and k.edge_count == 12
    lg, _ = line_graph(k)
    assert lg.n == 12
    res = find_hamiltonian_cycle(lg)
    assert res.found
    assert is_hamiltonian_cycle(lg, res.order)
    report(4, "L(K4 subdivided once per edge) on 12 vertices has a valid Hamiltonian cycle")


def test_criterion_5_chordless_dichotomy(twoconn, atlas):
    # For n >= 4, a 2-connected chordless graph is triangle-free (two disjoint
    # paths from any outside vertex to a triangle close a cycle chorded by a
    # triangle edge), so triangle-freeness is a sound cheap filter; it is
    # cross-checked below at n <= 7 against the unfiltered test.
    for n in range(4, min(7, ATLAS_MAX_N) + 1):
        for g, _ in twoconn[n]:
            if not triangle_free(g):
                assert not is_chordless(g)[0]
    checked = 0
    for n in range(3, ATLAS_MAX_N + 1):
        for g, _ in twoconn[n]:
            if n >= 4 and not triangle_free(g):
                continue
            if not is_chordless(g)[0]:
                continue
            checked += 1
            res = check_chordless_dichotomy(g)
            assert res.holds, encode_graph6(g)
            if res.branch == "ProperTwoCutset":
                u, v, side_x, side_y = res.certificate.payload
                assert not g.has_edge(u, v)
                assert set(side_x) and set(side_y)
    report(5, f"n <= {ATLAS_MAX_N}: dichotomy holds on all {checked} 2-connected chordless graphs")


def test_criterion_6_only_prism_dichotomy(connected):
    checked = 0
    line_graph_branch = 0
    for n in range(1, ATLAS_MAX_N + 1):
        for g, wheel_free in connected[n]:
            if not wheel_free or any(
                spec.kind in ("theta", "pyramid") and not spec.chords
                for spec, _ in induced_3pcs(g.rows)
            ):
                continue
            checked += 1
            res = check_only_prism_dichotomy(g)
            assert res.holds, encode_graph6(g)
            if res.branch == "LineGraphRoot":
                line_graph_branch += 1
                root = res.certificate.root
                assert triangle_free(root)
                assert is_chordless(root)[0]
                assert max((root.degree(v) for v in range(root.n)), default=0) <= 3
                lg, _ = line_graph(root)
                from obstructa.canon import are_isomorphic

                assert are_isomorphic(lg, g)
    report(
        6,
        f"n <= {ATLAS_MAX_N}: dichotomy holds on all {checked} connected only-prism "
        f"graphs; {line_graph_branch} line-graph roots verified triangle-free, "
        "chordless, max degree <= 3",
    )


def test_criterion_7_line_graph_embedding_trials():
    rng = random.Random(20260808)
    trials = 0
    while trials < 200:
        n = rng.randint(2, 10)
        h = helpers.random_graph(rng, n, rng.uniform(0.2, 0.8))
        h_edges = h.edges()
        if len(h_edges) == 0:
            continue
        # a random subgraph: subset of vertices, then a subset of the
        # surviving edges
        kept_vertices = sorted(rng.sample(range(n), rng.randint(2, n)))
        kept = [e for e in h_edges if e[0] in kept_vertices and e[1] in kept_vertices]
        sub_edges = [e for e in kept if rng.random() < 0.8]
        lg_h, h_edge_order = line_graph(h)
        index = {e: i for i, e in enumerate(h_edge_order)}
        j = graph_from_edges(n, sub_edges)
        lg_j, j_edge_order = line_graph(j)
        embedding = [index[e] for e in j_edge_order]
        # explicit induced-embedding validation, adjacency by adjacency
        for a in range(lg_j.n):
            for b in range(a + 1, lg_j.n):
                assert lg_j.has_edge(a, b) == lg_h.has_edge(embedding[a], embedding[b])
        trials += 1
    report(7, "200 random (H, J) trials: L(J) embeds induced into L(H), 0 failures")


def test_criterion_8a_hamiltonicity_vs_permutation_brute_force(atlas):
    top = min(8, ATLAS_MAX_N)
    checked = 0
    for n in range(1, top + 1):
        for g in atlas[n]:
            assert find_hamiltonian_cycle(g).found == helpers.ham_cycle_brute(g)
            checked += 1
    report(8, f"cycle search == permutation brute force on all {checked} graphs, n <= {top}")


def test_criterion_8b_k4_minor_vs_model_oracle(atlas):
    top = min(7, ATLAS_MAX_N)
    checked = 0
    for n in range(1, top + 1):
        for g in atlas[n]:
            assert has_k4_minor(g) == helpers.k4_minor_oracle(g)
            checked += 1
    report(8, f"series-parallel reduction == minor-model oracle on all {checked} graphs, n <= {top}")


def test_criterion_8c_wheel_detector_vs_subset_oracle(atlas):
    top = min(8, ATLAS_MAX_N)
    checked = 0
    for n in range(1, top + 1):
        for g in atlas[n]:
            found = find_induced_wheel(g) is not None
            assert found == helpers.wheel_subset_oracle(g)
            checked += 1
    report(8, f"wheel detector == full-subset oracle on all {checked} graphs, n <= {top}")


def test_criterion_8d_3pc_detector_vs_subset_oracle(atlas):
    top = min(8, ATLAS_MAX_N)
    spec_graphs = {
        k: [build_3pc(s) for s in specs_with_vertex_count(k)] for k in range(5, top + 1)
    }
    checked = 0
    for n in range(1, top + 1):
        for g in atlas[n]:
            hit = find_induced_3pc(g)
            witness = None if hit is None else hit[1]
            assert witness == helpers.threepc_subset_oracle(g, spec_graphs), encode_graph6(g)
            checked += 1
    report(8, f"3PC detector witness == full-subset oracle's on all {checked} graphs, n <= {top}")


def test_criterion_9_degree2_reduction_preserves_verdicts(twoconn):
    def verdict_vector(g):
        return (
            is_two_connected(g),
            find_hamiltonian_cycle(g).found,
            find_induced_wheel(g) is None,
            find_induced_3pc(g) is None,
        )

    checked = 0
    reduced_count = 0
    for n in range(3, ATLAS_MAX_N + 1):
        for g, _ in twoconn[n]:
            reduced, log = reduce_adjacent_degree2(g)
            checked += 1
            if not log:
                continue
            reduced_count += 1
            assert verdict_vector(g) == verdict_vector(reduced), encode_graph6(g)
    report(
        9,
        f"n <= {ATLAS_MAX_N}: {checked} 2-connected graphs checked, "
        f"{reduced_count} actually reduced, 0 verdict discrepancies",
    )


def test_criterion_10_serialization_and_determinism(atlas):
    top = min(8, ATLAS_MAX_N)
    checked = 0
    for n in range(0, top + 1):
        for g in atlas[n]:
            assert decode_graph6(encode_graph6(g)) == g
            checked += 1
    first = verify_main_theorem(min(7, ATLAS_MAX_N)).to_json()
    second = verify_main_theorem(min(7, ATLAS_MAX_N)).to_json()
    assert first == second
    assert first.encode() == second.encode()
    report(
        10,
        f"graph6 round trip bit-exact on all {checked} graphs n <= {top}; "
        "census byte-identical across two runs",
    )


def test_generation_facts_match_fixtures(atlas, connected, twoconn):
    """The 2-connected and wheel-free facts generation decides from each
    class's parent equal the fixtures' direct tests, up to the acceptance
    scale (n = 9 by default; the n <= 8 classes are also checked in
    test_enumeration)."""
    for n in range(3, ATLAS_MAX_N + 1):
        fact = dict(zip((g.rows for g in atlas[n]), _forms_for(n)[1]))
        assert {g.rows for g, _ in twoconn[n]} == {
            rows for rows, x in fact.items() if x & TWO_CONNECTED
        }, n
        for g, wheel_free in connected[n]:
            assert bool(fact[g.rows] & WHEEL_FREE) == wheel_free, encode_graph6(g)
