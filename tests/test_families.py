import itertools
import random
from collections import Counter

import pytest

import helpers
from obstructa.canon import are_isomorphic, canonical_form
from obstructa.detectors import find_induced_wheel
from obstructa.errors import (
    InvalidLengths,
    ShortVariant,
    SpecSyntaxError,
    TooFewSpokes,
    TooManyThetaChords,
    VertexOutOfRange,
)
from obstructa.families import (
    SHORT_PRISM,
    SHORT_PYRAMID,
    ThreePcSpec,
    WheelSpec,
    all_specs_up_to,
    build_3pc,
    build_from_spec,
    build_short_variant,
    build_wheel,
    format_spec,
    parse_spec,
    recognize_3pc,
    spec_of_rows,
    specs_with_vertex_count,
)
from obstructa.graphs import graph_from_edges, is_two_connected


def expected_degree_multiset(spec: ThreePcSpec) -> Counter:
    """Degree multiset derived from the construction, per kind.

    Internals contribute degree 2.  Base degrees: theta ends 3, pyramid
    triangle 3 and apex 3, prism triangle vertices 3.  Each chord adds one
    to both ends of its path (the pyramid apex collects one per chord).
    """
    k = len(spec.chords)
    internal = sum(spec.lengths) - 3
    deg = Counter({2: internal})
    if spec.kind == "theta":
        deg[3 + k] += 2
    elif spec.kind == "pyramid":
        deg[3 + k] += 1  # apex
        for i in range(1, 4):
            deg[3 + (1 if i in spec.chords else 0)] += 1
    else:
        for i in range(1, 4):
            d = 3 + (1 if i in spec.chords else 0)
            deg[d] += 2  # both triangle ends of path i
    return deg


class TestSpecCanonicalization:
    def test_lengths_sorted_and_chords_reindexed(self):
        s = ThreePcSpec.of("prism", (2, 3, 2), {1, 3})
        assert s.lengths == (2, 2, 3)
        assert s.chords == frozenset({1, 2})

    def test_equal_length_chords_pushed_left(self):
        s = ThreePcSpec.of("pyramid", (2, 2, 3), {2})
        assert s.chords == frozenset({1})
        s = ThreePcSpec.of("pyramid", (3, 3, 2), {1})
        assert s.lengths == (2, 3, 3) and s.chords == frozenset({2})

    def test_theta_chord_is_boolean(self):
        assert ThreePcSpec.of("theta", (2, 2, 2), {3}).chords == frozenset({1})
        with pytest.raises(TooManyThetaChords):
            ThreePcSpec.of("theta", (2, 2, 2), {1, 2})

    @pytest.mark.parametrize(
        "kind, lengths, chords",
        [("prism", (2, 2, 2), (4,)), ("pyramid", (2, 3, 4), (0,)), ("theta", (2, 2, 2), (7,))],
    )
    def test_chord_outside_the_paths_rejected(self, kind, lengths, chords):
        with pytest.raises(SpecSyntaxError):
            ThreePcSpec.of(kind, lengths, chords)

    def test_direct_constructor_requires_canonical(self):
        with pytest.raises(SpecSyntaxError):
            ThreePcSpec("prism", (3, 2, 2), frozenset())


class TestBuilders:
    def test_theta_222_is_k23(self):
        g = build_3pc(ThreePcSpec.of("theta", (2, 2, 2)))
        assert are_isomorphic(g, helpers.complete_bipartite(2, 3))

    def test_theta_plus_is_k23_plus_edge(self):
        g = build_3pc(ThreePcSpec.of("theta", (2, 2, 2), {1}))
        assert g.has_edge(0, 1) and g.edge_count == 7

    def test_prism_222_has_nine_vertices(self):
        g = build_3pc(ThreePcSpec.of("prism", (2, 2, 2)))
        assert g.n == 9 and g.edge_count == 12

    def test_vertex_and_edge_count_formulas(self):
        for spec in all_specs_up_to(13):
            g = build_3pc(spec)
            assert g.n == spec.vertex_count
            assert g.edge_count == spec.edge_count

    def test_short_variant_rejected(self):
        with pytest.raises(ShortVariant):
            build_3pc(ThreePcSpec.of("prism", (1, 2, 2)))

    def test_short_prism_111_is_triangular_prism(self):
        g = build_short_variant("shortprism", (1, 1, 1))
        assert g.n == 6 and g.edge_count == 9
        assert all(g.degree(v) == 3 for v in range(6))

    def test_short_pyramid_needs_exactly_one_unit(self):
        g = build_short_variant("shortpyramid", (1, 2, 2))
        assert g.has_edge(0, 3)  # apex adjacent to one triangle vertex
        with pytest.raises(InvalidLengths):
            build_short_variant("shortpyramid", (2, 2, 2))
        with pytest.raises(InvalidLengths):
            build_short_variant("shortpyramid", (1, 1, 2))

    def test_short_prism_needs_a_unit(self):
        with pytest.raises(InvalidLengths):
            build_short_variant("shortprism", (2, 2, 2))

    def test_wheel_full_is_k4(self):
        g = build_wheel(WheelSpec(3, frozenset({0, 1, 2})))
        assert are_isomorphic(g, helpers.complete(4))

    def test_wheel_needs_three_spokes(self):
        with pytest.raises(TooFewSpokes):
            WheelSpec(4, frozenset({0, 1}))

    def test_wheel_positions_in_range(self):
        with pytest.raises(VertexOutOfRange):
            WheelSpec(4, frozenset({0, 1, 5}))

    def test_every_3pc_is_two_connected_with_derived_degrees(self):
        for spec in all_specs_up_to(13):
            g = build_3pc(spec)
            assert is_two_connected(g)
            assert Counter(g.degree_sequence()) == expected_degree_multiset(spec)


class TestRecognition:
    def test_round_trip_all_specs_up_to_13(self):
        for spec in all_specs_up_to(13):
            assert recognize_3pc(build_3pc(spec)) == spec

    def test_uniqueness_no_two_specs_isomorphic(self):
        seen = {}
        for spec in all_specs_up_to(13):
            form = canonical_form(build_3pc(spec))
            assert form not in seen, (spec, seen[form])
            seen[form] = spec

    def test_non_members(self):
        assert recognize_3pc(build_short_variant("shortprism", (1, 1, 1))) is None
        assert recognize_3pc(helpers.cycle(6)) is None
        assert recognize_3pc(helpers.complete(4)) is None

    def test_recognition_labels_nothing(self, monkeypatch):
        # the skeleton reader labels no graph: not the input, no spec, no
        # candidate subset, and not the spec tables kept for the benchmark
        from obstructa import canon, families
        from obstructa.decompose import is_only_prism
        from obstructa.detectors import find_induced_3pc

        calls = []
        real_search = canon._canonical_search
        monkeypatch.setattr(
            canon, "_canonical_search", lambda n, rows: calls.append(n) or real_search(n, rows)
        )
        families.family_tables.__wrapped__(13)
        assert recognize_3pc(helpers.cycle(40)) is None
        assert find_induced_3pc(helpers.cycle(20)) is None
        for spec in all_specs_up_to(13):
            g = build_3pc(spec)
            assert recognize_3pc(g) == spec
            assert find_induced_3pc(g) == (spec, frozenset(range(g.n)))
            is_only_prism(g)  # the theta and pyramid scans, if g is wheel-free
        for c, spokes in [(3, {0, 1, 2}), (6, {0, 2, 4}), (8, {0, 1, 4, 6}), (11, {0, 3, 6})]:
            w = build_wheel(WheelSpec(c, frozenset(spokes)))
            assert recognize_3pc(w) is None
            find_induced_3pc(w)
        assert calls == []

    def test_spec_space_sizes(self):
        # theta and theta+ only at n=5 and n=6; pyramids join at n=7
        assert len(specs_with_vertex_count(5)) == 2
        assert len(specs_with_vertex_count(6)) == 2
        assert len(specs_with_vertex_count(7)) == 8
        assert len(specs_with_vertex_count(8)) == 12
        assert len(specs_with_vertex_count(9)) == 24

    def test_spec_count_is_the_3pc_class_count(self, atlas):
        # the census takes recognized_3pcs from the spec tables: on every
        # class of the atlas, recognition finds exactly one class per spec
        for n, classes in atlas.items():
            recognized = [s for s in map(recognize_3pc, classes) if s is not None]
            assert sorted(recognized, key=ThreePcSpec.sort_key) == list(
                specs_with_vertex_count(n)
            ), n

    def test_wheel_free_spec_counts(self):
        # the wheel-free 3PCs on n = 3..11 vertices, the obstruction counts
        # the theorem predicts
        counts = [
            sum(find_induced_wheel(build_3pc(s)) is None for s in specs_with_vertex_count(n))
            for n in range(3, 12)
        ]
        assert counts == [0, 0, 2, 2, 5, 7, 14, 19, 30]


class TestSkeletonReader:
    """The skeleton reader against the canonical-lookup oracle."""

    def test_agrees_with_oracle_on_atlas(self, atlas):
        for classes in atlas.values():
            for g in classes:
                assert recognize_3pc(g) == helpers.recognize_3pc_oracle(g), g

    def test_agrees_on_relabeled_specs(self):
        rng = random.Random(12)
        for n in range(5, 21):
            for spec in specs_with_vertex_count(n):
                g = helpers.relabel(build_3pc(spec), rng)
                assert recognize_3pc(g) == spec == helpers.recognize_3pc_oracle(g)

    def test_agrees_on_near_members(self):
        # short variants, wheels, cycles, K4 and complete bipartite graphs,
        # of which only K2,3 is a 3PC
        graphs = [
            build_short_variant(kind, (1, a, b))
            for kind, low in ((SHORT_PRISM, 1), (SHORT_PYRAMID, 2))
            for a in range(low, 6)
            for b in range(a, 6)
        ]
        graphs += [
            build_wheel(WheelSpec(c, frozenset(spokes)))
            for c in range(3, 10)
            for spokes in itertools.combinations(range(c), 3)
        ]
        graphs += [helpers.cycle(n) for n in range(3, 12)] + [helpers.complete(4)]
        graphs += [helpers.complete_bipartite(a, b) for a in range(2, 5) for b in range(a, 5)]
        for g in graphs:
            assert recognize_3pc(g) == helpers.recognize_3pc_oracle(g), g

    def test_reads_an_induced_subgraph(self):
        # the mask form reads the subgraph induced on the mask, whatever lies
        # outside it: a theta+ plus a pendant path and a universal vertex
        theta = build_3pc(ThreePcSpec.of("theta", (2, 3, 4), (1,)))
        n = theta.n
        edges = list(theta.edges()) + [(0, n), (n, n + 1)] + [(v, n + 2) for v in range(n + 2)]
        g = graph_from_edges(n + 3, edges)
        assert spec_of_rows(g.rows, theta.vertex_mask) == ThreePcSpec.of("theta", (2, 3, 4), (1,))
        assert spec_of_rows(g.rows, g.vertex_mask) is None


class TestSpecText:
    @pytest.mark.parametrize(
        "text",
        ["theta:2,2,2", "theta+1:2,2,2", "prism+12:2,2,3", "pyramid:2,3,4", "prism:2,2,2"],
    )
    def test_round_trip(self, text):
        spec = parse_spec(text)
        assert format_spec(spec) == text

    def test_non_canonical_input_normalizes(self):
        assert format_spec(parse_spec("prism+13:2,3,2")) == "prism+12:2,2,3"

    def test_wheel_text(self):
        spec = parse_spec("wheel:6@0,2,4")
        assert spec == WheelSpec(6, frozenset({0, 2, 4}))
        assert format_spec(spec) == "wheel:6@0,2,4"

    def test_short_variants(self):
        g = build_from_spec(parse_spec("shortprism:1,1,1"))
        assert g.n == 6
        g = build_from_spec(parse_spec("shortpyramid:1,2,2"))
        assert g.n == 6

    def test_theta_two_chords_rejected(self):
        with pytest.raises(TooManyThetaChords):
            parse_spec("theta+12:2,2,2")

    @pytest.mark.parametrize(
        "bad", ["theta", "theta:2,2", "blob:1,2,3", "wheel:6", "prism+4:2,2,2", "wheel:5@0,0,1,2"]
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SpecSyntaxError):
            parse_spec(bad)


class TestWheelContainmentOfFamilies:
    def test_wheels_contain_themselves(self):
        from obstructa.detectors import find_induced_wheel

        for c, spokes in [(3, {0, 1, 2}), (6, {0, 2, 4}), (5, {0, 1, 3}), (7, {1, 2, 3, 4})]:
            w = build_wheel(WheelSpec(c, frozenset(spokes)))
            assert find_induced_wheel(w) is not None

    def test_short_pyramid_is_a_wheel(self):
        from obstructa.detectors import find_induced_wheel

        assert find_induced_wheel(build_short_variant("shortpyramid", (1, 2, 2))) is not None

    def test_chorded_pyramids_contain_wheels_other_families_do_not(self):
        # the pivotal structural fact behind the wheel-free census comparison
        from obstructa.detectors import find_induced_wheel

        for spec in all_specs_up_to(10):
            g = build_3pc(spec)
            expected = spec.kind == "pyramid" and bool(spec.chords)
            assert (find_induced_wheel(g) is not None) == expected, spec
