"""Property tests for the input parsers, canonical labeling, 3PC recognition,
the chord test and bad input at the CLI.

Example counts are bounded so the file adds a few seconds to the suite, and
no example database is written.
"""

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from helpers import (
    clique_cutset_oracle,
    cut_vertices_oracle,
    first_chord_oracle,
    graphs,
    is_chord_witness,
    line_graph_oracle,
    recognize_3pc_oracle,
)
from obstructa.canon import canonical_rows
from obstructa.cli import main
from obstructa.decompose import is_chordless
from obstructa.errors import GraphError, MalformedGraph6, NotConnected
from obstructa.families import (
    KIND_ORDER,
    SHORT_PRISM,
    SHORT_PYRAMID,
    THETA,
    ThreePcSpec,
    WheelSpec,
    all_specs_up_to,
    build_3pc,
    format_spec,
    parse_spec,
    recognize_3pc,
)
from obstructa.graphs import (
    GRAPH6_MAX_VERTICES,
    MAX_VERTICES,
    _cut_vertices,
    bits,
    decode_graph6,
    encode_graph6,
    find_clique_cutset,
    format_edge_list,
    graph_from_edges,
    is_connected_masked,
    is_two_connected,
    line_graph,
    parse_edge_list,
)

FUZZ = settings(max_examples=100, deadline=None, database=None)


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------


@FUZZ
@given(graphs(16), st.data())
def test_canonical_rows_invariant_under_relabeling(g, data):
    # any relabeling, as check makes when it labels an induced subgraph in
    # its own vertex order, gives the same canonical rows
    perm = data.draw(st.permutations(range(g.n)))
    h = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_rows(h.n, h.rows) == canonical_rows(g.n, g.rows)


# ---------------------------------------------------------------------------
# 3PC recognition
# ---------------------------------------------------------------------------


@FUZZ
@given(st.sampled_from(all_specs_up_to(14)), st.data())
def test_recognize_3pc_matches_oracle_near_3pcs(spec, data):
    # a relabeled 3PC, or with one edge toggled a near-miss: a leg too many
    # or too few, an extra chord, a broken triangle
    g = build_3pc(spec)
    perm = data.draw(st.permutations(range(g.n)))
    edges = {frozenset((perm[u], perm[v])) for u, v in g.edges()}
    if data.draw(st.booleans()):
        pair = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        edges ^= {frozenset(pair)}
    h = graph_from_edges(g.n, [tuple(e) for e in edges])
    assert recognize_3pc(h) == recognize_3pc_oracle(h)


# ---------------------------------------------------------------------------
# chordless graphs
# ---------------------------------------------------------------------------


@FUZZ
@given(graphs(24))
def test_is_chordless_matches_connectivity_oracle(g):
    # decompose runs the chord test on line-graph roots of up to 32
    # vertices, past the atlas's 9
    ok, witness = is_chordless(g)
    chord = first_chord_oracle(g)
    assert ok == (chord is None)
    if not ok:
        assert witness[0] == chord
        assert is_chord_witness(g, *witness)


# ---------------------------------------------------------------------------
# cut vertices
# ---------------------------------------------------------------------------


@FUZZ
@given(graphs(16))
def test_cut_vertices_match_networkx(g):
    # networkx counts K2 as biconnected; here 2-connected needs 3 vertices
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    cut = _cut_vertices(g.rows, g.vertex_mask)
    assert set(bits(cut)) == set(nx.articulation_points(h))
    assert cut == cut_vertices_oracle(g, g.vertex_mask)
    assert is_two_connected(g) == (g.n >= 3 and nx.is_biconnected(h))


# ---------------------------------------------------------------------------
# clique cutsets and line graphs
# ---------------------------------------------------------------------------


@FUZZ
@given(graphs(12))
def test_find_clique_cutset_matches_subset_oracle(g):
    if not is_connected_masked(g.rows, g.vertex_mask):
        with pytest.raises(NotConnected):
            find_clique_cutset(g)
        return
    assert find_clique_cutset(g) == clique_cutset_oracle(g)


@FUZZ
@given(graphs(11))
def test_line_graph_matches_definition(g):
    assert line_graph(g) == line_graph_oracle(g)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


@FUZZ
@given(graphs(GRAPH6_MAX_VERTICES))
def test_graph6_round_trip(g):
    text = encode_graph6(g)
    assert decode_graph6(text) == g
    assert all(63 <= ord(c) <= 126 for c in text)


@FUZZ
@given(st.text())
def test_decode_graph6_returns_or_rejects(text):
    try:
        g = decode_graph6(text)
    except MalformedGraph6:
        return
    assert g.n == ord(text.strip()[0]) - 63


# ---------------------------------------------------------------------------
# edge lists
# ---------------------------------------------------------------------------


@FUZZ
@given(graphs(MAX_VERTICES))
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


_token = st.one_of(st.integers(-3, MAX_VERTICES + 3).map(str), st.sampled_from(["", "x", "1.5", "0x3"]))


@FUZZ
@given(st.lists(st.lists(_token, min_size=0, max_size=3), min_size=1, max_size=8))
def test_parse_edge_list_accepts_exactly_the_valid_lists(lines):
    text = "\n".join(" ".join(tokens) for tokens in lines)
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]

    def valid() -> bool:
        if not rows or len(rows[0]) != 1 or not rows[0][0].lstrip("-").isdigit():
            return False
        n = int(rows[0][0])
        if not 0 <= n <= MAX_VERTICES:
            return False
        for tokens in rows[1:]:
            if len(tokens) != 2 or not all(t.lstrip("-").isdigit() for t in tokens):
                return False
            u, v = map(int, tokens)
            if u == v or not (0 <= u < n and 0 <= v < n):
                return False
        return True

    try:
        g = parse_edge_list(text)
    except GraphError:
        assert not valid()
        return
    assert valid()
    want = {frozenset(map(int, tokens)) for tokens in rows[1:]}
    assert g.n == int(rows[0][0])
    assert {frozenset(e) for e in g.edges()} == want


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------

_lengths = st.tuples(*[st.integers(1, 30)] * 3)


def _three_pc(kind: str, lengths, chords) -> ThreePcSpec:
    # a theta takes at most one chord
    return ThreePcSpec.of(kind, lengths, sorted(chords)[:1] if kind == THETA else chords)


_specs = st.one_of(
    st.builds(_three_pc, st.sampled_from(KIND_ORDER), _lengths, st.sets(st.integers(1, 3))),
    st.integers(3, 40).flatmap(
        lambda c: st.builds(WheelSpec, st.just(c), st.frozensets(st.integers(0, c - 1), min_size=3))
    ),
    st.tuples(st.sampled_from([SHORT_PRISM, SHORT_PYRAMID]), _lengths),
)


@FUZZ
@given(_specs)
def test_spec_round_trip(spec):
    assert parse_spec(format_spec(spec)) == spec


# ---------------------------------------------------------------------------
# bad input at the CLI: exit 2 or 4, one error line, never a traceback
# ---------------------------------------------------------------------------


def _assert_clean_failure(result) -> None:
    assert result.exit_code in (2, 4), (result.exit_code, result.output)
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert result.stdout == ""


# characters outside the graph6 byte range that neither open a spec (":")
# nor vanish when the input is stripped
_bad_char = st.characters(exclude_characters=":", exclude_categories=("Cs",)).filter(
    lambda c: not 63 <= ord(c) <= 126 and not c.isspace()
)


@FUZZ
@given(graphs(12), st.data())
def test_check_rejects_bad_graph6(g, data):
    text = encode_graph6(g)
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(_bad_char) + text[at:]
    else:
        # a payload one or more bytes too long, or one byte too short
        if len(text) == 1 or data.draw(st.booleans()):
            text += data.draw(st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1))
        else:
            text = text[:-1]
    _assert_clean_failure(CliRunner().invoke(main, ["check", "--", text]))


_FAMILIES = KIND_ORDER + ("wheel", SHORT_PRISM, SHORT_PYRAMID)

_bad_spec = st.one_of(
    # an unknown family
    st.tuples(
        st.text("abcdefghijklmnopqrstuvwxyz+", min_size=1).filter(
            lambda head: head.split("+")[0] not in _FAMILIES
        ),
        st.text(),
    ).map(":".join),
    # a 3PC with a path shorter than 2, or not three lengths
    st.tuples(
        st.sampled_from(KIND_ORDER),
        st.lists(st.integers(-5, 30), min_size=1, max_size=5).filter(
            lambda lengths: len(lengths) != 3 or min(lengths) < 2
        ),
    ).map(lambda t: f"{t[0]}:{','.join(map(str, t[1]))}"),
    # a wheel with a short rim, a spoke off the rim, or fewer than three spokes
    st.tuples(st.integers(-2, 30), st.lists(st.integers(-3, 40), min_size=1, max_size=5))
    .filter(lambda t: t[0] < 3 or len(set(t[1])) < 3 or not all(0 <= p < t[0] for p in t[1]))
    .map(lambda t: f"wheel:{t[0]}@{','.join(map(str, t[1]))}"),
)


@FUZZ
@given(_bad_spec)
def test_check_rejects_bad_spec(text):
    _assert_clean_failure(CliRunner().invoke(main, ["check", "--", text]))


@FUZZ
@given(graphs(8, min_n=1), st.sampled_from(["loop", "range", "arity", "word"]), st.data())
def test_check_rejects_bad_edge_list(g, fault, data):
    if fault == "loop":
        v = data.draw(st.integers(0, g.n - 1))
        bad = f"{v} {v}"
    elif fault == "range":
        bad = f"0 {data.draw(st.integers(g.n, g.n + 70))}"
    elif fault == "arity":
        bad = " ".join(["1"] * data.draw(st.sampled_from([1, 3, 4])))
    else:
        bad = f"0 {data.draw(st.sampled_from(['x', '1.5', '0x3']))}"
    lines = format_edge_list(g).splitlines()
    lines.insert(data.draw(st.integers(1, len(lines))), bad)
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("g.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _assert_clean_failure(runner.invoke(main, ["check", "--input", "g.txt"]))
