"""Golden outputs, committed byte for byte: the ``verify --max-n 9`` JSON and
CSV reports, the sorted canonical forms of every class with n <= 9, and the
``check`` record of every canonical 3PC spec with at most 11 vertices.

Every change to generation, canonical labeling or the detectors must leave
these bytes unchanged.  Regenerate only for an intended output change:

    python -m obstructa.cli verify --max-n 9 > tests/golden/verify-9.json
    python -m obstructa.cli verify --max-n 9 --format csv > tests/golden/verify-9.csv

``forms-9.sha256`` has one line ``n classes sha256`` per n = 0..9, the hash
taken over the concatenated sorted forms ``enumeration._forms_for(n)`` returns:

    python -c "import hashlib; from obstructa.enumeration import _forms_for as f; [print(n, len(f(n)[0]), hashlib.sha256(b''.join(f(n)[0])).hexdigest()) for n in range(10)]" > tests/golden/forms-9.sha256

``check-specs.jsonl`` is ``check`` on the graph6 lines of
``families.all_specs_up_to(11)``, one record per spec in that order:

    python -c "from obstructa.families import all_specs_up_to as a, build_3pc as b; from obstructa.graphs import encode_graph6 as e; [print(e(b(s))) for s in a(11)]" | python -m obstructa.cli check > tests/golden/check-specs.jsonl

``decompose.jsonl`` is the ``decompose`` trace of 105 inputs, one per line:
the classes with n <= 5 in ``enumerate_graphs`` order, the graph6 of the
specs of ``families.all_specs_up_to(9)``, then ``DECOMPOSE_SPECS``.  Between
them they reach every error record of the trace and 31 line-graph roots:

    python -c "from obstructa.enumeration import enumerate_graphs as E; from obstructa.families import all_specs_up_to as a, build_3pc as b; from obstructa.graphs import encode_graph6 as e; [print(e(g)) for n in range(6) for g in E(n)]; [print(e(b(s))) for s in a(9)]; print('theta+1:2,2,2', 'shortprism:1,1,1', 'shortpyramid:1,2,2', 'wheel:6@0,2,4', sep='\\n')" | while read -r g; do python -m obstructa.cli decompose "$g"; done > tests/golden/decompose.jsonl
"""

import hashlib
from pathlib import Path

from click.testing import CliRunner

from conftest import ATLAS_MAX_N
from obstructa import enumeration
from obstructa.cli import main
from obstructa.enumeration import enumerate_graphs, verify_main_theorem
from obstructa.families import all_specs_up_to, build_3pc
from obstructa.graphs import encode_graph6

GOLDEN = Path(__file__).parent / "golden"

DECOMPOSE_SPECS = ("theta+1:2,2,2", "shortprism:1,1,1", "shortpyramid:1,2,2", "wheel:6@0,2,4")


def test_verify_matches_golden_reports(drop_levels):
    """At a lowered OBSTRUCTA_TEST_MAX_N only the CSV header and the rows up
    to that n are compared.  The largest level is dropped from the cache
    first, so verify walks it as a last level whatever ran before."""
    drop_levels(ATLAS_MAX_N - 1)
    report = verify_main_theorem(ATLAS_MAX_N)
    golden_csv = (GOLDEN / "verify-9.csv").read_bytes()
    if ATLAS_MAX_N == 9:
        assert report.to_json().encode() == (GOLDEN / "verify-9.json").read_bytes()
        assert report.to_csv().encode() == golden_csv
    else:
        want = golden_csv.splitlines(keepends=True)[: ATLAS_MAX_N + 1]
        assert report.to_csv().encode().splitlines(keepends=True) == want


def test_forms_match_golden_hashes():
    """The canonical forms themselves, their bytes and their order, not only
    the class counts the reports carry."""
    golden = (GOLDEN / "forms-9.sha256").read_text().splitlines()
    for n in range(ATLAS_MAX_N + 1):
        forms, _ = enumeration._forms_for(n)
        got = f"{n} {len(forms)} {hashlib.sha256(b''.join(forms)).hexdigest()}"
        assert got == golden[n]


def test_check_matches_golden_records():
    """Every 3PC is an HC-obstruction, so each of these records runs the
    obstruction minimality walk to its end, on up to 11 vertices."""
    lines = "".join(encode_graph6(build_3pc(spec)) + "\n" for spec in all_specs_up_to(11))
    result = CliRunner().invoke(main, ["check"], input=lines)
    assert result.exit_code == 0
    assert result.output.encode() == (GOLDEN / "check-specs.jsonl").read_bytes()


def test_decompose_matches_golden_traces():
    """Every step record of the structural trace, its certificates and its
    precondition errors, on graphs that are disconnected, separable,
    ambiguous in their special edges and line graphs."""
    inputs = [encode_graph6(g) for n in range(6) for g in enumerate_graphs(n)]
    inputs += [encode_graph6(build_3pc(spec)) for spec in all_specs_up_to(9)]
    inputs += DECOMPOSE_SPECS
    runner = CliRunner()
    out = []
    for text in inputs:
        result = runner.invoke(main, ["decompose", text])
        assert result.exit_code == 0, text
        out.append(result.output)
    assert "".join(out).encode() == (GOLDEN / "decompose.jsonl").read_bytes()
