"""Golden reports: ``verify --max-n 9`` JSON and CSV, committed byte for byte.

Every change to generation, canonical labeling or the detectors must leave
these bytes unchanged.  Regenerate only for an intended report change:

    python -m obstructa.cli verify --max-n 9 > tests/golden/verify-9.json
    python -m obstructa.cli verify --max-n 9 --format csv > tests/golden/verify-9.csv
"""

from pathlib import Path

from conftest import ATLAS_MAX_N
from obstructa.enumeration import verify_main_theorem

GOLDEN = Path(__file__).parent / "golden"


def test_verify_matches_golden_reports():
    """At a lowered OBSTRUCTA_TEST_MAX_N only the CSV header and the rows up
    to that n are compared."""
    report = verify_main_theorem(ATLAS_MAX_N)
    golden_csv = (GOLDEN / "verify-9.csv").read_bytes()
    if ATLAS_MAX_N == 9:
        assert report.to_json().encode() == (GOLDEN / "verify-9.json").read_bytes()
        assert report.to_csv().encode() == golden_csv
    else:
        want = golden_csv.splitlines(keepends=True)[: ATLAS_MAX_N + 1]
        assert report.to_csv().encode().splitlines(keepends=True) == want
