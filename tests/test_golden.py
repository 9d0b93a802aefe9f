"""Golden outputs, committed byte for byte: the ``verify --max-n 9`` JSON and
CSV reports, and the sorted canonical forms of every class with n <= 9.

Every change to generation, canonical labeling or the detectors must leave
these bytes unchanged.  Regenerate only for an intended output change:

    python -m obstructa.cli verify --max-n 9 > tests/golden/verify-9.json
    python -m obstructa.cli verify --max-n 9 --format csv > tests/golden/verify-9.csv

``forms-9.sha256`` has one line ``n classes sha256`` per n = 0..9, the hash
taken over the concatenated sorted forms ``enumeration._forms_for(n)`` returns:

    python -c "import hashlib; from obstructa.enumeration import _forms_for as f; [print(n, len(f(n)[0]), hashlib.sha256(b''.join(f(n)[0])).hexdigest()) for n in range(10)]" > tests/golden/forms-9.sha256
"""

import hashlib
from pathlib import Path

from conftest import ATLAS_MAX_N
from obstructa import enumeration
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


def test_forms_match_golden_hashes():
    """The canonical forms themselves, their bytes and their order, not only
    the class counts the reports carry."""
    golden = (GOLDEN / "forms-9.sha256").read_text().splitlines()
    for n in range(ATLAS_MAX_N + 1):
        forms, _ = enumeration._forms_for(n)
        got = f"{n} {len(forms)} {hashlib.sha256(b''.join(forms)).hexdigest()}"
        assert got == golden[n]
