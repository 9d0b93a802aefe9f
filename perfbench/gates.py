"""Correctness gates: each returns a list of failure messages, empty on pass.

The verify gate checks a report against facts that do not come from the
package: the number of graphs on n vertices (OEIS A000088) and the published
wheel-free HC-obstruction counts.  The record gate checks a `check` record
against what the corpus generator knows from how it built the graph, plus the
theorem itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from corpus import Entry

# OEIS A000088, n = 0..8
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# wheel-free HC-obstructions, n = 1..8 (none below 5 vertices)
WHEEL_FREE_OBSTRUCTIONS = (0, 0, 0, 0, 2, 2, 5, 7)
ANCHOR_MAX_N = len(GRAPH_CLASSES) - 1

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# `check theta:2,2,2`: the smallest theta, the probe every workload times.
PROBE_SPEC = "theta:2,2,2"
PROBE_RECORD = {
    "contains_3pc": True,
    "hamiltonian": False,
    "hc_obstruction": True,
    "recognized_3pc": "theta:2,2,2",
    "two_connected": True,
    "wheel_free": True,
}

RECORD_KEYS = set(PROBE_RECORD)
MAX_MESSAGES = 20


class Ledger:
    """Counts checked operations; an operation fails if any gate message is
    given for it.  Keeps the first few messages for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append("; ".join(fails[:3]))


def reference_report(max_n: int) -> Optional[bytes]:
    """The `verify --max-n N --jobs 1` report committed with the benchmark."""
    path = REFERENCE_DIR / f"verify-{max_n}.json"
    return path.read_bytes() if path.is_file() else None


def verify_report(out: bytes, exit_code: int, max_n: int) -> list[str]:
    if exit_code != 0:
        return [f"verify exited with {exit_code}"]
    try:
        report = json.loads(out)
        rows = report["rows"]
        fails = []
        if report["max_n"] != max_n:
            fails.append(f"max_n {report['max_n']} != {max_n}")
        if report["counterexamples"]:
            fails.append(f"counterexamples {report['counterexamples']}")
        if [r["n"] for r in rows] != list(range(1, max_n + 1)):
            fails.append("rows are not n = 1..max_n")
            return fails
        for r in rows:
            n = r["n"]
            if r["hc_obstructions_wheel_free"] != r["wheel_free_3pcs"]:
                fails.append(f"n={n}: wheel-free obstructions != wheel-free 3PCs")
            if n > ANCHOR_MAX_N:
                continue
            if r["all"] != GRAPH_CLASSES[n]:
                fails.append(f"n={n}: {r['all']} classes, expected {GRAPH_CLASSES[n]}")
            if r["hc_obstructions_wheel_free"] != WHEEL_FREE_OBSTRUCTIONS[n - 1]:
                fails.append(
                    f"n={n}: {r['hc_obstructions_wheel_free']} wheel-free obstructions,"
                    f" expected {WHEEL_FREE_OBSTRUCTIONS[n - 1]}"
                )
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    ref = reference_report(max_n)
    if ref is not None and out != ref:
        fails.append("report bytes differ from the reference report")
    return fails


def parse_record(line: bytes) -> dict:
    record = json.loads(line)
    if not isinstance(record, dict) or set(record) != RECORD_KEYS:
        raise ValueError(f"record keys {sorted(record) if isinstance(record, dict) else record}")
    return record


def check_record(entry: Entry, line: bytes) -> list[str]:
    """Gate one `check` record against the corpus entry it answers.  Every
    corpus graph is 2-connected by construction."""
    try:
        r = parse_record(line)
    except ValueError as exc:
        return [f"{entry.graph6}: unreadable record: {exc}"]
    fails = []
    if not r["two_connected"]:
        fails.append("two_connected is false")
    if entry.kind == "3pc":
        if not r["hc_obstruction"]:
            fails.append("3PC is not an HC-obstruction")
        if r["recognized_3pc"] != entry.spec:
            fails.append(f"recognized {r['recognized_3pc']}, built {entry.spec}")
    if entry.kind in ("wheel", "shortpyramid") and r["wheel_free"]:
        fails.append(f"{entry.kind} reported wheel-free")
    if r["two_connected"] and r["wheel_free"] and not r["contains_3pc"] and not r["hamiltonian"]:
        fails.append("2-connected, wheel-free, 3PC-free and not Hamiltonian")
    if r["hc_obstruction"] and (r["hamiltonian"] or not r["two_connected"]):
        fails.append("obstruction that is Hamiltonian or not 2-connected")
    if r["recognized_3pc"] is not None and not r["contains_3pc"]:
        fails.append("recognized as a 3PC but contains_3pc is false")
    return [f"{entry.graph6} ({entry.kind}): {f}" for f in fails]


def probe_record(out: bytes, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"check {PROBE_SPEC} exited with {exit_code}"]
    try:
        record = json.loads(out)
    except ValueError as exc:
        return [f"check {PROBE_SPEC}: unreadable record: {exc}"]
    return [] if record == PROBE_RECORD else [f"check {PROBE_SPEC}: {record}"]
