"""Traced in-process phases, one per child process so that each starts cold.

    python3 perfbench/layers.py enumerate --jobs 1 --seed 1
    python3 perfbench/layers.py enumerate --jobs 2 --seed 1
    python3 perfbench/layers.py check --seed 1

Each phase calls the package's public functions with a span around every
call, checks the results, and prints one JSON object as its last line:
``{"spans", "counts", "values", "attempted", "failed", "failures"}``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import gates  # noqa: E402
from tracing import Tracer  # noqa: E402

from obstructa.canon import canonical_form  # noqa: E402
from obstructa.detectors import (  # noqa: E402
    classify,
    contains_induced_wheel,
    find_induced_3pc,
    find_induced_wheel,
    scan_contains_family,
)
from obstructa.enumeration import enumerate_graphs, verify_main_theorem  # noqa: E402
from obstructa.families import family_tables, recognize_3pc  # noqa: E402
from obstructa.graphs import decode_graph6, graph_from_edges, is_two_connected  # noqa: E402
from obstructa.hamiltonicity import find_hamiltonian_cycle, is_hc_obstruction  # noqa: E402

CANON_SAMPLES = 2000
# the verify workloads' top vertex count
MAX_N = 8


class Phase:
    def __init__(self, run_id: str) -> None:
        self.tr = Tracer(run_id)
        self.values: dict[str, float] = {}
        self.ledger = gates.Ledger()
        self.check = self.ledger.record

    def emit(self) -> None:
        out = self.tr.to_dict()
        out.update(
            values=self.values,
            attempted=self.ledger.attempted,
            failed=self.ledger.failed,
            failures=self.ledger.messages,
        )
        print(json.dumps(out))


def survey_population(ph: Phase, graphs: list, n: int, traced: bool) -> list[int]:
    """The n-vertex population behind the survey's own filters, one public
    call per detector: 2-connected, then wheel-free, then the cycle and 3PC
    scans, and the minimality check only for non-Hamiltonian graphs.
    Returns the survey's counts for cross-checking against its report."""
    tables = family_tables(n)
    sigs = tables.get(n, (set(), {}))[0]
    span = ph.tr.span if traced else lambda name: nullcontext()
    two_conn = recognized = wheel_free = free = ham_free = obstructions = 0
    for g in graphs:
        with span("graphs.is_two_connected"):
            tc = is_two_connected(g)
        if not tc:
            continue
        two_conn += 1
        if (g.edge_count, g.degree_sequence()) in sigs:
            with span("families.recognize_3pc"):
                recognized += recognize_3pc(g) is not None
        with span("detectors.contains_induced_wheel"):
            wheel = contains_induced_wheel(n, g.rows)
        if wheel:
            continue
        wheel_free += 1
        with span("hamiltonicity.find_hamiltonian_cycle"):
            ham = find_hamiltonian_cycle(g).found
        with span("detectors.scan_contains_family"):
            has_3pc = scan_contains_family(n, g.rows, tables)
        if not has_3pc:
            free += 1
            ham_free += ham
        if not ham:
            with span("hamiltonicity.is_hc_obstruction"):
                obstructions += is_hc_obstruction(g).is_obstruction
    return [two_conn, wheel_free, free, ham_free, obstructions, recognized]


SURVEY_COLUMNS = (
    "two_connected",
    "wheel_free_2conn",
    "three_pc_free_among_those",
    "hamiltonian_among_those",
    "hc_obstructions_wheel_free",
    "recognized_3pcs",
)


def phase_enumerate(jobs: int, max_n: int, seed: int) -> Phase:
    ph = Phase(f"enumerate-j{jobs}")
    tr = ph.tr
    classes = {0: 1}
    with tr.span("enumeration.generate"):
        for n in range(1, max_n + 1):
            with tr.span("enumeration.enumerate_graphs"):
                graphs = list(enumerate_graphs(n, jobs=jobs))
            classes[n] = len(graphs)
    top = min(max_n, gates.ANCHOR_MAX_N)
    ph.check(
        [
            f"n={n}: {classes[n]} classes, expected {gates.GRAPH_CLASSES[n]}"
            for n in range(1, top + 1)
            if classes[n] != gates.GRAPH_CLASSES[n]
        ]
    )
    labelings = sum(classes[n - 1] << (n - 1) for n in range(1, max_n + 1))
    tr.count("enumeration.labelings", labelings)
    tr.count("enumeration.classes", sum(classes[n] for n in range(1, max_n + 1)))
    if jobs != 1:
        return ph

    with tr.span("enumeration.verify_main_theorem"):
        report = verify_main_theorem(max_n, jobs=1)
    ph.check(gates.verify_report(report.to_json().encode(), 1 if report.counterexamples else 0, max_n))

    # Seeded relabelings of the top-n classes must all map back to the
    # class's own canonical form.
    rng = random.Random(seed)
    for g in rng.choices(graphs, k=CANON_SAMPLES):
        perm = list(range(max_n))
        rng.shuffle(perm)
        h = graph_from_edges(max_n, [(perm[u], perm[v]) for u, v in g.edges()])
        with tr.span("canon.canonical_form"):
            form = canonical_form(h)
        ph.check([] if form == canonical_form(g) else [f"relabeled {g.rows}: other form"])

    # Tracing overhead: the same population sweep without spans, warmed once
    # so that the family tables are built before either timed sweep.
    survey_population(ph, graphs, max_n, traced=False)
    t0 = time.perf_counter()
    survey_population(ph, graphs, max_n, traced=False)
    ph.values["untraced_sweep_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tr.span("survey.population"):
        counts = survey_population(ph, graphs, max_n, traced=True)
    ph.values["traced_sweep_s"] = time.perf_counter() - t0
    row = report.rows[-1].to_dict()
    ph.check(
        [
            f"sweep {c}={got}, report says {row[c]}"
            for c, got in zip(SURVEY_COLUMNS, counts)
            if got != row[c]
        ]
    )
    return ph


def phase_check(seed: int, blocks: int, max_n: int) -> Phase:
    ph = Phase("check")
    tr = ph.tr
    for e in corpus.generate(f"{seed}/trace", blocks, max_n):
        with tr.span("check.graph"):
            with tr.span("graphs.decode_graph6"):
                g = decode_graph6(e.graph6)
            with tr.span("detectors.find_induced_3pc"):
                find_induced_3pc(g)
            with tr.span("detectors.find_induced_wheel"):
                find_induced_wheel(g)
            with tr.span("families.recognize_3pc"):
                recognize_3pc(g)
            with tr.span("hamiltonicity.is_hc_obstruction"):
                is_hc_obstruction(g)
            with tr.span("hamiltonicity.find_hamiltonian_cycle"):
                find_hamiltonian_cycle(g)
            with tr.span("detectors.classify"):
                record = classify(g)
        ph.check(gates.check_record(e, json.dumps(record.to_dict()).encode()))
    return ph


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=("enumerate", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    if args.phase == "enumerate":
        ph = phase_enumerate(args.jobs, MAX_N, args.seed)
    else:
        ph = phase_check(args.seed, corpus.TRACE_BLOCKS, corpus.MAX_N)
    ph.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
