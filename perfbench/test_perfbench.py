"""Self-tests of the benchmark: gates catch tampering, small runs pass.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

REFERENCE = gates.reference_report(8)


@pytest.fixture
def client() -> run.Client:
    return run.Client(run.ROOT, time.perf_counter() + 120, cpus=2)


def test_reference_report_passes():
    assert gates.verify_report(REFERENCE, 0, 8) == []


@pytest.mark.parametrize(
    "old, new",
    [
        (b'"hc_obstructions_wheel_free":7', b'"hc_obstructions_wheel_free":8'),
        (b'"all":12346', b'"all":12345'),
        (b'"counterexamples":[]', b'"counterexamples":["DRo"]'),
        (b'"wheel_free_3pcs":5', b'"wheel_free_3pcs":6'),
        (b'"max_n":8', b'"max_n":7'),
        (b"]}\n", b"]}"),
    ],
)
def test_tampered_report_fails(old, new):
    assert old in REFERENCE
    assert gates.verify_report(REFERENCE.replace(old, new, 1), 0, 8)


def test_report_with_bad_exit_or_garbage_fails():
    assert gates.verify_report(REFERENCE, 1, 8)
    assert gates.verify_report(b"not json", 0, 8)
    assert gates.verify_report(b"{}", 0, 8)


def _record(**overrides) -> bytes:
    base = {
        "two_connected": True,
        "wheel_free": True,
        "contains_3pc": True,
        "hamiltonian": False,
        "hc_obstruction": True,
        "recognized_3pc": "theta:2,2,2",
    }
    base.update(overrides)
    return json.dumps(base).encode()


THETA = corpus.Entry("DRo", "3pc", "theta:2,2,2")
WHEEL = corpus.Entry("x", "wheel", None)
RANDOM = corpus.Entry("x", "random", None)


def test_true_records_pass():
    assert gates.check_record(THETA, _record()) == []
    wheel = _record(wheel_free=False, contains_3pc=False, hamiltonian=True,
                    hc_obstruction=False, recognized_3pc=None)
    assert gates.check_record(WHEEL, wheel) == []
    assert gates.check_record(RANDOM, wheel) == []


@pytest.mark.parametrize(
    "entry, line",
    [
        (THETA, _record(hc_obstruction=False)),
        (THETA, _record(recognized_3pc="theta:2,2,3")),
        (THETA, _record(recognized_3pc=None)),
        (THETA, _record(two_connected=False)),
        (WHEEL, _record(recognized_3pc=None, contains_3pc=False, hamiltonian=True,
                        hc_obstruction=False)),
        # 2-connected, wheel-free, 3PC-free and not Hamiltonian
        (RANDOM, _record(contains_3pc=False, hc_obstruction=False, recognized_3pc=None)),
        (RANDOM, _record(hamiltonian=True)),
        (RANDOM, b'{"two_connected": true}'),
        (RANDOM, b"error"),
    ],
)
def test_tampered_record_fails(entry, line):
    assert gates.check_record(entry, line)


def test_corpus_is_seeded_and_stratified():
    a = corpus.generate(5, 1)
    assert a == corpus.generate(5, 1)
    b = corpus.generate(6, 1)
    assert a != b
    key = lambda es: sorted((e.kind, ord(e.graph6[0]) - 63) for e in es)  # noqa: E731
    assert key(a) == key(b)
    assert len(a) == len(corpus.BLOCK) * (corpus.MAX_N - corpus.MIN_N + 1)


def test_self_times_subtract_children():
    spans = [
        ["outer", 0, 100, -1, "r"],
        ["inner", 10, 40, 0, "r"],
        ["inner", 50, 70, 0, "r"],
        ["leaf", 55, 60, 2, "r"],
    ]
    st = tracing.self_times(spans)
    assert st["outer"] == pytest.approx(50e-9)
    assert st["inner"] == pytest.approx(45e-9)
    assert st["leaf"] == pytest.approx(5e-9)


def test_smoke_verify_passes_and_jobs_agree(client):
    # n = 7 runs for more than one slice, so the child is stopped and resumed
    reports = []
    for jobs in (1, 2):
        out, code, scaled, wall = client.timed(["verify", "--max-n", "7", "--jobs", str(jobs)])
        assert gates.verify_report(out, code, 7) == []
        assert wall > run.SLICE_S and scaled > 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_smoke_check_batch_passes_and_counts_a_wrong_claim(client):
    entries = corpus.generate(3, 1, max_n=9)
    ledger = gates.Ledger()
    latencies, scaled = run.send_corpus(client, ledger, entries)
    assert ledger.failed == 0
    assert ledger.attempted == len(entries) + 1
    assert len(latencies) == len(scaled) == len(entries) and min(scaled) > 0

    threepc = next(e for e in entries if e.kind == "3pc")
    wrong = corpus.Entry(threepc.graph6, "3pc", "theta:2,2,99")
    run.send_corpus(client, ledger, [wrong])
    assert ledger.failed == 1


def test_smoke_setup_probe(client):
    ledger = gates.Ledger()
    assert run.measure_setup(client, ledger) > 0
    assert ledger.failed == 0 and ledger.attempted == run.SETUP_PROBES


@pytest.mark.parametrize(
    "make_phase",
    [lambda: layers.phase_enumerate(1, 6, 1), lambda: layers.phase_check(1, 1, 9)],
)
def test_smoke_traced_phases_pass(make_phase):
    buf = io.StringIO()
    with redirect_stdout(buf):
        make_phase().emit()
    phase = json.loads(buf.getvalue().splitlines()[-1])
    assert phase["failed"] == 0 and phase["attempted"] > 0
    assert phase["spans"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""
