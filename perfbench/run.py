#!/usr/bin/env python3
"""Benchmark of the obstructa CLI: cold `verify` runs and a closed-loop
`check` batch, with a separate traced run for the per-layer numbers.

    python3 perfbench/run.py --workload verify-8 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it names
the workload, seed, Python version and CPU count.  The exit code is 0 only
when every output passed its correctness gate.

With ``--trace 0`` every operation is a fresh client process and the
end-to-end metrics are reported.  With ``--trace 1`` the per-layer phases of
``layers.py`` run in child processes, their spans are written to
``.perfbench_out/``, and the per-layer metrics are reported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import gates  # noqa: E402
import tracing  # noqa: E402

VERIFY_MAX_N = 8
# isomorphism classes decided by one `verify --max-n 8` report (n = 1..8)
VERIFY_VERDICTS = sum(gates.GRAPH_CLASSES[1 : VERIFY_MAX_N + 1])
SETUP_PROBES = 15
MIN_VERIFY_REPS = 3
BATCH_BLOCKS = 4  # 360 graphs per check process
# the p99 latency needs at least ten samples beyond it
MIN_LATENCY_SAMPLES = 1000
# the whole run must end well inside three minutes
DEADLINE_S = 165.0
# On a shared VM the same pure-Python loop runs up to 1.9 times slower in
# phases of seconds to minutes, in CPU time as much as in wall time.  So every
# end-to-end time is scaled to a fixed host speed: the time of CAL_LOOP
# iterations of a fixed loop, read between slices of the client's work while
# the client is stopped or idle, against CAL_REF_S.
CAL_LOOP = 20_000
CAL_REPS = 3
CAL_REF_S = 0.0015
SLICE_S = 0.25
METER_EVERY = 10
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("verify-8", "verify-8-j2", "check-batch")


class Fatal(Exception):
    """The program could not be run at all; no result is printed."""


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for k in range(CAL_LOOP):
        x += k * k % 7
    return time.perf_counter() - t0


class Meter:
    """The host's speed on the client's CPUs, read as CAL_REF_S over the time
    of a fixed pure-Python loop (the fastest of CAL_REPS) on each CPU.  The
    benchmark process and every child it starts are confined to those CPUs."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        os.sched_setaffinity(0, cpus)

    def speed(self) -> float:
        times = []
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            times.append(min(_calibration_loop() for _ in range(CAL_REPS)))
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)
        return CAL_REF_S / statistics.mean(times)


class Child:
    """One client process in its own process group; the group is killed at
    the deadline."""

    def __init__(self, argv: list[str], env: dict, timeout: float, stdin=None) -> None:
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            argv, stdin=stdin, stdout=subprocess.PIPE, env=env, start_new_session=True
        )
        self.watchdog = threading.Timer(timeout, os.killpg, (self.p.pid, signal.SIGKILL))
        self.watchdog.start()

    def finish(self) -> tuple[int, float]:
        """Wait for the child; returns (exit code, wall seconds)."""
        try:
            if self.p.stdin:
                self.p.stdin.close()
        except BrokenPipeError:
            pass
        self.p.stdout.close()
        code = self.p.wait()
        self.watchdog.cancel()
        if code < 0:
            raise Fatal(f"{' '.join(self.p.args[1:5])} was killed by signal {-code}")
        return code, time.perf_counter() - self.t0


class Client:
    """Starts `python -m obstructa.cli` processes on the checkout's sources,
    on the CPUs of its meter."""

    def __init__(self, root: Path, deadline: float, cpus: int = 1) -> None:
        src = root / "src"
        if not (src / "obstructa" / "cli.py").is_file():
            raise Fatal(f"no package sources under {src}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        self.env.pop("OBSTRUCTA_JOBS", None)
        self.cli = [sys.executable, "-m", "obstructa.cli"]
        self.deadline = deadline
        self.meter = Meter(sorted(os.sched_getaffinity(0))[:cpus])

    def start(self, argv: list[str], stdin=None) -> Child:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise Fatal("ran past the benchmark's deadline")
        return Child(argv, self.env, left, stdin)

    def run(self, args: list[str], cmd: list[str] | None = None) -> tuple[bytes, int]:
        """(stdout, exit code) of one child, untimed."""
        child = self.start((cmd or self.cli) + args)
        try:
            out = child.p.stdout.read()
        finally:
            code, _ = child.finish()
        return out, code

    def timed(self, args: list[str]) -> tuple[bytes, int, float, float]:
        """(stdout, exit code, scaled seconds, wall seconds) of one CLI child.
        The child runs in slices of SLICE_S; between slices its process group
        is stopped while the meter is read, and each slice is scaled by the
        mean of the speeds read before and after it."""
        speed = self.meter.speed()
        child = self.start(self.cli + args)
        out: list[bytes] = []
        reader = threading.Thread(target=lambda: out.append(child.p.stdout.read()))
        reader.start()
        scaled, t0 = 0.0, child.t0
        pidfd = os.pidfd_open(child.p.pid)
        try:
            while True:
                done = bool(select.select([pidfd], [], [], SLICE_S)[0])
                t1 = time.perf_counter()
                if not done:
                    os.killpg(child.p.pid, signal.SIGSTOP)
                after = self.meter.speed()
                scaled += (t1 - t0) * (speed + after) / 2
                speed = after
                if done:
                    break
                os.killpg(child.p.pid, signal.SIGCONT)
                t0 = time.perf_counter()
        finally:
            os.close(pidfd)
            reader.join()
            code, wall = child.finish()
        return out[0], code, scaled, wall

    def check_batch(self, lines: list[str]) -> tuple[list[bytes], list[float], list[float], int]:
        """Closed loop through one `check` process: each line is written only
        after the previous record arrived, and the meter is read every
        METER_EVERY lines while the child waits for input.  Returns (records,
        wall latencies, scaled latencies, exit code)."""
        speed = self.meter.speed()
        child = self.start(self.cli + ["check"], stdin=subprocess.PIPE)
        p = child.p
        records: list[bytes] = []
        latencies: list[float] = []
        scaled: list[float] = []
        try:
            for i, text in enumerate(lines):
                if i and i % METER_EVERY == 0:
                    speed = self.meter.speed()
                sent = time.perf_counter()
                p.stdin.write(text.encode() + b"\n")
                p.stdin.flush()
                rec = p.stdout.readline()
                lat = time.perf_counter() - sent
                if not rec:
                    break
                records.append(rec)
                latencies.append(lat)
                scaled.append(lat * speed)
            p.stdin.close()
            p.stdout.read()
        except BrokenPipeError:
            pass
        finally:
            code, _ = child.finish()
        return records, latencies, scaled, code


def nearest_rank(samples: list[float], q: float) -> float:
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(client: Client, ledger: gates.Ledger) -> float:
    """Median scaled time for a cold process to start, import and answer the
    probe.  A first untimed probe leaves the byte-code cache warm."""
    out, code = client.run(["check", gates.PROBE_SPEC])
    fails = gates.probe_record(out, code)
    if fails:
        raise Fatal("; ".join(fails))
    times = []
    for _ in range(SETUP_PROBES):
        out, code, scaled, _ = client.timed(["check", gates.PROBE_SPEC])
        ledger.record(gates.probe_record(out, code))
        times.append(scaled)
    return statistics.median(times)


def report_times(label: str, walls: list[float], scaled: list[float]) -> None:
    print(f"{label} wall (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"{label} scaled (s): " + " ".join(f"{w:.3f}" for w in scaled), file=sys.stderr)


def run_verify(client: Client, ledger: gates.Ledger, jobs: int, seconds: float) -> dict:
    """Cold `verify --max-n 8` processes until the next one would overrun
    ``seconds``.  Every graph's verdict arrives with its report, so each
    report stands for VERIFY_VERDICTS verdicts of equal latency, and the
    verdict rate and percentiles restate the report times."""
    walls: list[float] = []
    times: list[float] = []
    start = time.perf_counter()
    while True:
        out, code, scaled, wall = client.timed(
            ["verify", "--max-n", str(VERIFY_MAX_N), "--jobs", str(jobs)]
        )
        ledger.record(gates.verify_report(out, code, VERIFY_MAX_N))
        walls.append(wall)
        times.append(scaled)
        spent = time.perf_counter() - start
        if len(times) >= MIN_VERIFY_REPS and spent + statistics.median(walls) > seconds:
            break
    report_times("verify", walls, times)
    op = statistics.median(times)
    return {
        "op_s": metric(op, "s"),
        "graphs_per_s": metric(VERIFY_VERDICTS / op, "1/s"),
        "verdict_p50_ms": metric(nearest_rank(times, 0.5) * 1e3, "ms"),
        "verdict_p99_ms": metric(nearest_rank(times, 0.99) * 1e3, "ms"),
    }


def send_corpus(client: Client, ledger: gates.Ledger, entries: list) -> tuple[list[float], list[float]]:
    """One checked batch; returns (wall latencies, scaled latencies)."""
    records, latencies, scaled, code = client.check_batch([e.graph6 for e in entries])
    for e, rec in zip(entries, records):
        ledger.record(gates.check_record(e, rec))
    for e in entries[len(records) :]:
        ledger.record([f"{e.graph6}: no record"])
    ledger.record([] if code == 0 else [f"check exited with {code}"])
    return latencies, scaled


def run_check_batch(client: Client, ledger: gates.Ledger, seed: int, seconds: float) -> dict:
    """Fresh corpus batches, one `check` process each, until at least
    MIN_LATENCY_SAMPLES latencies are in and the next batch would overrun.
    A batch's time is the sum of its line latencies."""
    latencies: list[float] = []
    walls: list[float] = []
    times: list[float] = []
    start = time.perf_counter()
    while True:
        entries = corpus.generate(f"{seed}/{len(times)}", BATCH_BLOCKS)
        wall, scaled = send_corpus(client, ledger, entries)
        latencies += scaled
        walls.append(sum(wall))
        times.append(sum(scaled))
        spent = time.perf_counter() - start
        if len(latencies) >= MIN_LATENCY_SAMPLES and spent + statistics.median(walls) > seconds:
            break
    report_times("check batch", walls, times)
    return {
        "op_s": metric(statistics.median(times), "s"),
        "graphs_per_s": metric(len(latencies) / sum(times), "1/s"),
        "verdict_p50_ms": metric(nearest_rank(latencies, 0.5) * 1e3, "ms"),
        "verdict_p99_ms": metric(nearest_rank(latencies, 0.99) * 1e3, "ms"),
    }


def end_to_end(client: Client, ledger: gates.Ledger, workload: str, seed: int, seconds: float) -> dict:
    setup = measure_setup(client, ledger)
    if workload == "check-batch":
        metrics = run_check_batch(client, ledger, seed, seconds)
    else:
        metrics = run_verify(client, ledger, 2 if workload == "verify-8-j2" else 1, seconds)
    metrics["setup_s"] = metric(setup, "s")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
    return metrics


def run_phase(client: Client, ledger: gates.Ledger, args: list[str]) -> dict:
    out, code = client.run(args, cmd=[sys.executable, str(HERE / "layers.py")])
    if code != 0:
        raise Fatal(f"layers.py {args[0]} exited with {code}")
    phase = json.loads(out.splitlines()[-1])
    ledger.attempted += phase["attempted"]
    ledger.failed += phase["failed"]
    ledger.messages += phase["failures"]
    return phase


def per_layer(client: Client, ledger: gates.Ledger, workload: str, seed: int, meta: dict) -> dict:
    """Every per-layer metric; the same phases run for every workload."""
    gen1 = run_phase(client, ledger, ["enumerate", "--jobs", "1", "--seed", str(seed)])
    gen2 = run_phase(client, ledger, ["enumerate", "--jobs", "2", "--seed", str(seed)])
    chk = run_phase(client, ledger, ["check", "--seed", str(seed)])
    # the same graphs through the CLI, for the CLI's own share of latency
    entries = corpus.generate(f"{seed}/trace", corpus.TRACE_BLOCKS)
    cli_lat, _ = send_corpus(client, ledger, entries)

    def total(phase: dict, name: str) -> float:
        return sum(tracing.durations(phase["spans"], name))

    def calls(phase: dict, name: str) -> int:
        return len(tracing.durations(phase["spans"], name))

    def mean_ms(name: str) -> float:
        return total(chk, name) / calls(chk, name) * 1e3

    generate_s = total(gen1, "enumeration.generate")
    labelings = gen1["counts"]["enumeration.labelings"]
    m = {
        "enumeration.generate_s": metric(generate_s, "s"),
        "enumeration.survey_s": metric(total(gen1, "enumeration.verify_main_theorem"), "s"),
        "enumeration.labelings": metric(labelings, "count"),
        "enumeration.dedup_ratio": metric(gen1["counts"]["enumeration.classes"] / labelings, "ratio"),
        "canon.labelings_per_s": metric(labelings / generate_s, "1/s"),
        "canon.canonical_form_us": metric(
            total(gen1, "canon.canonical_form") / calls(gen1, "canon.canonical_form") * 1e6, "us"
        ),
        "enumeration.jobs2_speedup": metric(
            generate_s / total(gen2, "enumeration.generate"), "ratio"
        ),
    }
    for name in (
        "graphs.is_two_connected",
        "detectors.contains_induced_wheel",
        "detectors.scan_contains_family",
        "hamiltonicity.find_hamiltonian_cycle",
        "hamiltonicity.is_hc_obstruction",
        "families.recognize_3pc",
    ):
        # in the jobs=1 phase only the population sweep records these spans
        m[f"{name}_s"] = metric(total(gen1, name), "s")
        m[f"{name}.calls"] = metric(calls(gen1, name), "count")
    m["graphs.decode_graph6_us"] = metric(mean_ms("graphs.decode_graph6") * 1e3, "us")
    for name in (
        "detectors.find_induced_3pc",
        "detectors.find_induced_wheel",
        "families.recognize_3pc",
        "hamiltonicity.is_hc_obstruction",
        "hamiltonicity.find_hamiltonian_cycle",
        "detectors.classify",
    ):
        m[f"{name}_ms"] = metric(mean_ms(name), "ms")
    classify_p50 = statistics.median(tracing.durations(chk["spans"], "detectors.classify"))
    m["cli.overhead_ms"] = metric((statistics.median(cli_lat) - classify_p50) * 1e3, "ms")
    traced, untraced = gen1["values"]["traced_sweep_s"], gen1["values"]["untraced_sweep_s"]
    m["trace.overhead_pct"] = metric((traced - untraced) / untraced * 100, "%")

    OUT_DIR.mkdir(exist_ok=True)
    phases = {"enumerate-j1": gen1, "enumerate-j2": gen2, "check": chk}
    dump = {
        "meta": meta,
        "metrics": m,
        "self_time_s": {k: tracing.self_times(p["spans"]) for k, p in phases.items()},
        "phases": phases,
    }
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(dump))
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    ledger = gates.Ledger()
    try:
        cpus = 2 if args.workload == "verify-8-j2" or args.trace else 1
        client = Client(ROOT, time.perf_counter() + DEADLINE_S, cpus)
        if args.trace:
            metrics = per_layer(client, ledger, args.workload, args.seed, meta)
        else:
            metrics = end_to_end(client, ledger, args.workload, args.seed, args.seconds)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for msg in ledger.messages[: gates.MAX_MESSAGES]:
        print("FAIL: " + msg, file=sys.stderr)
    correct = ledger.failed == 0
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())
    print(
        " ".join(f"{k}={v}" for k, v in meta.items())
        + f" error_rate={ledger.failed / ledger.attempted:.6g} {summary}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
