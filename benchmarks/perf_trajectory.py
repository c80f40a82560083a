"""Write the BENCH_<date>.json perf-trajectory artifact.

``make bench`` runs this after the pytest benchmark suite.  The
artifact records, for trend tracking across PRs:

* suite wall-clock — the quick-profile experiment suite executed
  serially and through the parallel executor (same specs, so the
  speedup column is the executor's contribution on this host);
* engine microbenchmarks — ingested from pytest-benchmark's JSON
  (``--benchmark-json``) when available, so the simulator's hot-path
  numbers ride along in the same file;
* tracing overhead — the same hot-invocation loop with the tracer off
  and on, so the zero-perturbation layer's wall-clock cost is tracked;
* end-to-end scores — one untraced run of the full-stack benchmark
  (``benchmarks/e2e/run.py``, default seed and size, ~80 s): host
  invocations per second, set-up time, peak RSS and collector cost per
  workload, next to the perf-gate microbenchmark scores.

Usage::

    python -m benchmarks.perf_trajectory --out BENCH_2026-08-06.json \
        [--micro .bench-micro.json] [--profile quick] [--parallel N]

``--out`` must not exist: an artifact is never overwritten (``make
bench`` picks the next free name, ``BENCH_<date>b.json`` and on).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from typing import List, Optional

from repro.experiments import load_all
from repro.experiments.suite import run_suite

#: Artifact schema; bump on breaking changes.
#: v2: suite records ``cpu_count`` and nulls the serial-vs-parallel
#: speedup on single-core hosts; perf-gate scores ride along.
#: v3: suite records executor mode and effective workers for both
#: runs, and measures with ``keep_results=False`` + a collect between
#: runs — BENCH_2026-08-07 measured the second suite pass at 2.6× the
#: first purely because the first pass's retained result graphs were
#: re-traced by the collector throughout; tracing overhead is best-of-N
#: and adds the denominator-free ``overhead_us_per_invocation``; a
#: fleet-throughput section (see
#: ``benchmarks/fleet_heap_baseline.json``) rides along.
#: v4: an ``e2e`` section records, per end-to-end workload, the host
#: rate, set-up time, peak RSS, collector time per invocation, full
#: collections and ``sim_digest`` of one untraced default-size run.
BENCH_SCHEMA_VERSION = 4

#: What the ``e2e`` section keeps of each workload's metrics.
E2E_METRICS = (
    "host_inv_per_s",
    "setup_s",
    "peak_rss_mb",
    "gc.us_per_inv",
    "gc.gen2_collections",
)


def measure_suite(profile: str, parallel: int) -> dict:
    """Run the suite twice (serial, parallel) and report wall-clocks.

    On a single-core host the serial-vs-parallel wall-clock comparison
    only measures executor overhead, not a speedup; the parallel run is
    kept (it still verifies byte-identical tables) but the speedup is
    recorded as ``None`` with an explanatory note so single-core data
    points don't pollute the cross-PR trajectory.  (On such hosts
    ``run_suite`` itself now clamps to the in-process executor, which
    the recorded ``parallel_executor`` makes visible.)
    """
    import gc

    cpu_count = os.cpu_count() or 1
    ids = load_all().ids()
    serial = run_suite(ids, profile=profile, parallel=1, keep_results=False)
    gc.collect()
    wide = run_suite(
        ids, profile=profile, parallel=parallel, keep_results=False
    )
    gc.collect()
    identical = [o.text for o in serial.outcomes] == [
        o.text for o in wide.outcomes
    ]
    comparable = cpu_count > 1
    if comparable and wide.wall_clock_s:
        speedup = round(serial.wall_clock_s / wide.wall_clock_s, 3)
        speedup_note = None
    else:
        speedup = None
        speedup_note = (
            f"cpu_count == {cpu_count}: serial-vs-parallel wall-clock "
            "is not a meaningful comparison on this host"
            if not comparable
            else "parallel wall-clock was zero"
        )
    return {
        "profile": profile,
        "experiments": len(ids),
        "cpu_count": cpu_count,
        "serial_wall_clock_s": round(serial.wall_clock_s, 3),
        "parallel_wall_clock_s": round(wide.wall_clock_s, 3),
        "parallel_workers": parallel,
        "serial_executor": serial.executor,
        "parallel_executor": wide.executor,
        "effective_workers": wide.effective_workers,
        "speedup": speedup,
        "speedup_note": speedup_note,
        "tables_byte_identical": identical,
        "failures": sorted(
            {o.experiment_id for o in serial.failed + wide.failed}
        ),
    }


def measure_tracing_overhead(invocations: int = 2000, repeats: int = 3) -> dict:
    """Hot-invocation loop wall-clock with tracing off vs on.

    Simulated results are identical either way (the zero-perturbation
    guarantee); this measures the *host* cost of recording spans.  Both
    loops take the best of ``repeats`` runs (single-shot numbers swing
    ±20% on a noisy host).  The ``overhead_ratio`` divides by the
    untraced loop, so *engine* speedups inflate it without any change
    to the tracer — ``overhead_us_per_invocation`` is the
    denominator-free number to trend across PRs.
    """
    import time

    from repro.faas.records import InvocationPath
    from repro.seuss.node import SeussNode
    from repro.sim import Environment
    from repro.trace import Tracer
    from repro.workload.functions import nop_function

    def loop(tracer: Optional[Tracer]) -> tuple:
        env = Environment()
        if tracer is not None:
            tracer.attach(env)
        try:
            node = SeussNode(env)
            node.initialize_sync()
            fn = nop_function(owner="bench-trace")
            node.invoke_sync(fn)  # cold; everything after is hot
            started = time.perf_counter()
            for _ in range(invocations):
                outcome = node.invoke_sync(fn)
                assert outcome.path is InvocationPath.HOT
            elapsed = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.detach(env)
        return elapsed, outcome.latency_ms

    untraced_s, untraced_latency = min(
        loop(None) for _ in range(repeats)
    )
    traced_runs = []
    for _ in range(repeats):
        tracer = Tracer()
        traced_runs.append(loop(tracer) + (len(tracer.spans),))
    traced_s, traced_latency, spans_recorded = min(traced_runs)
    overhead_us = (traced_s - untraced_s) / invocations * 1e6
    return {
        "invocations": invocations,
        "repeats": repeats,
        "untraced_s": round(untraced_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_ratio": round(traced_s / untraced_s, 3)
        if untraced_s
        else None,
        "overhead_us_per_invocation": round(overhead_us, 2),
        "spans_recorded": spans_recorded,
        "sim_results_identical": untraced_latency == traced_latency,
    }


def ingest_micro(path: Optional[str]) -> List[dict]:
    """Summarize a pytest-benchmark JSON file (mean/stddev per test)."""
    if not path or not os.path.exists(path):
        return []
    with open(path) as handle:
        payload = json.load(handle)
    micro = []
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        micro.append(
            {
                "name": bench.get("fullname", bench.get("name")),
                "mean_s": stats.get("mean"),
                "stddev_s": stats.get("stddev"),
                "rounds": stats.get("rounds"),
            }
        )
    return micro


def fleet_reference() -> Optional[dict]:
    """Before/after fleet throughput from the committed heap baseline.

    Both sides are frozen in ``benchmarks/fleet_heap_baseline.json``
    (methodology documented there): the per-arrival-process driver on
    a ``heapq`` queue before, the batched driver on the calendar queue
    the engine then used after.  The ratio measures batching, not the
    queue; the live number for today's engine is the
    ``million_event_fleet`` perf-gate benchmark in the same artifact.
    """
    path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "fleet_heap_baseline.json",
    )
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        baseline = json.load(handle)
    before = baseline["heap_legacy"]["workload_events_per_s"]
    after = baseline["calendar_batched"]["workload_events_per_s"]
    return {
        "source": "benchmarks/fleet_heap_baseline.json",
        "before_workload_events_per_s": before,
        "after_workload_events_per_s": after,
        "speedup": baseline["speedup_workload_events"],
    }


def measure_perf_gate() -> dict:
    """Run the hot-path perf-gate suite and ride its scores along."""
    from benchmarks.perf_gate import run_benchmarks

    payload = run_benchmarks(repeat=2)
    return {
        "calibration_ops_per_s": payload["calibration_ops_per_s"],
        "benchmarks": {
            name: {"ops_per_s": b["ops_per_s"], "score": b["score"]}
            for name, b in payload["benchmarks"].items()
        },
    }


def measure_e2e() -> dict:
    """Run the end-to-end benchmark once and keep its headline scores.

    One untraced pass over every workload at the default seed and size,
    in a subprocess (the benchmark runs each workload in its own
    interpreter anyway).  Host-time scores are scaled to the
    benchmark's reference calibration speed; ``sim_digest`` pins the
    simulated results, so a change in it is a model change.
    """
    import subprocess
    import tempfile

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "e2e.json")
        proc = subprocess.run(
            [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
             "--out", out],
            cwd=root,
            stdout=subprocess.DEVNULL,
        )
        if not os.path.exists(out):
            raise RuntimeError(
                f"end-to-end benchmark exited {proc.returncode} with no result"
            )
        with open(out) as handle:
            payload = json.load(handle)
    return {
        "args": payload["args"],
        "workloads": {
            result["workload"]: {
                **{name: result["metrics"][name] for name in E2E_METRICS},
                "sim_digest": result["sim_digest"],
                "correct": result["correct"],
            }
            for result in payload["results"]
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Write the perf-trajectory BENCH artifact"
    )
    parser.add_argument(
        "--out", required=True, help="output JSON path (must not exist)"
    )
    parser.add_argument(
        "--micro",
        default=None,
        help="pytest-benchmark JSON to ingest (from --benchmark-json)",
    )
    parser.add_argument("--profile", default="quick")
    parser.add_argument(
        "--parallel",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="parallel width for the suite comparison (default: cores, max 4)",
    )
    parser.add_argument(
        "--skip-perf-gate",
        action="store_true",
        help="omit the hot-path perf-gate microbenchmarks",
    )
    args = parser.parse_args(argv)
    if os.path.exists(args.out):
        parser.error(
            f"{args.out} exists; a BENCH artifact is never overwritten "
            f"(pick another --out)"
        )

    suite = measure_suite(args.profile, args.parallel)
    tracing = measure_tracing_overhead()
    perf_gate = None if args.skip_perf_gate else measure_perf_gate()
    e2e = measure_e2e()
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "seuss-repro-bench",
        "date": datetime.date.today().isoformat(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "suite": suite,
        "tracing": tracing,
        "fleet": fleet_reference(),
        "perf_gate": perf_gate,
        "e2e": e2e,
        "micro": ingest_micro(args.micro),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
    speedup = (
        f"speedup {suite['speedup']}x"
        if suite["speedup"] is not None
        else f"speedup n/a ({suite['cpu_count']} cpu)"
    )
    print(
        f"wrote {args.out}: suite serial {suite['serial_wall_clock_s']}s, "
        f"parallel({suite['parallel_workers']}) "
        f"{suite['parallel_wall_clock_s']}s "
        f"({speedup}, "
        f"identical={suite['tables_byte_identical']}), "
        f"tracing overhead {tracing['overhead_ratio']}x, "
        f"{len(e2e['workloads'])} e2e workloads, "
        f"{len(payload['micro'])} microbenchmarks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
