"""Run the full-stack benchmark and print every metric with its unit.

Usage (from the repository root)::

    python -m benchmarks.e2e [--workload W] [--seed S] [--seconds T]
                             [--traced | --trace 0|1] [--out FILE]

Each workload runs in its own single-threaded subprocess.  ``--traced``
(``--trace 1``) runs each workload once more under a SIGPROF layer
sampler and adds the per-layer host self times and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; for a single
workload the metrics are those ``BENCHMARK.json`` lists (end-to-end
without tracing, per-layer with it).  Exit status is 0 when every
output check passes, 1 when one fails, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "benchmarks", "e2e", "out")

WORKLOAD_NAMES = ("hot_loop", "warm_restore", "cold_sweep", "fleet_replay")
#: Default timed-region length per workload, in host seconds.
DEFAULT_SECONDS = 15.0
#: Set-ups timed per untraced pass; ``setup_s`` is their median.
SETUP_BUILDS = 5
#: A single-workload run must finish within this many seconds.
RUN_DEADLINE_S = 175.0

#: End-to-end metrics: name -> (unit, better, regression bound as a
#: share of the parent's median).  Host metrics are host time scaled to
#: the reference calibration speed; the rest are simulated and repeat
#: exactly at a fixed seed, so any change to them is a model change.
#: Host bounds are three times the widest quartile spread measured over
#: ten seeds on a shared 2-vCPU VM (6.3% for host_inv_per_s, 0.7% for
#: peak_rss_mb); set-up time gets the largest bound.
END_TO_END = {
    "host_inv_per_s": ("inv/s", "higher", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "overhead_p50_ms": ("ms", "lower", 0.0),
    "overhead_p999_ms": ("ms", "lower", 0.0),
    "goodput_per_s": ("req/s", "higher", 0.0),
    "cold_frac": ("ratio", "lower", 0.0),
    "fail_frac": ("ratio", "lower", 0.0),
}
HOST_METRICS = ("host_inv_per_s", "setup_s", "peak_rss_mb")

#: Layers the sampler charges host time to: ``src/repro/<layer>/``
#: packages plus the benchmark's own frames.  ``distributed`` is there
#: because snapshot-affinity routing prices node choices with its
#: transfer-cost model.
LAYERS = ("sim", "mem", "unikernel", "seuss", "faas", "distributed", "net",
          "workload", "metrics", "trace", "bench")

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    **{f"{layer}.self_us_per_inv": ("us", "lower") for layer in LAYERS},
    "tracing.overhead_pct": ("%", "lower"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "gc.us_per_inv": ("us", "lower"),
    "gc.gen2_collections": ("count", "lower"),
    "sim.events_per_inv": ("events/inv", "lower"),
    "mem.pages_copied_per_inv": ("pages/inv", "lower"),
    "mem.peak_gb": ("GB", "lower"),
    "unikernel.ucs_per_inv": ("ucs/inv", "lower"),
    "seuss.snapshot_hit_rate": ("ratio", "higher"),
    "seuss.snapshot_evictions": ("count", "lower"),
    "seuss.idle_uc_hit_rate": ("ratio", "higher"),
    "seuss.idle_uc_reclaims": ("count", "lower"),
    "faas.attempts_per_inv": ("attempts/inv", "lower"),
    "faas.locality_hit_rate": ("ratio", "higher"),
    "faas.shim_util": ("ratio", "lower"),
    "seuss.cold_node_ms": ("ms", "lower"),
    "seuss.warm_node_ms": ("ms", "lower"),
    "seuss.hot_node_ms": ("ms", "lower"),
    "seuss.table1_err_pct": ("%", "lower"),
    "seuss.core_wait_ms": ("ms", "lower"),
    **{
        f"seuss.stage.{stage}_ms": ("ms", "lower")
        for stage in ("uc_create", "connect", "cow_faults", "import_compile",
                      "snapshot_capture", "arg_import", "execute", "result_return")
    },
    "faas.control_ms": ("ms", "lower"),
}
#: Per-layer metrics the traced run reports on its result line: host
#: time by layer, and the work counts an optimisation must leave alone.
#: Simulated-time stages are printed but left off it: they repeat
#: exactly, and the digest already pins them.
REPORTED_PER_LAYER = (
    *(f"{layer}.self_us_per_inv" for layer in LAYERS),
    "tracing.overhead_pct",
    "sim.host_ns_per_event",
    "gc.us_per_inv",
    "gc.gen2_collections",
    "sim.events_per_inv",
    "mem.pages_copied_per_inv",
    "unikernel.ucs_per_inv",
    "seuss.snapshot_hit_rate",
    "seuss.snapshot_evictions",
    "seuss.idle_uc_reclaims",
    "faas.attempts_per_inv",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: dict, timeout_s: float) -> dict:
    """Run one measured pass in a fresh interpreter; returns its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC_DIR, ROOT, env.get("PYTHONPATH")) if path
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.measure", json.dumps(args)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, timeout_s),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args['name']}: pass exceeded {timeout_s:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args['name']}: pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(name: str, seed: int, seconds: float, traced: bool,
                     deadline: float) -> dict:
    """The untraced pass, plus the sampled pass when ``traced``."""
    base = dict(name=name, seed=seed, seconds=seconds)
    result = _child(dict(base, builds=SETUP_BUILDS), deadline - time.monotonic())
    if not traced:
        return result
    sampled = _child(dict(base, builds=1, sampled=True), deadline - time.monotonic())
    samples = sampled["samples"]
    total = sum(samples.values()) or 1
    per_inv_us = result["timed_scaled_s"] / result["attempted"] * 1e6
    metrics = result["metrics"]
    for layer in sorted(set(LAYERS) | set(samples)):
        metrics[f"{layer}.self_us_per_inv"] = samples.get(layer, 0) / total * per_inv_us
    metrics["tracing.overhead_pct"] = (
        sampled["timed_scaled_s"] / result["timed_scaled_s"] - 1.0
    ) * 100.0
    result["checks"].append(
        {
            "name": "traced_digest",
            "ok": sampled["sim_digest"] == result["sim_digest"],
            "detail": "traced pass simulates the same results",
        }
    )
    result["correct"] = result["correct"] and sampled["correct"] and all(
        check["ok"] for check in result["checks"]
    )
    result["traced"] = {
        key: sampled[key]
        for key in ("samples", "timed_scaled_s", "timed_raw_s", "slices",
                    "calibration", "sim_digest", "spans")
    }
    return result


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    return "us"  # self time of a layer outside LAYERS


def format_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(result: dict) -> None:
    metrics = result["metrics"]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['attempted']} invocations  paths {result['paths']}"
    )
    ordered = [n for n in END_TO_END] + [n for n in PER_LAYER if n in metrics]
    ordered += sorted(n for n in metrics if n not in ordered)
    for name in ordered:
        if name in metrics:
            print(f"  {name:<32} {format_value(metrics[name]):>14}  {_unit(name)}")
    print(
        f"  overhead samples {result['overhead_samples']}, "
        f"{result['overhead_p999_beyond']} beyond p99.9"
    )
    calibration = result["calibration"]
    print(
        f"  timed region {result['timed_raw_s']:.2f} s raw, "
        f"{result['timed_scaled_s']:.2f} s scaled, {result['slices']} slices, "
        f"calibration median {calibration['median_rate'] / 1e6:.2f}M it/s "
        f"[{calibration['min_rate'] / 1e6:.2f}-{calibration['max_rate'] / 1e6:.2f}]"
    )
    for check in result["checks"]:
        print(f"  check {check['name']:<24} {'ok' if check['ok'] else 'FAIL'}  {check['detail']}")
    print(f"  sim_digest {result['sim_digest']}")


def result_line(results: List[dict], traced: bool) -> dict:
    """The final JSON object: a workload's listed metrics, or all workloads'."""
    names = REPORTED_PER_LAYER if traced else HOST_METRICS

    def listed(result: dict) -> Dict[str, dict]:
        return {
            name: {"value": result["metrics"][name], "unit": _unit(name)}
            for name in names
        }

    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        line["metrics"] = listed(results[0])
    else:
        line["metrics"] = {r["workload"]: listed(r) for r in results}
    return line


def host_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def write_chrome_trace(results: List[dict], path: str) -> None:
    from benchmarks.e2e.hosttime import chrome_events

    events = []
    for index, result in enumerate(results):
        events += chrome_events(result["spans"], 2 * index + 1, f"{result['workload']} untraced")
        events += chrome_events(
            result["traced"]["spans"], 2 * index + 2, f"{result['workload']} traced"
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOAD_NAMES, default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed-region length per workload (sizes scale with it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the sampled per-layer pass")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="write every metric, check and calibration as JSON")
    args = parser.parse_args(argv)
    traced = args.traced or args.trace == 1
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: the program is missing ({SRC_DIR}/repro)", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            result = measure_workload(name, args.seed, args.seconds, traced, deadline)
            print_report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if traced:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        write_chrome_trace(results, path)
        print(f"spans (Chrome trace): {os.path.relpath(path, ROOT)}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "kind": "seuss-e2e-bench",
                    "schema": 1,
                    "host": host_info(),
                    "args": {"seed": args.seed, "seconds": args.seconds, "traced": traced},
                    "results": results,
                },
                handle,
            )
    line = result_line(results, traced)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    if __package__ in (None, ""):
        sys.path.insert(0, ROOT)
    sys.exit(main())
