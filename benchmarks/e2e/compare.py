"""Compare a parent and a change commit on the end-to-end benchmark.

Implements the choosing-metrics rules for landing a change (§6-8)::

    python3 benchmarks/e2e/compare.py run PARENT_DIR CHANGE_DIR --out pairs.json
        [--pairs 10] [--workload W ...] [--seconds T] [--first-seed S]
    python3 benchmarks/e2e/compare.py report pairs.json

``run`` runs the benchmark from two checkouts in pairs.  Both sides of a
pair use the same seed, so simulated metrics compare exactly, and the
side that runs first alternates from pair to pair.  ``report`` prints
one row per metric and workload: each side's median and quartiles, the
share of pairs the change wins (ties count for neither), each side's
share of failed operations, and a verdict:

* ``improved``: the change wins at least 9 in 10 pairs, its median beats
  the parent's by more than the parent's own quartile spread, and it
  fails no more operations than the parent;
* ``regressed``: the change's median is worse by more than the bound;
* ``unresolved``: the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``no-worse``: otherwise.

Simulated metrics (bound 0) are judged pair by pair: identical in every
pair is ``no-worse``, and any pair that is worse is ``regressed``.
There is no combined score.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.e2e.run import DEFAULT_SECONDS, END_TO_END, WORKLOAD_NAMES, host_info  # noqa: E402

#: What a pairs file keeps of each run.
KEPT = ("workload", "seed", "attempted", "failed", "correct", "sim_digest",
        "metrics", "calibration", "timed_raw_s", "timed_scaled_s")


def run_one(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "result.json")
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--out", out],
            cwd=checkout,
            stdout=subprocess.DEVNULL,
        )
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
        with open(out) as handle:
            result = json.load(handle)["results"][0]
    return {key: result[key] for key in KEPT}


def run_pairs(parent: str, change: str, pairs: int, workloads: List[str],
              seconds: float, first_seed: int) -> dict:
    records = []
    for index in range(pairs):
        seed = first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for workload in workloads:
            record = {"seed": seed, "workload": workload, "first": order[0]}
            for side in order:
                checkout = parent if side == "parent" else change
                record[side] = run_one(checkout, workload, seed, seconds)
                print(f"pair {index + 1}/{pairs} {workload} {side}: "
                      f"{record[side]['metrics']['host_inv_per_s']:.1f} inv/s",
                      file=sys.stderr)
            records.append(record)
    return {
        "kind": "seuss-e2e-pairs",
        "parent": os.path.abspath(parent),
        "change": os.path.abspath(change),
        "seconds": seconds,
        "host": host_info(),
        "pairs": records,
    }


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(a: float, b: float, direction: str) -> bool:
    """``a`` reads strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def verdict(parent: List[float], change: List[float], direction: str, bound: float,
            fail_parent: float, fail_change: float) -> str:
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs) / len(pairs)
    if bound == 0.0:
        if all(c == p for p, c in pairs):
            return "no-worse"
        if any(better(p, c, direction) for p, c in pairs):
            return "regressed"
        return "improved" if wins >= 0.9 and fail_change <= fail_parent else "no-worse"
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    scale = abs(med_p) or 1.0
    gain = (med_c - med_p) / scale * (1 if direction == "higher" else -1)
    if direction == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if (q3 - q1) / scale > bound and not every_run_better:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    if (wins >= 0.9 and gain > 0 and abs(med_c - med_p) > q3 - q1
            and fail_change <= fail_parent):
        return "improved"
    return "no-worse"


def report(doc: dict) -> int:
    by_workload = {}
    for record in doc["pairs"]:
        by_workload.setdefault(record["workload"], []).append(record)
    header = (f"{'workload':<13} {'metric':<17} {'unit':<6} {'parent median [q1,q3]':>32} "
              f"{'change median [q1,q3]':>32} {'delta':>8} {'wins':>5} "
              f"{'fail% p/c':>11}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for workload, records in by_workload.items():
        fails = {}
        for side in ("parent", "change"):
            attempted = sum(r[side]["attempted"] for r in records)
            fails[side] = sum(r[side]["failed"] for r in records) / attempted
        for name, (unit, direction, bound) in END_TO_END.items():
            parent = [r["parent"]["metrics"][name] for r in records]
            change = [r["change"]["metrics"][name] for r in records]
            med_p, med_c = statistics.median(parent), statistics.median(change)
            (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
            wins = sum(better(c, p, direction) for p, c in zip(parent, change)) / len(records)
            delta = (med_c - med_p) / abs(med_p) * 100 if med_p else 0.0
            outcome = verdict(parent, change, direction, bound, fails["parent"], fails["change"])
            regressed |= outcome == "regressed"
            print(
                f"{workload:<13} {name:<17} {unit:<6} "
                f"{f'{med_p:.6g} [{p1:.6g},{p3:.6g}]':>32} "
                f"{f'{med_c:.6g} [{c1:.6g},{c3:.6g}]':>32} {delta:>7.2f}% {wins:>5.2f} "
                f"{fails['parent'] * 100:>5.2f}/{fails['change'] * 100:<5.2f}  {outcome}"
            )
        same = sum(r["parent"]["sim_digest"] == r["change"]["sim_digest"] for r in records)
        print(f"{workload:<13} sim_digest identical in {same}/{len(records)} pairs")
    print(f"{len(doc['pairs'])} runs per side; host-time metrics are scaled to the "
          "reference calibration speed; bounds are shares of the parent's median")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run parent/change pairs")
    run.add_argument("parent")
    run.add_argument("change")
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--first-seed", type=int, default=1)
    show = commands.add_parser("report", help="summarise a pairs file")
    show.add_argument("pairs_file")
    args = parser.parse_args(argv)
    if args.command == "run":
        doc = run_pairs(args.parent, args.change, args.pairs,
                        args.workload or list(WORKLOAD_NAMES), args.seconds, args.first_seed)
        with open(args.out, "w") as handle:
            json.dump(doc, handle)
        return report(doc)
    with open(args.pairs_file) as handle:
        return report(json.load(handle))


if __name__ == "__main__":
    sys.exit(main())
