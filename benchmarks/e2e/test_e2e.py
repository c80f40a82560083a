"""Smoke-size self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Checks that the command prints every metric ``BENCHMARK.json`` lists,
with its unit, for every workload; that the simulated results (the
``sim_digest``) do not depend on the interpreter's hash seed, on
slicing the timed region, or on the layer sampler.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.measure import run_pass
from benchmarks.e2e.workloads import WORKLOADS

SMOKE_SECONDS = 0.05


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_catalogue():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [WORKLOADS[n].why for n in run.WORKLOAD_NAMES]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.HOST_METRICS)
    for metric in spec["end_to_end"]:
        unit, better, bound = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
    assert [m["name"] for m in spec["per_layer"]] == list(run.REPORTED_PER_LAYER)
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == run.PER_LAYER[metric["name"]]


@pytest.fixture(scope="module")
def traced_smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seconds", str(SMOKE_SECONDS),
         "--traced", "--out", str(out)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    with open(out) as handle:
        return proc, json.load(handle)


def test_every_listed_metric_is_printed_with_its_unit(traced_smoke_run):
    proc, _ = traced_smoke_run
    assert proc.returncode == 0, proc.stdout
    spec = _benchmark_json()
    sections = re.split(r"^== ", proc.stdout, flags=re.MULTILINE)[1:]
    assert [s.split()[0] for s in sections] == list(run.WORKLOAD_NAMES)
    for section in sections:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            pattern = rf"^  {re.escape(metric['name'])} +\S+  {re.escape(metric['unit'])}$"
            assert re.search(pattern, section, flags=re.MULTILINE), (metric, section[:40])
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    for name in run.WORKLOAD_NAMES:
        assert list(line["metrics"][name]) == list(run.REPORTED_PER_LAYER)


def test_traced_pass_simulates_the_same_results(traced_smoke_run):
    _, doc = traced_smoke_run
    for result in doc["results"]:
        assert result["traced"]["sim_digest"] == result["sim_digest"]
        assert sum(result["traced"]["samples"].values()) > 0


def _digest_in_subprocess(name: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    args = {"name": name, "seed": 7, "seconds": SMOKE_SECONDS, "builds": 1}
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.measure", json.dumps(args)],
        cwd=run.ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["sim_digest"]


def test_digest_does_not_depend_on_the_hash_seed():
    # The fleet replay is the hash-sensitive one: sharded routing over
    # dict- and set-heavy node state.
    name = "fleet_replay"
    assert _digest_in_subprocess(name, "0") == _digest_in_subprocess(name, "12345")


# cold_sweep is left out only for time: its 262,144-function set-up
# dominates, and slicing works the same on every workload.
@pytest.mark.parametrize("name", ["hot_loop", "warm_restore", "fleet_replay"])
def test_sliced_drive_matches_a_plain_run(name):
    sliced = run_pass(name, seed=3, seconds=SMOKE_SECONDS, builds=1)
    plain = run_pass(name, seed=3, seconds=SMOKE_SECONDS, builds=1, sliced=False)
    assert sliced["slices"] > 1
    assert sliced["correct"] and plain["correct"]
    assert sliced["sim_digest"] == plain["sim_digest"]
    assert sliced["metrics"]["sim.events_per_inv"] == plain["metrics"]["sim.events_per_inv"]
