"""Host-time instruments: calibrated stopwatch, GC meter, layer sampler
and benchmark-side spans.

Host speed on a shared machine swings by tens of percent within
seconds, so raw wall time is not comparable across runs.  Every timed
region is cut into short slices, each bracketed by a fixed pure-Python
calibration spin (the perf gate's loop), and each slice's host seconds
are scaled to :data:`REFERENCE_RATE` by the speed measured around it.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Calibration-loop iterations per second that scaled host seconds
#: refer to: a scaled second is the time the region would take on a
#: host that runs the loop at this speed.
REFERENCE_RATE = 10_000_000.0
#: One spin is ~20 ms on a 6M iterations/s host.
SPIN_ITERATIONS = 120_000
#: Host seconds per slice of a timed region.
SLICE_S = 0.2
#: CPU seconds between layer samples.
SAMPLE_INTERVAL_S = 0.001


def spin_rate(iterations: int = SPIN_ITERATIONS) -> float:
    """Iterations/s of the perf gate's fixed calibration loop, right now."""
    started = time.perf_counter()
    acc = 0
    for value in range(iterations):
        acc += value ^ (value >> 3)
    elapsed = time.perf_counter() - started
    if acc == 0:
        raise RuntimeError("calibration loop was optimised away")
    return iterations / elapsed


class Stopwatch:
    """Accumulates raw host seconds and seconds scaled to REFERENCE_RATE."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: Calibration rate of every spin taken, in order.
        self.rates: List[float] = []

    def add(self, raw_s: float, rate_before: float, rate_after: float) -> None:
        self.raw_s += raw_s
        self.scaled_s += raw_s * (rate_before + rate_after) / 2.0 / REFERENCE_RATE

    def spin(self) -> float:
        rate = spin_rate()
        self.rates.append(rate)
        return rate

    def time(self, fn):
        """Run ``fn()`` between two spins; returns (result, scaled seconds)."""
        before = self.spin()
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        after = self.spin()
        scaled_before = self.scaled_s
        self.add(raw, before, after)
        return result, self.scaled_s - scaled_before

    def calibration(self) -> dict:
        return {
            "spins": len(self.rates),
            "median_rate": statistics.median(self.rates),
            "min_rate": min(self.rates),
            "max_rate": max(self.rates),
        }


class GcMeter:
    """Host time spent in the cyclic garbage collector, via gc.callbacks."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.gen2_collections = 0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.raw_s += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class LayerSampler:
    """SIGPROF sampler charging each sample to one layer of the program.

    A sample goes to the innermost frame under ``<package>/<layer>/``;
    frames outside the program (standard library, top-level modules of
    the package) are charged to the program frame that called them.  A
    sample whose innermost program frame is one of the benchmark's own
    files, or that has no program frame, goes to ``bench``.
    """

    def __init__(self, package_dir: str, bench_dir: str) -> None:
        self._package_prefix = os.path.join(package_dir, "")
        self._bench_prefix = os.path.join(bench_dir, "")
        self.counts: Dict[str, int] = {}
        self._layer_of: Dict[str, str] = {}
        self._previous_handler = None

    def _classify(self, filename: str) -> str:
        if filename.startswith(self._package_prefix):
            layer, sep, _ = filename[len(self._package_prefix):].partition(os.sep)
            return layer if sep else ""
        if filename.startswith(self._bench_prefix):
            return "bench"
        return ""

    def _on_signal(self, signum, frame) -> None:
        layer_of = self._layer_of
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = layer_of.get(filename)
            if layer is None:
                layer = layer_of[filename] = self._classify(filename)
            if layer:
                break
            frame = frame.f_back
        else:
            layer = "bench"
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def __enter__(self) -> "LayerSampler":
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGPROF, self._previous_handler)


class Spans:
    """Host-time spans recorded around the benchmark's calls into each layer.

    Kept in memory; :meth:`chrome_events` renders them as Chrome
    trace-event ``X`` records for Perfetto.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.records.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start_us": (start - self._origin) * 1e6,
                    "end_us": (time.perf_counter() - self._origin) * 1e6,
                }
            )


def chrome_events(records: List[dict], pid: int, process_name: str) -> List[dict]:
    """Chrome trace-event records for one process's spans."""
    events = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 1,
         "args": {"name": process_name}}
    ]
    for record in sorted(records, key=lambda r: (r["start_us"], r["id"])):
        events.append(
            {
                "ph": "X",
                "name": record["name"],
                "cat": record["layer"],
                "pid": pid,
                "tid": 1,
                "ts": record["start_us"],
                "dur": record["end_us"] - record["start_us"],
                "args": {"id": record["id"], "parent": record["parent"]},
            }
        )
    return events
