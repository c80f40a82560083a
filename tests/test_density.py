"""Density acceptance: the dedup subsystem must actually buy density.

Marked ``density`` (``make density`` runs these plus the quick
experiment).  Everything is deterministic — same trial, same numbers —
so the thresholds are hard assertions, not statistical ones.
"""

from __future__ import annotations

import pytest

from repro.experiments import load_all
from repro.experiments.density import (
    _functions_per_gb,
    run_density_trial,
)
from repro.faas.cluster import FaasCluster
from repro.metrics.resilience import ResilienceReport
from repro.seuss.config import SeussConfig
from repro.sim import Environment
from repro.workload.functions import nop_function

pytestmark = pytest.mark.density

FUNCTIONS = 64  # the quick profile's arm size


class TestCaptureDedupDensity:
    def test_capture_dedup_beats_baseline_by_required_margin(self):
        _node, cached_base, phys_base = run_density_trial(FUNCTIONS)
        node, cached, phys = run_density_trial(FUNCTIONS, page_dedup=True)
        baseline = _functions_per_gb(cached_base, phys_base)
        deduped = _functions_per_gb(cached, phys)
        # Same functions cached, strictly fewer physical frames.
        assert cached == cached_base == FUNCTIONS
        assert phys < phys_base
        assert deduped > baseline
        # The acceptance bar: >= 1.3x functions-per-GB at defaults.
        assert deduped / baseline >= 1.3
        # The win is real sharing, not accounting: the domain holds
        # refcounted frames and reports the avoided copies.
        assert node.dedup.saved_pages > 0
        assert node.dedup.merged_pages > 0

    def test_capture_dedup_charges_no_scan_time(self):
        node, _cached, _phys = run_density_trial(FUNCTIONS, page_dedup=True)
        # SEUSS-style merging is established at capture: no scanner,
        # no CPU bill.
        assert node.dedup.scanner is None
        assert node.dedup.scan_ms == 0.0


    def test_capture_merges_are_counted_once(self):
        """Capture-time merges are the frame table's merges: with no
        scanner and no eviction, every merged page is a held saving."""
        cluster = FaasCluster.with_seuss_node(
            Environment(), config=SeussConfig(page_dedup=True)
        )
        for name in "abc":
            assert cluster.invoke_sync(nop_function(name, owner="o")).success
        dedup = cluster.node.dedup
        assert dedup.saved_pages > 0
        assert dedup.merged_pages == dedup.saved_pages
        report = ResilienceReport.from_cluster(cluster)
        assert report.dedup_merged_pages == report.dedup_saved_pages


class TestRetroScannerCost:
    def test_scanner_merges_but_pays_cpu(self):
        _node, cached_base, phys_base = run_density_trial(24)
        node, cached, phys = run_density_trial(
            24, dedup_scanner=True, scan_window_ms=10_000.0
        )
        baseline = _functions_per_gb(cached_base, phys_base)
        scanned = _functions_per_gb(cached, phys)
        assert cached == cached_base
        assert scanned > baseline
        # The §5 contrast: the retroactive path's savings cost scan
        # time on the sim clock.
        assert node.dedup.scan_ms > 0.0
        assert node.dedup.merged_pages > 0

    def test_scanner_throttle_bounds_progress(self):
        # A 10x slower throttle merges strictly less in the same
        # (short) window.
        slow, _, phys_slow = run_density_trial(
            24,
            dedup_scanner=True,
            scan_rate_pages_per_s=2_500.0,
            scan_window_ms=2_000.0,
        )
        fast, _, phys_fast = run_density_trial(
            24,
            dedup_scanner=True,
            scan_rate_pages_per_s=25_000.0,
            scan_window_ms=2_000.0,
        )
        assert slow.dedup.merged_pages < fast.dedup.merged_pages
        assert phys_slow > phys_fast


class TestRegistration:
    def test_density_is_registered_with_profiles(self):
        registry = load_all()
        spec = registry.get("density")
        assert spec.title.startswith("Cached-function density")
        for profile in ("full", "quick", "smoke"):
            assert profile in spec.profile_names
        assert "density" in spec.tags
