"""Spec registry and parallel suite-executor tests."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError, ExperimentLookupError
from repro.experiments import load_all
from repro.experiments.base import (
    ExperimentRegistry,
    ExperimentResult,
    ExperimentSpec,
)
from repro.experiments.suite import derive_seed, run_suite, seed_for
from repro.metrics.export import SCHEMA_VERSION, write_suite_json


def tiny_result(experiment_id="tiny", value=1) -> ExperimentResult:
    result = ExperimentResult(experiment_id, "Tiny", ["k", "v"])
    result.add_row("value", value)
    return result


def run_tiny(value: int = 1) -> ExperimentResult:
    return tiny_result(value=value)


def run_broken() -> ExperimentResult:
    raise RuntimeError("boom")


def run_seeded(invocations: int = 10, seed: int = 7) -> ExperimentResult:
    result = ExperimentResult("seeded", "Seeded", ["invocations", "seed"])
    result.add_row(invocations, seed)
    return result


class TestExperimentSpec:
    def spec(self, **kwargs):
        defaults = dict(
            experiment_id="tiny",
            title="Tiny",
            entry=run_tiny,
            profiles={"full": {}, "quick": {"value": 2}},
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_profile_fallback_chain(self):
        spec = self.spec()
        assert spec.resolve_profile("quick") == ("quick", {"value": 2})
        # smoke undeclared -> quick; quick undeclared -> full.
        assert spec.resolve_profile("smoke") == ("quick", {"value": 2})
        bare = self.spec(profiles={})
        assert bare.resolve_profile("smoke") == ("full", {})

    def test_unknown_profile_rejected(self):
        with pytest.raises(ExperimentLookupError):
            self.spec().resolve_profile("galactic")
        with pytest.raises(ConfigError):
            self.spec(profiles={"galactic": {}})

    def test_entry_must_be_callable(self):
        with pytest.raises(ConfigError):
            self.spec(entry="not-callable")

    def test_run_applies_profile_and_overrides(self):
        spec = self.spec()
        assert spec.run(profile="quick").rows == [["value", 2]]
        assert spec.run(profile="quick", value=9).rows == [["value", 9]]

    def test_seed_forwarded_only_when_accepted(self):
        seeded = self.spec(entry=run_seeded, profiles={}, default_seed=7)
        assert seeded.accepts_seed()
        assert seeded.run(seed=123).rows == [[10, 123]]
        assert seeded.run().rows == [[10, 7]]  # default_seed
        seedless = self.spec()
        assert not seedless.accepts_seed()
        assert seedless.run(seed=123).rows == [["value", 1]]

    def test_profiles_are_copied(self):
        profiles = {"quick": {"value": 2}}
        spec = self.spec(profiles=profiles)
        profiles["quick"]["value"] = 99
        assert spec.resolve_profile("quick")[1] == {"value": 2}


class TestExperimentRegistry:
    def test_register_lookup_order(self):
        registry = ExperimentRegistry()
        a = registry.register(
            ExperimentSpec("a", "A", run_tiny, tags=("x",))
        )
        registry.register(ExperimentSpec("b", "B", run_tiny))
        assert registry.get("a") is a
        assert registry.ids() == ["a", "b"]
        assert "a" in registry and len(registry) == 2

    def test_duplicate_id_conflicting_spec_rejected(self):
        registry = ExperimentRegistry()
        spec = ExperimentSpec("a", "A", run_tiny)
        registry.register(spec)
        # Identical re-registration is the idempotent re-import path.
        assert registry.register(ExperimentSpec("a", "A", run_tiny)) == spec
        with pytest.raises(ConfigError):
            registry.register(ExperimentSpec("a", "Other title", run_tiny))

    def test_unknown_id_names_alternatives(self):
        registry = ExperimentRegistry()
        registry.register(ExperimentSpec("a", "A", run_tiny))
        with pytest.raises(ExperimentLookupError, match="'a'"):
            registry.get("zzz")

    def test_select_all_and_tags(self):
        registry = ExperimentRegistry()
        registry.register(ExperimentSpec("a", "A", run_tiny, tags=("x", "y")))
        registry.register(ExperimentSpec("b", "B", run_tiny, tags=("x",)))
        assert [s.experiment_id for s in registry.select(["all"])] == ["a", "b"]
        assert [
            s.experiment_id for s in registry.select(None, tags=["x", "y"])
        ] == ["a"]

    def test_load_all_is_idempotent_and_complete(self):
        first = load_all()
        again = load_all()
        assert first is again
        assert len(first) == 21
        assert first.ids()[:3] == ["table1", "table2", "table3"]
        for spec in first.specs():
            assert "full" in spec.profile_names


class TestSeeds:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, "table1") == derive_seed(1, "table1")
        assert derive_seed(1, "table1") != derive_seed(1, "table2")
        assert derive_seed(1, "table1") != derive_seed(2, "table1")

    def test_seed_for_respects_acceptance(self):
        seeded = ExperimentSpec("s", "S", run_seeded, default_seed=7)
        seedless = ExperimentSpec("p", "P", run_tiny)
        assert seed_for(seeded, None) == 7
        assert seed_for(seeded, 42) == derive_seed(42, "s")
        assert seed_for(seedless, 42) is None


class TestRunSuite:
    @pytest.fixture
    def registry(self):
        registry = ExperimentRegistry()
        registry.register(
            ExperimentSpec(
                "tiny", "Tiny", run_tiny, profiles={"quick": {"value": 2}}
            )
        )
        registry.register(ExperimentSpec("broken", "Broken", run_broken))
        registry.register(ExperimentSpec("seeded", "Seeded", run_seeded))
        return registry

    def test_failure_is_captured_not_fatal(self, registry):
        suite = run_suite(
            ["tiny", "broken", "seeded"], registry=registry
        )
        by_id = {o.experiment_id: o for o in suite.outcomes}
        assert not suite.ok
        assert [o.experiment_id for o in suite.failed] == ["broken"]
        assert "RuntimeError: boom" in by_id["broken"].error
        assert by_id["broken"].error_type == "RuntimeError: boom"
        assert by_id["tiny"].ok and by_id["seeded"].ok

    def test_outcomes_keep_selection_order(self, registry):
        suite = run_suite(["seeded", "tiny"], registry=registry)
        assert [o.experiment_id for o in suite.outcomes] == ["seeded", "tiny"]

    def test_progress_and_streaming_callbacks(self, registry):
        lines, streamed = [], []
        run_suite(
            ["tiny", "broken"],
            registry=registry,
            progress=lines.append,
            on_outcome=lambda o: streamed.append(o.experiment_id),
        )
        assert any(line.startswith("[suite] start tiny") for line in lines)
        assert any("FAILED broken" in line for line in lines)
        assert streamed == ["tiny", "broken"]

    def test_serial_results_carry_live_objects(self, registry):
        suite = run_suite(["tiny"], registry=registry)
        assert isinstance(suite.outcomes[0].result, ExperimentResult)

    def test_unknown_experiment_raises(self, registry):
        with pytest.raises(ExperimentLookupError):
            run_suite(["zzz"], registry=registry)

    def test_bad_parallel_rejected(self, registry):
        with pytest.raises(ValueError):
            run_suite(["tiny"], registry=registry, parallel=0)

    def test_suite_json_artifact(self, registry, tmp_path):
        suite = run_suite(
            ["tiny", "broken"], profile="quick", registry=registry, seed=5
        )
        path = tmp_path / "suite.json"
        write_suite_json(str(path), suite)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "seuss-repro-suite"
        assert payload["profile"] == "quick"
        assert payload["seed"] == 5
        assert payload["wall_clock_s"] >= 0
        tiny, broken = payload["experiments"]
        assert tiny["experiment_id"] == "tiny"
        assert tiny["status"] == "ok"
        assert tiny["rows"] == [["value", 2]]
        assert tiny["duration_s"] >= 0
        assert broken["status"] == "error"
        assert "RuntimeError: boom" in broken["error"]


class TestSerialParallelEquivalence:
    def test_quick_tables_byte_identical(self):
        """A parallel run reproduces the serial tables byte-for-byte."""
        ids = ["table2", "codesize", "ablations"]
        serial = run_suite(ids, profile="quick", parallel=1)
        wide = run_suite(ids, profile="quick", parallel=2)
        assert serial.ok and wide.ok
        assert [o.text for o in serial.outcomes] == [
            o.text for o in wide.outcomes
        ]
        assert [o.table for o in serial.outcomes] == [
            o.table for o in wide.outcomes
        ]
