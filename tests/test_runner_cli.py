"""CLI and extension-experiment tests."""

from __future__ import annotations

import pytest

from repro.experiments.extensions import (
    run_ablations,
    run_distributed,
    run_ksm_contrast,
)
from repro.experiments.runner import main


class TestCli:
    def test_quick_single_experiment(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "network+interpreter" in out
        assert "completed in" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table2" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_plot_flag_renders_burst_figures(self, capsys):
        assert main(["figure6", "--quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "[log scale]" in out
        assert "— linux" in out and "— seuss" in out

    def test_extensions_quick(self, capsys):
        assert main(["ablations", "distributed", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "snapshot stacks" in out
        assert "remote-warm" in out

    def test_list_prints_registered_specs(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table1", "figure8", "chaos"):
            assert experiment_id in out
        assert "full/quick/smoke" in out
        assert "paper,table" in out

    def test_smoke_profile(self, capsys):
        assert main(["table2", "--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "network+interpreter" in out

    def test_quick_conflicts_with_other_profile(self):
        with pytest.raises(SystemExit):
            main(["table2", "--quick", "--profile", "full"])

    def test_tag_filter(self, capsys):
        assert main(["all", "--tag", "analysis", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out
        assert "table1" not in out

    def test_unmatched_tag_errors(self):
        with pytest.raises(SystemExit):
            main(["all", "--tag", "no-such-tag"])

    def test_plot_conflicts_with_parallel(self):
        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--plot", "--parallel", "2"])

    def test_invalid_parallel_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--quick", "--parallel", "0"])


class TestCliParallel:
    """--parallel N: worker processes, same stdout tables."""

    IDS = ["table2", "codesize"]

    def _tables(self, capsys, *flags):
        assert main([*self.IDS, "--quick", *flags]) == 0
        out = capsys.readouterr().out
        # Strip the wall-clock lines; everything else must be stable.
        return [
            line
            for line in out.splitlines()
            if not line.startswith("[") or "completed in" not in line
        ]

    def test_parallel_run_completes(self, capsys):
        assert main([*self.IDS, "--quick", "--parallel", "2"]) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out and "codesize" in captured.out
        assert "[suite] start table2" in captured.err
        assert "[suite] done table2" in captured.err

    def test_serial_and_parallel_stdout_identical(self, capsys):
        serial = self._tables(capsys)
        parallel = self._tables(capsys, "--parallel", "2")
        assert serial == parallel

    def test_parallel_json_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "suite.json"
        assert main(
            [*self.IDS, "--quick", "--parallel", "2", f"--json={path}"]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] >= 2
        assert payload["parallel"] == 2
        assert [e["experiment_id"] for e in payload["experiments"]] == self.IDS
        assert all(e["status"] == "ok" for e in payload["experiments"])

    def test_seed_flag_threads_through(self, capsys, tmp_path):
        import json

        path = tmp_path / "seeded.json"
        assert main(
            ["figure5", "--profile", "smoke", "--seed", "42", f"--json={path}"]
        ) == 0
        payload = json.loads(path.read_text())
        entry = payload["experiments"][0]
        assert payload["seed"] == 42
        from repro.experiments.suite import derive_seed

        assert entry["seed"] == derive_seed(42, "figure5")


class TestExtensionHarnesses:
    def test_ablations_shape(self):
        result = run_ablations()
        choices = [row[0] for row in result.rows]
        assert "snapshot stacks" in choices
        assert "idle-UC cache" in choices
        assert "single-TCP shim" in choices
        stacks_row = next(r for r in result.rows if r[0] == "snapshot stacks")
        assert stacks_row[2] > 40 * stacks_row[3]  # with >> without

    def test_distributed_shape(self):
        result = run_distributed()
        assert len(result.rows) == 3
        for row in result.rows:
            cold_ms, remote_ms, upfront_mb = row[1], row[2], row[3]
            assert remote_ms < cold_ms
            assert upfront_mb > 0  # a replica crossed the wire

    def test_ksm_contrast_shape(self):
        result = run_ksm_contrast(containers=40)
        rows = {row[0]: row for row in result.rows}
        gain_row = rows["density gain over unshared"]
        # KSM helps, but snapshot sharing is an order of magnitude denser.
        ksm_gain = float(gain_row[1].rstrip("x"))
        seuss_gain = float(gain_row[2].rstrip("x"))
        assert 1.5 < ksm_gain < 4.0
        assert seuss_gain > 10 * ksm_gain


class TestOvercommit:
    def test_idle_ucs_overcommit_memory(self, seuss_node):
        from repro.workload.functions import nop_function

        for index in range(50):
            seuss_node.invoke_sync(nop_function(owner=f"oc-{index}"))
        ratio = seuss_node.overcommit_ratio()
        # Each idle UC maps ~116 MB while holding ~2.6 MB privately.
        assert ratio > 30

    def test_fresh_node_not_overcommitted(self, seuss_node):
        assert seuss_node.overcommit_ratio() == 1.0


class TestSensitivity:
    def test_scaled_costbook(self):
        from repro.costs import DEFAULT_COSTS
        from repro.experiments.sensitivity import scaled_costbook

        book = scaled_costbook("seuss.uc_create_ms", 2.0)
        assert book.seuss.uc_create_ms == DEFAULT_COSTS.seuss.uc_create_ms * 2
        # Everything else untouched.
        assert book.seuss.tcp_connect_ms == DEFAULT_COSTS.seuss.tcp_connect_ms
        assert book.linux == DEFAULT_COSTS.linux

    def test_invalid_paths_rejected(self):
        import pytest

        from repro.errors import ConfigError
        from repro.experiments.sensitivity import scaled_costbook

        with pytest.raises(ConfigError):
            scaled_costbook("nonsense", 2.0)
        with pytest.raises(ConfigError):
            scaled_costbook("seuss.warp_factor", 2.0)
        with pytest.raises(ConfigError):
            scaled_costbook("seuss.uc_create_ms", 0.0)

    def test_plateau_tracks_shim_not_import(self):
        from repro.experiments.sensitivity import (
            seuss_cold_ms,
            seuss_plateau_rps,
            sweep,
        )

        shim = sweep("platform.shim_service_ms", seuss_plateau_rps, (1.0, 2.0))
        assert shim[2.0] < shim[1.0] * 0.6  # halving rate with doubled service
        cold = sweep("seuss.import_compile_base_ms", seuss_cold_ms, (1.0, 2.0))
        assert cold[2.0] > cold[1.0] + 3.5  # cold start pays import directly
        plateau = sweep(
            "seuss.import_compile_base_ms", seuss_plateau_rps, (1.0, 2.0)
        )
        # ...but the throughput plateau barely notices (shim-bound).
        assert plateau[2.0] > plateau[1.0] * 0.95


class TestExperimentsPackageApi:
    def test_all_run_functions_importable(self):
        import repro.experiments as experiments

        for name in experiments.__all__:
            assert getattr(experiments, name) is not None, name

    def test_unknown_attribute_raises(self):
        import pytest

        import repro.experiments as experiments

        with pytest.raises(AttributeError):
            experiments.run_table99

    def test_codesize_shape(self):
        from repro.experiments import run_codesize

        result = run_codesize(code_sizes_kb=(0.1, 100.0))
        small, big = result.rows
        assert big[1] > small[1] * 1.5  # cold grows with code size
        assert big[3] == small[3]  # hot does not
        assert big[4] >= small[4]  # cold/warm advantage grows
