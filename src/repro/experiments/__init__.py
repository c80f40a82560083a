"""Experiment harnesses: one module per paper table/figure.

Each ``run_*`` function returns an
:class:`~repro.experiments.base.ExperimentResult` whose rows mirror the
paper's artifact, with paper-reference values alongside measured ones.
The CLI (``seuss-repro`` / ``python -m repro.experiments.runner``)
regenerates everything; the functions below are importable directly for
programmatic use.
"""

from repro.experiments.base import (
    ExperimentRegistry,
    ExperimentResult,
    ExperimentSpec,
    registry,
)

__all__ = [
    "ExperimentRegistry",
    "ExperimentResult",
    "ExperimentSpec",
    "load_all",
    "registry",
    "run_ablations",
    "run_autoao",
    "run_codesize",
    "run_density",
    "run_distributed",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_keepalive",
    "run_ksm_contrast",
    "run_latency",
    "run_overload",
    "run_prefetch",
    "run_scale",
    "run_sensitivity",
    "run_table1",
    "run_table2",
    "run_table3",
]

_LAZY = {
    "run_table1": "repro.experiments.table1",
    "run_table2": "repro.experiments.table2",
    "run_table3": "repro.experiments.table3",
    "run_figure4": "repro.experiments.figure4",
    "run_figure5": "repro.experiments.figure5",
    "run_figure6": "repro.experiments.bursts",
    "run_figure7": "repro.experiments.bursts",
    "run_figure8": "repro.experiments.bursts",
    "run_ablations": "repro.experiments.extensions",
    "run_autoao": "repro.experiments.extensions",
    "run_distributed": "repro.experiments.extensions",
    "run_ksm_contrast": "repro.experiments.extensions",
    "run_sensitivity": "repro.experiments.sensitivity",
    "run_codesize": "repro.experiments.codesize",
    "run_latency": "repro.experiments.latency",
    "run_prefetch": "repro.experiments.prefetch",
    "run_overload": "repro.experiments.overload",
    "run_scale": "repro.experiments.scale",
    "run_density": "repro.experiments.density",
    "run_keepalive": "repro.experiments.keepalive",
}

#: Every module that registers specs, in display order (``all`` runs
#: and ``--list`` follow registration order).
EXPERIMENT_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.experiments.figure4",
    "repro.experiments.figure5",
    "repro.experiments.bursts",
    "repro.experiments.extensions",
    "repro.experiments.latency",
    "repro.experiments.sensitivity",
    "repro.experiments.codesize",
    "repro.experiments.prefetch",
    "repro.experiments.chaos",
    "repro.experiments.overload",
    "repro.experiments.scale",
    "repro.experiments.density",
    "repro.experiments.keepalive",
)


def load_all() -> ExperimentRegistry:
    """Import every experiment module and return the populated registry.

    Idempotent (modules register identical specs on re-import), and
    safe to call from suite worker processes.
    """
    import importlib

    for module in EXPERIMENT_MODULES:
        importlib.import_module(module)
    # Display order must not depend on who imported an experiment module
    # first: canonicalize to EXPERIMENT_MODULES order (stable within a
    # module, unknown modules last).
    module_order = {name: i for i, name in enumerate(EXPERIMENT_MODULES)}
    registry.sort(
        key=lambda spec: module_order.get(
            getattr(spec.entry, "__module__", ""), len(module_order)
        )
    )
    return registry


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
