"""Automatic discovery of anticipatory optimizations (§9).

The paper's AO passes were found "through basic reasoning about the
high-level procedure of importing and deploying function code"; its
future work proposes discovering them automatically by tracing
execution.  This module implements the observational version of that
idea against the simulation's own mechanisms:

1. **Profile** — run sample cold invocations on an unwarmed node and
   collect the driver's first-use events: extents written after deploy
   that belong to no specific function (the tell-tale of a shared,
   pre-executable path).
2. **Propose** — any extent observed on at least ``threshold`` of the
   samples is a candidate AO: warming it moves those pages (and the
   path's first-use latency) into the base snapshot.
3. **Apply / evaluate** — the proposals map onto the node's AO level;
   applying them and re-measuring quantifies the win.

On the Node.js runtime this rediscovers exactly the paper's two passes
(network and interpreter warming) from observation alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.seuss.config import AOLevel, SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.unikernel import interpreters as regions
from repro.unikernel.context import UnikernelContext
from repro.units import pages_to_mb

#: Which AO level warms which first-use extent.
EXTENT_TO_PASS = {
    regions.AO_NETWORK: "network",
    regions.AO_INTERPRETER: "interpreter",
}


@dataclass(frozen=True)
class AOProposal:
    """One discovered warming opportunity."""

    extent: str
    ao_pass: str
    observed_fraction: float
    pages: int

    @property
    def mb(self) -> float:
        return pages_to_mb(self.pages)


@dataclass
class DiscoveryReport:
    """Everything the profiling run learned."""

    samples: int
    first_use_counts: Dict[str, int] = field(default_factory=dict)
    proposals: List[AOProposal] = field(default_factory=list)

    def proposed_level(self) -> AOLevel:
        """The AO configuration implied by the proposals."""
        passes = {proposal.ao_pass for proposal in self.proposals}
        if "interpreter" in passes and "network" in passes:
            return AOLevel.NETWORK_AND_INTERPRETER
        if "network" in passes:
            return AOLevel.NETWORK
        return AOLevel.NONE


def profile_first_use(
    runtime_name: str = "nodejs",
    samples: int = 8,
    threshold: float = 0.5,
) -> DiscoveryReport:
    """Observe cold invocations on an unwarmed node; propose AO passes.

    Each sample is a distinct function cold-started from an unwarmed
    base snapshot; the driver records which first-use extents it had to
    write.  Function-specific writes (import, exec) never repeat across
    *different* functions' shared extents, so only genuinely common
    paths survive the threshold.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold {threshold} not in (0, 1]")

    node = SeussNode(
        Environment(),
        SeussConfig(ao_level=AOLevel.NONE, runtimes=(runtime_name,)),
    )
    node.initialize_sync()
    record = node.runtime_record(runtime_name)

    counts: Dict[str, int] = {}
    for index in range(samples):
        uc = UnikernelContext(
            node.allocator, record.runtime, base=record.snapshot
        )
        uc.start_listening()
        uc.accept_connection()
        uc.import_function(f"probe-{index}", 0.1)
        uc.import_args()
        uc.execute(38)
        for extent, hits in uc.first_use_events.items():
            if hits:
                counts[extent] = counts.get(extent, 0) + 1
        uc.destroy()

    report = DiscoveryReport(samples=samples, first_use_counts=dict(counts))
    layout = record.runtime.build_layout()
    for extent, observed in sorted(counts.items()):
        fraction = observed / samples
        if fraction < threshold or extent not in EXTENT_TO_PASS:
            continue
        report.proposals.append(
            AOProposal(
                extent=extent,
                ao_pass=EXTENT_TO_PASS[extent],
                observed_fraction=fraction,
                pages=layout.region(extent).npages,
            )
        )
    return report


def evaluate_proposals(
    report: DiscoveryReport, runtime_name: str = "nodejs"
) -> Tuple[float, float]:
    """(cold ms before, cold ms after) applying the discovered AO."""
    from repro.workload.functions import nop_function

    results = []
    for level in (AOLevel.NONE, report.proposed_level()):
        node = SeussNode(
            Environment(),
            SeussConfig(ao_level=level, runtimes=(runtime_name,)),
        )
        node.initialize_sync()
        outcome = node.invoke_sync(nop_function(owner=f"eval-{level.value}"))
        assert outcome.success
        results.append(outcome.latency_ms)
    return results[0], results[1]
