"""A/B testing harness (the ODS-based methodology of Sec. 4).

The paper measures real speedup by comparing the throughput of two
identical servers that differ only in whether they accelerate the kernel.
Here the two "servers" are two simulator runs with identical
configuration, workload, and random seed, differing only in the offload
configuration -- the same single-variable experiment.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..simulator import (
    RunSummary,
    SimulationConfig,
    measured_latency_reduction,
    measured_speedup,
    run_simulation,
)
from ..simulator.runner import ServiceBuilder


@dataclasses.dataclass
class ABTestResult:
    """Outcome of one A/B experiment.

    Holds detached :class:`RunSummary` measurements (not live simulator
    graphs) so A/B results can cross process boundaries and live in the
    runtime's result cache.
    """

    baseline: RunSummary
    accelerated: RunSummary

    @property
    def speedup(self) -> float:
        """Throughput ratio (accelerated / baseline), the paper's QPS
        comparison."""
        return measured_speedup(self.baseline, self.accelerated)

    @property
    def speedup_percent(self) -> float:
        return (self.speedup - 1.0) * 100.0

    @property
    def latency_reduction(self) -> float:
        return measured_latency_reduction(self.baseline, self.accelerated)

    @property
    def latency_reduction_percent(self) -> float:
        return (self.latency_reduction - 1.0) * 100.0

    def freed_cycle_fraction(self) -> float:
        """Fraction of per-request host cycles the accelerator freed."""
        baseline_cost = self.baseline.host_cycles_per_request
        accelerated_cost = self.accelerated.host_cycles_per_request
        return 1.0 - accelerated_cost / baseline_cost


def ab_test(
    build_baseline: ServiceBuilder,
    build_accelerated: ServiceBuilder,
    config: Optional[SimulationConfig] = None,
) -> ABTestResult:
    """Run the baseline and accelerated variants under identical
    conditions and compare."""
    return ABTestResult(
        baseline=run_simulation(build_baseline, config),
        accelerated=run_simulation(build_accelerated, config),
    )


def model_error_percentage_points(
    estimated_speedup: float, measured_speedup_value: float
) -> float:
    """The paper's validation metric: |estimated - real| in percentage
    points of speedup (e.g. 15.7% estimated vs 14% real -> 1.7)."""
    return abs(estimated_speedup - measured_speedup_value) * 100.0
