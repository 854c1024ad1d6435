"""A/B testing harness (the ODS-based methodology of Sec. 4).

The paper measures real speedup by comparing the throughput of two
identical servers that differ only in whether they accelerate the kernel.
Here the two "servers" are two simulator runs with identical
configuration, workload, and random seed, differing only in the offload
configuration -- the same single-variable experiment.

Two entry points run the two sides:

* :func:`ab_batch` -- each side is a :class:`~repro.runtime.RunSpec`, and
  every pair runs in one :func:`~repro.runtime.execute_batch` call, so
  the pairs that share a baseline spec share its one simulation (and its
  one cache entry).  The validation matrix and the resilience and
  shared-device studies run their A/B cells this way.
* :func:`ab_test` -- each side is a service builder run in this process;
  the Table-6 case studies, whose two sides are distinct and whose
  breakdown shifts need the full :class:`RunSummary`, run this way.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ParameterError
from ..runtime import RunSpec, execute_batch
from ..simulator import (
    RunSummary,
    SimulationConfig,
    measured_latency_reduction,
    measured_speedup,
    run_simulation,
)
from ..simulator.runner import ServiceBuilder


class RunCounts(NamedTuple):
    """The counts an A/B comparison reads from one run.

    A few hundred bytes pickled, where the run's :class:`RunSummary` is
    tens to hundreds of kilobytes: the spec runners of :func:`ab_batch`
    return this, so their cache entries stay small and fast to replay.
    """

    completed_requests: int
    window_cycles: float
    retries: int = 0
    fallbacks: int = 0
    degraded_requests: int = 0

    @classmethod
    def of(cls, summary: RunSummary) -> "RunCounts":
        totals = summary.metrics.fault_totals()
        return cls(
            completed_requests=summary.completed_requests,
            window_cycles=summary.config.window_cycles,
            retries=totals.retries,
            fallbacks=totals.fallbacks,
            degraded_requests=summary.degraded_requests,
        )

    @property
    def throughput(self) -> float:
        """Requests completed per window cycle."""
        return self.completed_requests / self.window_cycles

    @property
    def goodput_fraction(self) -> float:
        """Share of completed requests that were not degraded."""
        completed = self.completed_requests
        if completed == 0:
            raise ParameterError("no completed requests in the window")
        return (completed - self.degraded_requests) / completed


@dataclasses.dataclass
class ABTestResult:
    """Outcome of one A/B experiment.

    Holds detached measurements (not live simulator graphs) so A/B
    results can cross process boundaries and live in the runtime's result
    cache: :class:`RunSummary` from :func:`ab_test`, and whatever the two
    specs' runners return from :func:`ab_batch` (:class:`RunCounts` for
    single-service runs).  :attr:`speedup` needs a ``throughput`` on both
    sides; the latency and freed-cycle views need :class:`RunSummary`.
    """

    baseline: Any
    accelerated: Any

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


def ab_batch(
    pairs: Sequence[Tuple[RunSpec, RunSpec]],
    **executor_kwargs: Any,
) -> List[ABTestResult]:
    """Run every ``(baseline, accelerated)`` spec pair in one batch.

    The batch holds each pair's two specs in pair order, so equal
    baseline specs are executed (or replayed from the cache) once and
    every first occurrence runs in the order the pairs list it.
    *executor_kwargs* go to :func:`~repro.runtime.execute_batch`
    (``workers``, ``cache``, ``report``, ``telemetry``).
    """
    results = execute_batch(
        [spec for pair in pairs for spec in pair], **executor_kwargs
    )
    return [
        ABTestResult(baseline=baseline, accelerated=accelerated)
        for baseline, accelerated in zip(results[0::2], results[1::2])
    ]
