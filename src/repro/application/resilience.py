"""Degraded-mode resilience study: how offload speedups erode under faults.

The paper's Sec.-4 case studies assume the accelerator path is healthy.
This study asks the follow-on operational question: *how quickly does an
offload's benefit erode when dispatches start failing?*  Two instruments:

* :func:`run_resilience_point` / :func:`resilience_grid` -- A/B simulator
  experiments (matrix-style synthetic service) with a seeded
  :class:`~repro.faults.FaultInjector` on the accelerated build, compared
  against the closed-form degraded equations of
  :mod:`repro.core.resilience`.  The grid is the quantitative proof that
  the expected-cost-under-failure algebra describes the simulated world.

* :func:`ads1_resilience_sweep` -- the model applied to the paper's Ads1
  remote-inference case study (Table 6): the published 72.39% speedup as
  a function of remote-link failure rate and timeout, showing where the
  remote offload stops paying for itself.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Sequence, Tuple

from ..core.resilience import degraded_speedup
from ..core.strategies import Placement, ThreadingDesign
from ..errors import ParameterError
from ..faults import FaultInjector, FaultPolicy
from ..paperdata.case_studies import ADS1_INFERENCE_STUDY
from ..runtime import RunSpec
from ..runtime.batch import BatchReport, CacheArg
from ..simulator import (
    AcceleratorDevice,
    InterfaceModel,
    OffloadConfig,
    ResponseHandler,
    RunSummary,
)
from ..validation.abtest import ABTestResult, ab_batch
# The validation matrix's synthetic service and baseline, so fault-free
# resilience points land on validated territory.
from ..validation.matrix import (
    KERNEL_CALLS,
    KERNEL_CYCLES,
    baseline_spec,
    run_synthetic,
    threads_per_core_of,
)


@dataclasses.dataclass(frozen=True)
class ResiliencePoint:
    """One (failure-rate, timeout) cell: simulated vs closed-form."""

    design: ThreadingDesign
    drop_probability: float
    timeout_cycles: float
    max_retries: int
    model_speedup: float
    simulated_speedup: float
    retries: int
    fallbacks: int
    goodput_fraction: float

    @property
    def error_pct(self) -> float:
        """Relative model-vs-simulation error of the speedup factor."""
        return abs(self.model_speedup - self.simulated_speedup) / self.model_speedup * 100.0

    @property
    def model_speedup_pct(self) -> float:
        return (self.model_speedup - 1.0) * 100.0

    @property
    def simulated_speedup_pct(self) -> float:
        return (self.simulated_speedup - 1.0) * 100.0


class ResilienceCell(NamedTuple):
    """The arguments of one degraded cell: every :class:`FaultPolicy`
    field, by name, and the synthetic service the faults hit."""

    drop_probability: float
    timeout_cycles: float
    design: ThreadingDesign = ThreadingDesign.SYNC
    max_retries: int = 2
    backoff_base_cycles: float = 0.0
    alpha: float = 0.3
    accel_speedup: float = 8.0
    num_cores: int = 2
    window_cycles: float = 8.0e6
    seed: int = 0
    spike_probability: float = 0.0
    spike_cycles: float = 0.0
    backoff_multiplier: float = 2.0
    fallback_to_cpu: bool = True

    def policy(self) -> FaultPolicy:
        return FaultPolicy(**{
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(FaultPolicy)
        })

    def specs(self) -> Tuple[RunSpec, RunSpec]:
        """The cell's ``(baseline, accelerated)`` spec pair: the
        validation matrix's fault-free baseline, shared by every cell of
        one (alpha, design), and the faulty run with the whole policy
        and the injector seed."""
        return (
            baseline_spec(
                self.alpha, self.num_cores, threads_per_core_of(self.design),
                self.window_cycles,
            ),
            RunSpec.create(
                "resilience_accelerated", seed=self.seed, design=self.design,
                policy=self.policy(), alpha=self.alpha,
                accel_speedup=self.accel_speedup, num_cores=self.num_cores,
                window_cycles=self.window_cycles,
            ),
        )


def run_resilience_accelerated(
    design: ThreadingDesign,
    policy: FaultPolicy,
    alpha: float,
    accel_speedup: float,
    num_cores: int,
    window_cycles: float,
    seed: int,
    tracer=None,
) -> RunSummary:
    """A cell's accelerated run (the ``resilience_accelerated`` runner):
    the synthetic service offloading to a device behind a fault injector
    seeded with *seed*.  The async-distinct-thread design's response
    handler switches threads for free (``o1 = 0``), as the model side
    of :func:`run_resilience_point` assumes."""

    def offload(engine, cpu):
        return OffloadConfig(
            device=AcceleratorDevice(engine, accel_speedup, servers=num_cores),
            interface=InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0),
            design=design,
            faults=FaultInjector(policy, seed=seed),
            response_handler=(
                ResponseHandler(cpu, 0.0)
                if design is ThreadingDesign.ASYNC_DISTINCT_THREAD
                else None
            ),
        )

    return run_synthetic(
        alpha, num_cores, threads_per_core_of(design), window_cycles,
        offload, tracer,
    )


def run_resilience_point(
    drop_probability: float,
    timeout_cycles: float,
    *,
    ab: Optional[ABTestResult] = None,
    **cell_kwargs,
) -> ResiliencePoint:
    """A/B-simulate one degraded cell and compare to the closed form.

    Takes the fields of :class:`ResilienceCell`.  The accelerated build
    carries a seeded fault injector whose policy takes every fault
    argument; the model side evaluates
    :func:`~repro.core.resilience.degraded_speedup` with the same
    scenario parameters (``Q = 0``: the device has one engine per core,
    so measured queueing is negligible by construction).  *ab* is the
    cell's A/B result when the caller has already run the cell's specs
    (:func:`resilience_grid` runs every cell's pair in one batch); by
    default the pair runs here.
    """
    cell = ResilienceCell(drop_probability, timeout_cycles, **cell_kwargs)
    if ab is None:
        (ab,) = ab_batch([cell.specs()])
    request = KERNEL_CYCLES * (1.0 - cell.alpha) / cell.alpha + KERNEL_CYCLES
    model = degraded_speedup(
        cell.design, cell.policy(),
        c=request, alpha=KERNEL_CYCLES / request, n=float(KERNEL_CALLS),
        o0=30.0, l=0.0, q=0.0, a=cell.accel_speedup, o1=0.0,
    )
    return ResiliencePoint(
        design=cell.design,
        drop_probability=drop_probability,
        timeout_cycles=timeout_cycles,
        max_retries=cell.max_retries,
        model_speedup=model,
        simulated_speedup=ab.speedup,
        retries=ab.accelerated.retries,
        fallbacks=ab.accelerated.fallbacks,
        goodput_fraction=ab.accelerated.goodput_fraction,
    )


def traced_resilience_run(
    drop_probability: float, timeout_cycles: float, **cell_kwargs
) -> RunSummary:
    """Re-run one resilience cell's *accelerated* build with a span tracer.

    :class:`ResiliencePoint` stays plain scalars (it must pickle into the
    result cache), so the traced run is a separate instrument: the
    accelerated spec of the same :class:`ResilienceCell` (same builder,
    seed and fault stream as :func:`run_resilience_point`), plus a
    :class:`~repro.observability.SpanTracer` whose finished trace shows
    each retry, backoff gap, and CPU fallback on the request timeline.
    Returns the run's :class:`~repro.simulator.summary.RunSummary` with
    ``summary.trace`` populated.
    """
    from ..observability import SpanTracer

    cell = ResilienceCell(drop_probability, timeout_cycles, **cell_kwargs)
    _, accelerated = cell.specs()
    return run_resilience_accelerated(
        seed=accelerated.seed,
        tracer=SpanTracer(label=f"resilience-{cell.design.value}"),
        **accelerated.params_dict(),
    )


@dataclasses.dataclass(frozen=True)
class ResilienceGrid:
    """All cells of a failure-rate x timeout sweep."""

    points: Tuple[ResiliencePoint, ...]

    @property
    def max_error_pct(self) -> float:
        return max(point.error_pct for point in self.points)

    @property
    def mean_error_pct(self) -> float:
        return sum(point.error_pct for point in self.points) / len(self.points)

    def worst_point(self) -> ResiliencePoint:
        return max(self.points, key=lambda point: point.error_pct)


def resilience_grid(
    drop_probabilities: Sequence[float] = (0.05, 0.1, 0.2),
    timeout_cycles: Sequence[float] = (1_000.0, 4_000.0, 8_000.0),
    design: ThreadingDesign = ThreadingDesign.SYNC,
    seed: int = 0,
    workers: int = 1,
    cache: CacheArg = None,
    report: BatchReport = None,
    telemetry=None,
    **point_kwargs,
) -> ResilienceGrid:
    """Sweep the (failure-rate, timeout) grid through the batch executor.

    Every cell's baseline and accelerated specs run in one batch, so the
    cells share their one fault-free baseline, the accelerated runs go
    to parallel workers, and all of them replay from the result cache
    like every other study in the repository.  *telemetry* (a
    :class:`~repro.observability.RuntimeTelemetry`) records the batch's
    own runtime span tree without touching specs or results.
    """
    if not drop_probabilities or not timeout_cycles:
        raise ParameterError("resilience grid axes must be non-empty")
    cells = [
        ResilienceCell(p, timeout, design=design, seed=seed, **point_kwargs)
        for p in drop_probabilities
        for timeout in timeout_cycles
    ]
    results = ab_batch(
        [cell.specs() for cell in cells], workers=workers, cache=cache,
        report=report, telemetry=telemetry,
    )
    return ResilienceGrid(points=tuple(
        run_resilience_point(ab=ab, **cell._asdict())
        for cell, ab in zip(cells, results)
    ))


# ---------------------------------------------------------------------------
# Ads1 remote-inference erosion sweep (model-only)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Ads1ResiliencePoint:
    """Degraded Ads1 remote-inference projection for one fault regime."""

    drop_probability: float
    timeout_cycles: float
    degraded_speedup_pct: float
    healthy_speedup_pct: float

    @property
    def erosion_pp(self) -> float:
        """Speedup percentage points the fault regime costs."""
        return self.healthy_speedup_pct - self.degraded_speedup_pct


def ads1_resilience_sweep(
    drop_probabilities: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    timeout_cycles: Sequence[float] = (2.5e7, 1.0e8),
    max_retries: int = 2,
    fallback_to_cpu: bool = True,
) -> Tuple[Ads1ResiliencePoint, ...]:
    """Model how Table 6's Ads1 remote speedup erodes under link faults.

    Uses the published parameters of the remote-inference case study
    (``alpha = 0.52``, ``n = 10``, ``o0 = 25M`` cycles, one ``o1`` per
    offload) and the degraded async-distinct-thread equation.  With a
    zero failure rate this reproduces the healthy 72.39% estimate; as the
    drop rate and timeout grow, retries re-pay the 25M-cycle dispatch and
    fallbacks re-run the 52%-of-C inference on the host, eroding -- and
    eventually inverting -- the speedup.
    """
    record = ADS1_INFERENCE_STUDY
    healthy = degraded_speedup(
        record.design, FaultPolicy(),
        c=record.total_cycles, alpha=record.alpha,
        n=record.offloads_per_unit, o0=record.dispatch_cycles,
        l=record.interface_cycles, q=record.queue_cycles,
        a=record.peak_speedup, o1=record.thread_switch_cycles,
    )
    points = []
    for timeout in timeout_cycles:
        for p in drop_probabilities:
            policy = FaultPolicy(
                drop_probability=p,
                timeout_cycles=timeout,
                max_retries=max_retries,
                fallback_to_cpu=fallback_to_cpu,
            )
            degraded = degraded_speedup(
                record.design, policy,
                c=record.total_cycles, alpha=record.alpha,
                n=record.offloads_per_unit, o0=record.dispatch_cycles,
                l=record.interface_cycles, q=record.queue_cycles,
                a=record.peak_speedup, o1=record.thread_switch_cycles,
            )
            points.append(Ads1ResiliencePoint(
                drop_probability=p,
                timeout_cycles=timeout,
                degraded_speedup_pct=(degraded - 1.0) * 100.0,
                healthy_speedup_pct=(healthy - 1.0) * 100.0,
            ))
    return tuple(points)
