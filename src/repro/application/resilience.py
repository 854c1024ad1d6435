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
from typing import List, Optional, Sequence, Tuple

from ..core.resilience import degraded_speedup
from ..core.strategies import Placement, ThreadingDesign
from ..errors import ParameterError
from ..faults import FaultInjector, FaultPolicy
from ..paperdata.case_studies import ADS1_INFERENCE_STUDY
from ..runtime import RunSpec, execute_batch
from ..runtime.batch import BatchReport, CacheArg
from ..simulator import (
    AcceleratorDevice,
    InterfaceModel,
    Microservice,
    OffloadConfig,
    SimulationConfig,
    measured_speedup,
    run_simulation,
)
# The validation matrix's synthetic service, so fault-free resilience
# points land on validated territory.
from ..validation.matrix import KERNEL_CALLS, KERNEL_CYCLES, synthetic_request


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


def _builds(alpha: float, design: ThreadingDesign, policy: FaultPolicy,
            seed: int, accel_speedup: float, num_cores: int):
    factory, plain = synthetic_request(alpha)

    def build_baseline(engine, cpu, metrics):
        return Microservice(engine, cpu, metrics), factory

    def build_accelerated(engine, cpu, metrics):
        device = AcceleratorDevice(engine, accel_speedup, servers=num_cores)
        interface = InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0)
        offloads = {
            "k": OffloadConfig(
                device=device, interface=interface, design=design,
                faults=FaultInjector(policy, seed=seed),
            )
        }
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    return build_baseline, build_accelerated, plain


def run_resilience_point(
    drop_probability: float,
    timeout_cycles: float,
    design: ThreadingDesign = ThreadingDesign.SYNC,
    max_retries: int = 2,
    backoff_base_cycles: float = 0.0,
    alpha: float = 0.3,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 8.0e6,
    seed: int = 0,
) -> ResiliencePoint:
    """A/B-simulate one degraded cell and compare to the closed form.

    The accelerated build carries a seeded fault injector; the model side
    evaluates :func:`~repro.core.resilience.degraded_speedup` with the
    same scenario parameters (``Q = 0``: the device has one engine per
    core, so measured queueing is negligible by construction).
    """
    policy = FaultPolicy(
        drop_probability=drop_probability,
        timeout_cycles=timeout_cycles,
        max_retries=max_retries,
        backoff_base_cycles=backoff_base_cycles,
    )
    build_baseline, build_accelerated, plain = _builds(
        alpha, design, policy, seed, accel_speedup, num_cores
    )
    threads_per_core = 3 if design is ThreadingDesign.SYNC_OS else 1
    config = SimulationConfig(
        num_cores=num_cores, threads_per_core=threads_per_core,
        window_cycles=window_cycles,
    )
    baseline = run_simulation(build_baseline, config)
    accelerated = run_simulation(build_accelerated, config)
    summary = accelerated.summarize()
    totals = summary.metrics.fault_totals()

    request = plain + KERNEL_CYCLES
    model = degraded_speedup(
        design, policy,
        c=request, alpha=KERNEL_CYCLES / request, n=float(KERNEL_CALLS),
        o0=30.0, l=0.0, q=0.0, a=accel_speedup, o1=0.0,
    )
    return ResiliencePoint(
        design=design,
        drop_probability=drop_probability,
        timeout_cycles=timeout_cycles,
        max_retries=max_retries,
        model_speedup=model,
        simulated_speedup=measured_speedup(baseline, accelerated),
        retries=totals.retries,
        fallbacks=totals.fallbacks,
        goodput_fraction=summary.goodput_fraction,
    )


def traced_resilience_run(
    drop_probability: float,
    timeout_cycles: float,
    design: ThreadingDesign = ThreadingDesign.SYNC,
    max_retries: int = 2,
    backoff_base_cycles: float = 0.0,
    alpha: float = 0.3,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 8.0e6,
    seed: int = 0,
):
    """Re-run one resilience cell's *accelerated* build with a span tracer.

    :class:`ResiliencePoint` stays plain scalars (it must pickle into the
    result cache), so the traced run is a separate instrument: same
    builder, same seed, same fault stream, plus a
    :class:`~repro.observability.SpanTracer` whose finished trace shows
    each retry, backoff gap, and CPU fallback on the request timeline.
    Returns the live :class:`~repro.simulator.runner.SimulationResult`
    with ``result.trace`` populated.
    """
    from ..observability import SpanTracer

    policy = FaultPolicy(
        drop_probability=drop_probability,
        timeout_cycles=timeout_cycles,
        max_retries=max_retries,
        backoff_base_cycles=backoff_base_cycles,
    )
    _, build_accelerated, _ = _builds(
        alpha, design, policy, seed, accel_speedup, num_cores
    )
    threads_per_core = 3 if design is ThreadingDesign.SYNC_OS else 1
    config = SimulationConfig(
        num_cores=num_cores, threads_per_core=threads_per_core,
        window_cycles=window_cycles,
    )
    tracer = SpanTracer(label=f"resilience-{design.value}")
    return run_simulation(build_accelerated, config, tracer=tracer)


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

    Cells are independent ``resilience_point`` run specs, so they run in
    parallel workers and replay from the result cache like every other
    study in the repository.  *telemetry* (a
    :class:`~repro.observability.RuntimeTelemetry`) records the batch's
    own runtime span tree without touching specs or results.
    """
    if not drop_probabilities or not timeout_cycles:
        raise ParameterError("resilience grid axes must be non-empty")
    specs: List[RunSpec] = [
        RunSpec.create(
            "resilience_point",
            seed=seed,
            drop_probability=p,
            timeout_cycles=timeout,
            design=design,
            **point_kwargs,
        )
        for p in drop_probabilities
        for timeout in timeout_cycles
    ]
    points = execute_batch(
        specs, workers=workers, cache=cache, report=report,
        telemetry=telemetry,
    )
    return ResilienceGrid(points=tuple(points))


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
