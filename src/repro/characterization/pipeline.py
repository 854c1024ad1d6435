"""End-to-end characterization pipeline.

``characterize(service)`` is the reproduction's equivalent of the paper's
Sec.-2.2 methodology: run the calibrated workload in the simulator at peak
load (closed loop, all cores busy), expand the measured cycle attribution
into Strobelight-style call traces, tag and bucket them, and return both
the raw simulator measurements and the aggregated
:class:`~repro.profiling.profiler.ExecutionProfile`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..observability import SpanTracer
from ..profiling import (
    ExecutionProfile,
    IPCModel,
    StackSampler,
    capture_trace_profile,
)
from ..runtime import RunSpec, execute_batch
from ..runtime.batch import BatchReport, CacheArg
from ..simulator import RunSummary, SimulationConfig, run_simulation
from ..simulator.service import Microservice
from ..workloads import ServiceWorkload, build_workload


@dataclasses.dataclass
class CharacterizationRun:
    """One characterized service: simulation summary plus profile.

    ``simulation`` is a detached :class:`RunSummary` (picklable), so
    characterizations can be produced by worker processes and cached.
    """

    workload: ServiceWorkload
    simulation: RunSummary
    profile: ExecutionProfile

    @property
    def service(self) -> str:
        return self.workload.name


def characterize(
    service: str,
    platform: str = "GenC",
    num_cores: int = 4,
    window_cycles: Optional[float] = None,
    seed: int = 2020,
    requests_target: int = 400,
    trace: Optional[bool] = None,
) -> CharacterizationRun:
    """Characterize one service on one platform.

    The default window is sized so roughly *requests_target* requests
    complete per core -- enough for the Poisson kernel sampling to settle
    near its calibrated means without making us-scale services slow to
    simulate.

    *trace* attaches a :class:`~repro.observability.SpanTracer`; the
    finished :class:`~repro.observability.TraceData` rides on
    ``run.simulation.trace``.  Tracing changes no simulated-time
    measurement and no fingerprint (the zero-observer-effect tests pin
    this), but note that ``trace=None`` and ``trace=False`` hash to the
    *same* cache key as the parameter being absent, while ``trace=True``
    keys a distinct (trace-carrying) cache entry.
    """
    workload = build_workload(service)
    if window_cycles is None:
        window_cycles = workload.request_cycles * requests_target
    rng = np.random.default_rng(seed)

    def build(engine, cpu, metrics):
        microservice = Microservice(engine, cpu, metrics, name=service)
        return microservice, workload.request_factory(rng)

    config = SimulationConfig(
        num_cores=num_cores, threads_per_core=1, window_cycles=window_cycles
    )
    tracer = SpanTracer(label=service) if trace else None
    summary = run_simulation(build, config, tracer=tracer)
    ipc_model = IPCModel(platform=platform)
    sampler = StackSampler(workload.trace_templates())
    profile = capture_trace_profile(
        summary.metrics, sampler, ipc_model, service=service
    )
    return CharacterizationRun(
        workload=workload, simulation=summary, profile=profile
    )


def characterize_all(
    services=None,
    platform: str = "GenC",
    seed: int = 2020,
    workers: int = 1,
    cache: CacheArg = None,
    report: Optional[BatchReport] = None,
    trace: bool = False,
    telemetry=None,
    **kwargs,
) -> Dict[str, CharacterizationRun]:
    """Characterize several services (default: the seven of Fig. 9).

    Runs go through the batch executor: *workers* > 1 characterizes
    services in parallel processes, and *cache* serves previously
    simulated (service, platform, seed, ...) combinations from disk.

    With *trace* the per-service runs carry span tracers.  A disabled
    trace is passed as ``None`` so :meth:`RunSpec.create` drops it and
    untraced cache keys stay byte-identical to pre-observability keys.
    *telemetry* (a :class:`~repro.observability.RuntimeTelemetry`)
    records the runtime-level span tree of the batch itself; it rides
    outside the specs, so cache keys and results are unaffected.
    """
    from ..paperdata.breakdowns import FB_SERVICES

    services = tuple(services or FB_SERVICES)
    specs = [
        RunSpec.create(
            "characterize",
            seed=seed + i,
            service=service,
            platform=platform,
            trace=True if trace else None,
            **kwargs,
        )
        for i, service in enumerate(services)
    ]
    runs = execute_batch(
        specs, workers=workers, cache=cache, report=report,
        telemetry=telemetry,
    )
    return dict(zip(services, runs))
