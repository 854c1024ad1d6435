"""Top-level simulation runner.

:func:`run_simulation` wires an :class:`Engine`, :class:`MetricSink`,
:class:`CPU`, and a caller-built :class:`Microservice` together, runs a
fixed measurement window, and returns a :class:`RunSummary` with
throughput, latency, and cycle-attribution measurements -- the simulated
equivalent of one production measurement interval.  The live engine, CPU
and service stay inside the call, so the result pickles as it is.

:func:`run_window` owns the lifetime of every simulation's object graph:
the single-service runner, the shared-device study and the application
simulator all drain through it.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Callable, Optional, Sequence, Tuple, TypeVar

from ..errors import ParameterError
from .cpu import CPU
from .engine import Engine
from .metrics import MetricSink
from .service import Microservice, RequestSpec
from .summary import RunSummary


@dataclasses.dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs for one simulation run."""

    #: Logical cores on the host.
    num_cores: int = 4

    #: Worker threads per core (1 = the paper's Sync scenario; >= 2 gives
    #: the over-subscription Sync-OS relies on).
    threads_per_core: int = 1

    #: Measurement window in host cycles.
    window_cycles: float = 50.0e6

    #: Guard against runaway zero-delay loops.
    max_events: int = 20_000_000

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ParameterError("num_cores must be >= 1")
        if self.threads_per_core < 1:
            raise ParameterError("threads_per_core must be >= 1")
        if self.window_cycles <= 0:
            raise ParameterError("window_cycles must be > 0")


ServiceBuilder = Callable[[Engine, CPU, MetricSink], Tuple[Microservice, Callable[[], RequestSpec]]]

T = TypeVar("T")


def run_window(
    engine: Engine,
    cpus: Sequence[CPU],
    horizon: float,
    collect: Callable[[], T],
    max_events: Optional[int] = None,
) -> T:
    """Drain *engine* to *horizon*, close each CPU's accounting at the
    horizon, return ``collect()``, then free the run's object graph.

    *collect* builds the run's detached result (and finishes its tracer,
    if any).  Whether it returns or anything before it raises -- a
    ``max_events`` guard tripping included -- every CPU is released and
    the engine's pending events are dropped, so the engine, CPUs,
    threads and generator bodies form no reference cycle and reference
    counting frees them once the caller lets go.  The cyclic collector
    is paused for the drain only (the simulation allocates a lot and
    frees it by reference counting, so collections there re-walk the
    live heap for nothing) and re-enabled only if it was on.
    """
    try:
        enabled = gc.isenabled()
        gc.disable()
        try:
            engine.run_until(horizon, max_events=max_events)
        finally:
            if enabled:
                gc.enable()
        for cpu in cpus:
            cpu.finalize(horizon)
        return collect()
    finally:
        for cpu in cpus:
            cpu.release()
        engine.drop_pending()


def run_simulation(
    build: ServiceBuilder,
    config: Optional[SimulationConfig] = None,
    tracer=None,
) -> RunSummary:
    """Run one closed-loop measurement window.

    *build* receives the fresh engine/cpu/metrics and returns the
    configured :class:`Microservice` plus a request factory; the runner
    spawns ``num_cores * threads_per_core`` closed-loop workers, runs the
    window, finalizes accounting, and returns the run's
    :class:`RunSummary`.  The summary keeps the config, the metric sink,
    the event count and the trace; the engine, CPU, service and threads
    are released before it is returned (see :func:`run_window`), also
    when the ``max_events`` guard raises.

    *tracer* is an optional :class:`~repro.observability.SpanTracer`.  It
    is deliberately **not** part of :class:`SimulationConfig`: the config
    participates in cache keys and summary fingerprints, and observability
    must never move either.  A traced run records spans and per-request
    timelines (attached as ``result.trace``) but is bit-identical to the
    untraced run in every simulated-time measurement -- the tracer only
    observes, it never schedules events or consumes entropy.
    """
    from .workload import request_stream

    config = config or SimulationConfig()
    engine = Engine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, config.num_cores)
    service, factory = build(engine, cpu, metrics)
    if tracer is not None:
        cpu.trace = tracer
        service.tracer = tracer
    workers = config.num_cores * config.threads_per_core
    for index in range(workers):
        service.spawn_worker(request_stream(factory), name=f"worker-{index}")
    return run_window(
        engine,
        (cpu,),
        config.window_cycles,
        lambda: RunSummary(
            config=config,
            metrics=metrics,
            events_processed=engine.events_processed,
            trace=tracer.finish() if tracer is not None else None,
        ),
        max_events=config.max_events,
    )


def measured_speedup(
    baseline: RunSummary, accelerated: RunSummary
) -> float:
    """A/B throughput speedup: accelerated over baseline."""
    if baseline.throughput == 0:
        raise ParameterError("baseline run completed no requests")
    return accelerated.throughput / baseline.throughput


def measured_latency_reduction(
    baseline: RunSummary, accelerated: RunSummary
) -> float:
    """A/B mean-latency reduction (baseline latency over accelerated)."""
    return baseline.mean_latency_cycles / accelerated.mean_latency_cycles
