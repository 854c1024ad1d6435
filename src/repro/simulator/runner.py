"""Top-level simulation runner.

:func:`run_simulation` wires an :class:`Engine`, :class:`MetricSink`,
:class:`CPU`, and a caller-built :class:`Microservice` together, runs a
fixed measurement window, and returns a :class:`RunSummary` with
throughput, latency, and cycle-attribution measurements -- the simulated
equivalent of one production measurement interval.  The live engine, CPU
and service stay inside the call, so the result pickles as it is.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

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
    :class:`RunSummary`.

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
    engine.run_until(config.window_cycles, max_events=config.max_events)
    cpu.finalize(config.window_cycles)
    return RunSummary(
        config=config,
        metrics=metrics,
        events_processed=engine.events_processed,
        trace=tracer.finish() if tracer is not None else None,
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
