"""Discrete-event simulation of a whole application call graph.

The analytical :class:`CallGraph` computes critical-path latency under
zero contention; this module runs the same topology on the DES substrate
-- one multi-core host per service, RPC fan-out with network delays,
open-loop arrivals at the root -- so the analytical number can be
cross-checked at low load and *queueing effects measured* at high load
(per-service saturation inflating end-to-end tails).

Modelling choices:

* Callers issue a stage's RPCs concurrently and park (``ReleaseCore``)
  until the slowest response returns -- event-driven scatter-gather, so a
  waiting caller never holds a core.
* Each service's compute is a single attributed segment (this layer
  validates topology, not intra-service breakdowns -- the single-service
  simulator does that).
* Network delay is deterministic per edge, paid each way.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import ParameterError, SimulationError
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import CPU, BlockSampler, Compute, Engine, MetricSink, ReleaseCore
from ..simulator.runner import run_window
from .graph import CallGraph


@dataclasses.dataclass(frozen=True)
class ApplicationSimConfig:
    """Knobs for one application-level simulation."""

    cores_per_service: int = 2
    #: Root request arrivals per time unit (1e9 cycles).
    arrivals_per_unit: float = 5_000.0
    window_cycles: float = 5.0e7
    seed: int = 21

    def __post_init__(self) -> None:
        if self.cores_per_service < 1:
            raise ParameterError("cores_per_service must be >= 1")
        if self.arrivals_per_unit <= 0:
            raise ParameterError("arrivals_per_unit must be positive")
        if self.window_cycles <= 0:
            raise ParameterError("window_cycles must be positive")


@dataclasses.dataclass
class ApplicationSimResult:
    """Measurements from one application simulation."""

    completed_requests: int
    mean_latency_cycles: float
    p99_latency_cycles: float
    per_service_busy_fraction: Dict[str, float]
    #: :class:`~repro.observability.TraceData` of RPC spans when the
    #: simulation carried a tracer; None otherwise (and always None for
    #: batch-executed scenarios, which must stay plain picklable data).
    trace: Optional[object] = None

    def utilization(self, service: str) -> float:
        return self.per_service_busy_fraction[service]


class _ServiceHost:
    """One service's host: a CPU plus an RPC entry point."""

    def __init__(
        self,
        engine: Engine,
        graph: CallGraph,
        name: str,
        cores: int,
        latency_scale: Dict[str, float],
        extra_delay: Dict[str, float],
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.name = name
        self.metrics = MetricSink()
        self.cpu = CPU(engine, self.metrics, cores)
        self._latency_scale = latency_scale
        self._extra_delay = extra_delay
        #: Shared :class:`~repro.observability.SpanTracer`; None when the
        #: simulation runs unobserved.
        self.tracer = None

    def handle_rpc(
        self,
        hosts: Dict[str, "_ServiceHost"],
        on_complete: Callable[[], None],
        parent=None,
    ) -> None:
        """Process one inbound request; *on_complete* fires when this
        service (and its downstream subtree) is done.

        *hosts* maps every service name to its host.  It travels with
        the request instead of living on each host, so hosts never
        reference one another and a finished simulation holds no cycle.
        *parent* is the caller's RPC span (or None at the root), so the
        trace reconstructs the causal call tree across service hops.
        """
        span = None
        tracer = self.tracer
        if tracer is not None:
            span = tracer.begin_rpc(self.name, parent, self.engine.now)
            inner = on_complete

            def on_complete(span=span, inner=inner):
                tracer.end_span(span, self.engine.now)
                inner()

        def factory(thread):
            return self._request_body(thread, hosts, on_complete, span)

        self.cpu.spawn(factory, name=f"{self.name}-rpc")

    def _request_body(
        self,
        thread,
        hosts: Dict[str, "_ServiceHost"],
        on_complete: Callable[[], None],
        span=None,
    ):
        node = self.graph.service(self.name)
        compute = node.service_cycles / self._latency_scale.get(self.name, 1.0)
        compute += self._extra_delay.get(self.name, 0.0)
        if compute > 0:
            yield Compute(compute, F.APPLICATION_LOGIC, L.MISCELLANEOUS)
        # Downstream stages: scatter within a stage, gather, next stage.
        stages: Dict[int, List] = {}
        for call in self.graph.calls_from(self.name):
            stages.setdefault(call.stage, []).append(call)
        for _, calls in sorted(stages.items()):
            pending = {"count": len(calls), "parked": False}

            def branch_done() -> None:
                pending["count"] -= 1
                if pending["count"] == 0 and pending["parked"]:
                    pending["parked"] = False
                    self.cpu.resume(thread)

            for call in calls:
                callee_host = hosts[call.callee]
                network = call.network_cycles

                def launch(callee_host=callee_host, network=network) -> None:
                    self.engine.after(
                        network,
                        lambda: callee_host.handle_rpc(
                            hosts,
                            lambda: self.engine.after(network, branch_done),
                            span,
                        ),
                    )

                launch()
            if pending["count"] > 0:
                pending["parked"] = True
                yield ReleaseCore()
        on_complete()


class ApplicationSimulation:
    """Runs a call graph end to end on the DES substrate."""

    def __init__(
        self,
        graph: CallGraph,
        config: Optional[ApplicationSimConfig] = None,
        latency_scale: Optional[Dict[str, float]] = None,
        extra_delay: Optional[Dict[str, float]] = None,
        tracer=None,
    ) -> None:
        self.graph = graph
        self.config = config or ApplicationSimConfig()
        self.engine = Engine()
        self.tracer = tracer
        latency_scale = dict(latency_scale or {})
        extra_delay = dict(extra_delay or {})
        for mapping in (latency_scale, extra_delay):
            for name in mapping:
                graph.service(name)  # validate
        self._hosts: Dict[str, _ServiceHost] = {
            node.name: _ServiceHost(
                self.engine, graph, node.name, self.config.cores_per_service,
                latency_scale, extra_delay,
            )
            for node in graph.services
        }
        for host in self._hosts.values():
            host.tracer = tracer
        self._latencies: List[float] = []

    def run(self) -> ApplicationSimResult:
        """Run the window once; the hosts' CPUs are released afterwards."""
        rng = np.random.default_rng(self.config.seed)
        mean_gap = 1.0e9 / self.config.arrivals_per_unit
        # Stream-identical pre-sampling: the arrival process owns every
        # draw on this generator.
        gaps = BlockSampler(
            lambda n: rng.exponential(mean_gap, size=n), block_size=256
        )
        self.engine.at(
            gaps.next(),
            functools.partial(self._arrive, self._hosts[self.graph.root], gaps),
        )
        return run_window(
            self.engine,
            [host.cpu for host in self._hosts.values()],
            self.config.window_cycles,
            self._result,
        )

    def _arrive(self, root: _ServiceHost, gaps: BlockSampler) -> None:
        """One root arrival; schedules the next while it is in the window.

        A fresh partial per arrival, not a self-scheduling closure: a
        closure that names itself is a cycle that outlives the run.
        """
        started = self.engine.now
        root.handle_rpc(
            self._hosts,
            lambda: self._latencies.append(self.engine.now - started),
        )
        gap = gaps.next()
        if self.engine.now + gap <= self.config.window_cycles:
            self.engine.after(
                gap, functools.partial(self._arrive, root, gaps)
            )

    def _result(self) -> ApplicationSimResult:
        config = self.config
        if not self._latencies:
            raise SimulationError("no requests completed in the window")
        latencies = sorted(self._latencies)
        index_p99 = min(len(latencies) - 1, round(0.99 * (len(latencies) - 1)))
        busy = {
            name: host.metrics.busy_cycles()
            / (config.window_cycles * config.cores_per_service)
            for name, host in self._hosts.items()
        }
        trace = None
        if self.tracer is not None:
            trace = self.tracer.finish()
        return ApplicationSimResult(
            completed_requests=len(latencies),
            mean_latency_cycles=sum(latencies) / len(latencies),
            p99_latency_cycles=latencies[index_p99],
            per_service_busy_fraction=busy,
            trace=trace,
        )


def simulate_application(
    graph: CallGraph,
    config: Optional[ApplicationSimConfig] = None,
    latency_scale: Optional[Dict[str, float]] = None,
    extra_delay: Optional[Dict[str, float]] = None,
    tracer=None,
) -> ApplicationSimResult:
    """Convenience wrapper: build and run one application simulation."""
    return ApplicationSimulation(
        graph, config, latency_scale, extra_delay, tracer=tracer
    ).run()
