"""Shared traced runs for the observability suite.

Traced simulations are the expensive part of these tests, so the suite
shares a few module-of-record runs: one healthy characterization and one
faulted resilience cell per threading design.  Session scope is safe
because every consumer treats the traces as read-only data.  The
builders that take a *tracer* run a fixed simulation under it and
return the finished trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.application.resilience import traced_resilience_run
from repro.characterization import characterize
from repro.core import Placement
from repro.core.strategies import ThreadingDesign
from repro.faults import (
    DegradationSchedule,
    DegradationWindow,
    FaultInjector,
    FaultPolicy,
)
from repro.simulator import (
    AcceleratorDevice,
    InterfaceModel,
    Microservice,
    OffloadConfig,
    SimulationConfig,
    run_simulation,
)
from repro.validation.matrix import synthetic_request
from repro.workloads import build_workload

DESIGNS = (
    ThreadingDesign.SYNC,
    ThreadingDesign.SYNC_OS,
    ThreadingDesign.ASYNC,
)

#: Faulted-cell parameters: enough drops to exercise every recovery
#: path (retries, backoff gaps, CPU fallbacks) in a short window.
FAULTED = dict(
    drop_probability=0.3,
    timeout_cycles=2_000.0,
    backoff_base_cycles=500.0,
    window_cycles=2.0e6,
    seed=0,
)


def healthy_characterization():
    """One healthy traced characterization (cache1, small window)."""
    return characterize(
        "cache1", seed=2020, requests_target=30, num_cores=2, trace=True
    )


def faulted_cells():
    """One traced faulted resilience cell per threading design."""
    return {
        design: traced_resilience_run(design=design, **FAULTED)
        for design in DESIGNS
    }


def cache1_trace(tracer):
    """cache1 on two cores over a 2e6-cycle window, seed 2020."""
    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=2.0e6)
    rng = np.random.default_rng(2020)

    def build(engine, cpu, metrics):
        service = Microservice(engine, cpu, metrics, name="cache1")
        return service, workload.request_factory(rng)

    result = run_simulation(build, config, tracer=tracer)
    assert result.trace is not None
    return result.trace


def topology_trace(tracer):
    """A two-service call graph: every request is an RPC span tree."""
    from repro.topology import (
        ApplicationSimConfig,
        Call,
        CallGraph,
        ServiceNode,
        simulate_application,
    )

    graph = CallGraph(
        [ServiceNode("front", 10_000.0), ServiceNode("leaf", 5_000.0)],
        [Call("front", "leaf", network_cycles=1_000.0)],
        root="front",
    )
    config = ApplicationSimConfig(
        cores_per_service=2, arrivals_per_unit=200, window_cycles=2.0e7,
    )
    return simulate_application(graph, config, tracer=tracer).trace


def busy_topology_trace(tracer):
    """A five-service call graph under load: about a hundred span trees
    three hops deep, with a scatter stage, a second stage, and one hop
    the window cuts off (its span stays open)."""
    from repro.topology import (
        ApplicationSimConfig,
        Call,
        CallGraph,
        ServiceNode,
        simulate_application,
    )

    graph = CallGraph(
        [
            ServiceNode("front", 20_000.0),
            ServiceNode("mid", 15_000.0),
            ServiceNode("cache", 4_000.0),
            ServiceNode("db", 30_000.0),
            ServiceNode("leaf", 8_000.0),
        ],
        [
            Call("front", "mid", network_cycles=2_000.0),
            Call("front", "cache", network_cycles=1_000.0),
            Call("front", "db", network_cycles=3_000.0, stage=1),
            Call("mid", "leaf", network_cycles=1_500.0),
        ],
        root="front",
    )
    config = ApplicationSimConfig(
        cores_per_service=2, arrivals_per_unit=5_000, window_cycles=2.0e7,
        seed=1,
    )
    return simulate_application(graph, config, tracer=tracer).trace


#: A 3x slowdown window, then a full outage, on the device and in the
#: fault stream alike.
DEGRADATION = DegradationSchedule((
    DegradationWindow(2.0e5, 6.0e5, 3.0),
    DegradationWindow(1.0e6, 1.2e6),
))


def degraded_run(tracer):
    """Sync offload with drops, retries and backoff to a device that
    degrades and then goes dark: the trace carries a degradation track."""
    factory, _ = synthetic_request(0.3)
    policy = FaultPolicy(
        drop_probability=0.05, timeout_cycles=2_000.0, max_retries=2,
        backoff_base_cycles=500.0,
    )

    def build(engine, cpu, metrics):
        offloads = {"k": OffloadConfig(
            device=AcceleratorDevice(
                engine, 8.0, servers=2, degradation=DEGRADATION
            ),
            interface=InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0),
            design=ThreadingDesign.SYNC,
            faults=FaultInjector(policy, seed=0, schedule=DEGRADATION),
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    return run_simulation(
        build, SimulationConfig(num_cores=2, window_cycles=2.0e6),
        tracer=tracer,
    )


def degraded_trace(tracer):
    """The finished trace of :func:`degraded_run`."""
    return degraded_run(tracer).trace


@pytest.fixture(scope="session")
def traced_run():
    return healthy_characterization()


@pytest.fixture(scope="session")
def healthy_trace(traced_run):
    trace = traced_run.simulation.trace
    assert trace is not None
    return trace


@pytest.fixture(scope="session")
def faulted_results():
    return faulted_cells()
