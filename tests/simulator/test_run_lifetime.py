"""Every simulation frees its object graph when its run ends.

A run's engine, CPUs, threads and generator bodies reference one
another.  :func:`~repro.simulator.runner.run_window` releases them once
the result is built, so reference counting frees the whole graph as
soon as the call returns, with no help from the cyclic collector.  These
tests pause the collector around each call and then look for survivors
on the heap; they also pin that the collector's on/off state is the
caller's again afterwards, however the drain ended.
"""

from __future__ import annotations

import gc

import pytest

from repro.application.shared_device import run_shared_device_point
from repro.errors import SimulationError
from repro.simulator import CPU, SimThread, SimulationConfig, run_simulation
from repro.simulator import hotcore
from repro.simulator.service import Microservice
from repro.topology import (
    ApplicationSimConfig,
    default_application_graph,
    simulate_application,
)
from repro.validation.matrix import synthetic_request

#: The classes that make up a run's graph and must not outlive it.
GRAPH_TYPES = tuple(
    cls for cls in (SimThread, CPU, hotcore.PyEngine, hotcore.HotEngine)
    if cls is not None
)


def survivors(run) -> list:
    """Names of the graph objects *run* left alive, collector paused."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if isinstance(o, GRAPH_TYPES)}
        run()
        return sorted(
            type(o).__name__
            for o in gc.get_objects()
            if isinstance(o, GRAPH_TYPES) and id(o) not in before
        )
    finally:
        if enabled:
            gc.enable()


def build_synthetic(engine, cpu, metrics):
    return Microservice(engine, cpu, metrics), synthetic_request(0.3)[0]


def single_service(max_events: int = 20_000_000):
    run_simulation(
        build_synthetic,
        SimulationConfig(
            num_cores=2, window_cycles=1.0e6, max_events=max_events
        ),
    )


def single_service_tripping_the_guard():
    try:
        single_service(max_events=50)
    except SimulationError:
        return
    raise AssertionError("the max_events guard did not trip")


def shared_device():
    run_shared_device_point(
        tenants=2, batch_size=4, drop_probability=0.1, window_cycles=1.0e6
    )


def application():
    simulate_application(
        default_application_graph(),
        ApplicationSimConfig(
            cores_per_service=2, arrivals_per_unit=2_000, window_cycles=5.0e7
        ),
    )


@pytest.mark.parametrize(
    "run",
    [single_service, single_service_tripping_the_guard, shared_device,
     application],
    ids=["run_simulation", "run_simulation-max-events",
         "run_shared_device_point", "simulate_application"],
)
def test_run_leaves_no_graph_behind(run):
    assert survivors(run) == []


class TestCollectorState:
    """The collector is off for the drain and the caller's state after."""

    @staticmethod
    def states(enabled: bool, max_events: int = 20_000_000) -> list:
        """Run one small window with the collector on or off; return the
        state seen mid-drain, whether the guard tripped, and the state
        after the call."""
        seen = []

        def build(engine, cpu, metrics):
            engine.at(0.0, lambda: seen.append(gc.isenabled()))
            return build_synthetic(engine, cpu, metrics)

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                run_simulation(
                    build,
                    SimulationConfig(
                        num_cores=1, window_cycles=1.0e6,
                        max_events=max_events,
                    ),
                )
            except SimulationError:
                seen.append("raised")
            seen.append(gc.isenabled())
        finally:
            (gc.enable if was_enabled else gc.disable)()
        return seen

    def test_normal_return_re_enables(self):
        assert self.states(enabled=True) == [False, True]

    def test_max_events_raise_re_enables(self):
        assert self.states(enabled=True, max_events=50) == [
            False, "raised", True,
        ]

    def test_disabled_caller_stays_disabled(self):
        assert self.states(enabled=False) == [False, False]
