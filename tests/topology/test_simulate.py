"""Tests for the DES-backed application simulation."""

import pytest

from repro.errors import ParameterError, SimulationError
from repro.topology import (
    ApplicationSimConfig,
    Call,
    CallGraph,
    ServiceNode,
    default_application_graph,
    simulate_application,
)

LOW_LOAD = ApplicationSimConfig(
    cores_per_service=4, arrivals_per_unit=300, window_cycles=6.0e7
)


def small_graph():
    services = [
        ServiceNode("front", 10_000.0),
        ServiceNode("mid", 20_000.0),
        ServiceNode("leaf", 5_000.0),
    ]
    calls = [
        Call("front", "mid", network_cycles=1_000.0),
        Call("mid", "leaf", network_cycles=1_000.0),
    ]
    return CallGraph(services, calls, root="front")


class TestLowLoadAgreement:
    def test_matches_analytical_latency_exactly(self):
        graph = small_graph()
        result = simulate_application(graph, LOW_LOAD)
        assert result.mean_latency_cycles == pytest.approx(
            graph.end_to_end_latency(), rel=1e-6
        )

    def test_default_graph_matches_analytical(self):
        graph = default_application_graph()
        result = simulate_application(
            graph,
            ApplicationSimConfig(cores_per_service=4, arrivals_per_unit=200,
                                 window_cycles=1.0e8),
        )
        assert result.mean_latency_cycles == pytest.approx(
            graph.end_to_end_latency(), rel=1e-6
        )

    def test_latency_scale_applies(self):
        graph = small_graph()
        scaled = simulate_application(
            graph, LOW_LOAD, latency_scale={"mid": 2.0}
        )
        expected = graph.end_to_end_latency(latency_scale={"mid": 2.0})
        assert scaled.mean_latency_cycles == pytest.approx(expected, rel=1e-6)

    def test_extra_delay_applies(self):
        graph = small_graph()
        delayed = simulate_application(
            graph, LOW_LOAD, extra_delay={"leaf": 7_000.0}
        )
        expected = graph.end_to_end_latency(extra_delay={"leaf": 7_000.0})
        assert delayed.mean_latency_cycles == pytest.approx(expected, rel=1e-6)

    def test_parallel_fanout_overlaps(self):
        services = [
            ServiceNode("root", 1_000.0),
            ServiceNode("a", 30_000.0),
            ServiceNode("b", 30_000.0),
        ]
        calls = [
            Call("root", "a", stage=0),
            Call("root", "b", stage=0),
        ]
        graph = CallGraph(services, calls, "root")
        result = simulate_application(graph, LOW_LOAD)
        # Parallel branches overlap: ~31k, not ~61k.
        assert result.mean_latency_cycles == pytest.approx(31_000.0, rel=1e-6)


class TestLoadEffects:
    def test_latency_grows_with_load(self):
        graph = small_graph()
        light = simulate_application(
            graph,
            ApplicationSimConfig(cores_per_service=1, arrivals_per_unit=500,
                                 window_cycles=4.0e7),
        )
        heavy = simulate_application(
            graph,
            ApplicationSimConfig(cores_per_service=1, arrivals_per_unit=24_000,
                                 window_cycles=4.0e7),
        )
        assert heavy.mean_latency_cycles > light.mean_latency_cycles
        assert heavy.p99_latency_cycles >= heavy.mean_latency_cycles

    def test_utilization_reported_per_service(self):
        graph = small_graph()
        result = simulate_application(
            graph,
            ApplicationSimConfig(cores_per_service=1, arrivals_per_unit=20_000,
                                 window_cycles=4.0e7),
        )
        # mid is the heaviest service and should be the busiest host.
        assert result.utilization("mid") > result.utilization("leaf")
        assert 0.0 < result.utilization("mid") <= 1.0

    def test_bottleneck_service_limits_throughput(self):
        graph = small_graph()
        # mid needs 20k cycles/request: 1 core sustains 50k req/unit.
        result = simulate_application(
            graph,
            ApplicationSimConfig(cores_per_service=1, arrivals_per_unit=80_000,
                                 window_cycles=2.0e7),
        )
        sustained = result.completed_requests / 2.0e7 * 1e9
        assert sustained <= 52_000


class TestValidation:
    def test_unknown_override_rejected(self):
        with pytest.raises(ParameterError):
            simulate_application(
                small_graph(), LOW_LOAD, latency_scale={"nope": 2.0}
            )

    def test_empty_window_raises(self):
        config = ApplicationSimConfig(
            cores_per_service=1, arrivals_per_unit=0.001, window_cycles=1e4
        )
        with pytest.raises(SimulationError):
            simulate_application(small_graph(), config)

    def test_bad_config_rejected(self):
        with pytest.raises(ParameterError):
            ApplicationSimConfig(cores_per_service=0)
