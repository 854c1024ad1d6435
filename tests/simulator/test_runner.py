"""Unit tests for the simulation runner and A/B measurement helpers."""

import pickle

import pytest

from repro.errors import ParameterError
from repro.observability import SpanTracer
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    Microservice,
    RequestSpec,
    SegmentWork,
    SimulationConfig,
    measured_latency_reduction,
    measured_speedup,
    run_simulation,
)


def fixed_request(cycles=1000.0):
    return RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC, plain_cycles=cycles,
                        leaf_mix={L.C_LIBRARIES: 1.0}),
        )
    )


def simple_build(cycles=1000.0):
    def build(engine, cpu, metrics):
        service = Microservice(engine, cpu, metrics)
        return service, lambda: fixed_request(cycles)

    return build


class TestSimulationConfig:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.num_cores >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_cores": 0},
            {"threads_per_core": 0},
            {"window_cycles": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            SimulationConfig(**kwargs)


class TestRunSimulation:
    def test_throughput_matches_capacity(self):
        config = SimulationConfig(num_cores=2, window_cycles=100_000)
        result = run_simulation(simple_build(1000.0), config)
        # 2 cores x 100 requests per core.
        assert result.completed_requests == 200
        assert result.throughput == pytest.approx(200 / 100_000)

    def test_mean_latency_for_serial_requests(self):
        config = SimulationConfig(num_cores=1, window_cycles=50_000)
        result = run_simulation(simple_build(1000.0), config)
        assert result.mean_latency_cycles == pytest.approx(1000.0)

    def test_host_cycles_per_request(self):
        config = SimulationConfig(num_cores=1, window_cycles=50_000)
        result = run_simulation(simple_build(1000.0), config)
        # Compute charges attribute at op start, so the single in-flight
        # request at the horizon biases the mean by <= one request.
        assert result.host_cycles_per_request == pytest.approx(1000.0, rel=0.03)

    def test_oversubscription_spawns_more_workers(self):
        config = SimulationConfig(
            num_cores=1, threads_per_core=3, window_cycles=30_000
        )
        result = run_simulation(simple_build(1000.0), config)
        # Throughput unchanged (CPU-bound), but all threads progressed.
        assert result.completed_requests == 30

    def test_latency_percentile(self):
        config = SimulationConfig(num_cores=1, window_cycles=50_000)
        result = run_simulation(simple_build(1000.0), config)
        assert result.latency_percentile(99) == pytest.approx(1000.0)


class TestABMeasurement:
    def test_measured_speedup(self):
        config = SimulationConfig(num_cores=1, window_cycles=100_000)
        slow = run_simulation(simple_build(1000.0), config)
        fast = run_simulation(simple_build(500.0), config)
        assert measured_speedup(slow, fast) == pytest.approx(2.0)

    def test_measured_latency_reduction(self):
        config = SimulationConfig(num_cores=1, window_cycles=100_000)
        slow = run_simulation(simple_build(1000.0), config)
        fast = run_simulation(simple_build(500.0), config)
        assert measured_latency_reduction(slow, fast) == pytest.approx(2.0)


class TestDetachedResult:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_result_survives_a_pickle_round_trip(self, traced):
        # The result crosses process boundaries and lives in the result
        # cache, so no live engine, CPU thread or service may come back.
        config = SimulationConfig(num_cores=1, window_cycles=50_000)
        tracer = SpanTracer(label="pickle") if traced else None
        result = run_simulation(simple_build(1000.0), config, tracer=tracer)
        assert (result.trace is not None) == traced
        restored = pickle.loads(pickle.dumps(result))
        assert restored.fingerprint() == result.fingerprint()
