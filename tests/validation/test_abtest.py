"""Tests for the A/B harness."""

import pytest

from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    Microservice,
    RequestSpec,
    SegmentWork,
    SimulationConfig,
)
from repro.validation import ab_test


def build_with_cost(cycles):
    def build(engine, cpu, metrics):
        service = Microservice(engine, cpu, metrics)
        spec = RequestSpec(
            segments=(
                SegmentWork(F.APPLICATION_LOGIC, plain_cycles=cycles,
                            leaf_mix={L.MISCELLANEOUS: 1.0}),
            )
        )
        return service, lambda: spec

    return build


class TestAbTest:
    CONFIG = SimulationConfig(num_cores=2, window_cycles=200_000)

    def test_speedup_is_throughput_ratio(self):
        result = ab_test(build_with_cost(1000), build_with_cost(800), self.CONFIG)
        assert result.speedup == pytest.approx(1.25, rel=0.01)
        assert result.speedup_percent == pytest.approx(25, abs=1.5)

    def test_latency_reduction(self):
        result = ab_test(build_with_cost(1000), build_with_cost(500), self.CONFIG)
        assert result.latency_reduction == pytest.approx(2.0)

    def test_freed_cycle_fraction(self):
        result = ab_test(build_with_cost(1000), build_with_cost(750), self.CONFIG)
        assert result.freed_cycle_fraction() == pytest.approx(0.25, abs=0.02)

    def test_identical_builds_give_unity(self):
        result = ab_test(build_with_cost(1000), build_with_cost(1000), self.CONFIG)
        assert result.speedup == pytest.approx(1.0)
