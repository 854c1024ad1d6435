"""Unit tests for accelerator capacity planning."""

import pytest

from repro.errors import ParameterError
from repro.fleet import (
    CapacityPlan,
    engines_for_queue_budget,
    engines_for_utilization,
    plan_capacity,
)


class TestEnginesForUtilization:
    def test_basic_sizing(self):
        # Offered load = 1000 * 1e6 / 1e9 = 1 engine-worth; at 60% target
        # we need ceil(1 / 0.6) = 2.
        assert engines_for_utilization(1000, 1e6, 1e9, 0.6) == 2

    def test_idle_device_needs_one_engine(self):
        assert engines_for_utilization(0, 1e6, 1e9) == 1

    def test_higher_target_fewer_engines(self):
        loose = engines_for_utilization(5000, 1e6, 1e9, 0.9)
        tight = engines_for_utilization(5000, 1e6, 1e9, 0.3)
        assert loose < tight

    def test_rejects_bad_target(self):
        with pytest.raises(ParameterError):
            engines_for_utilization(10, 1, 1e9, 1.0)


class TestEnginesForQueueBudget:
    def test_meets_budget(self):
        engines = engines_for_queue_budget(1500, 1e6, 1e9, 1e5)
        plan = CapacityPlan(1500, 1e6, 1e9, engines)
        assert plan.expected_queue_cycles <= 1e5

    def test_minimal(self):
        engines = engines_for_queue_budget(1500, 1e6, 1e9, 1e5)
        if engines > 1:
            smaller = CapacityPlan(1500, 1e6, 1e9, engines - 1)
            try:
                assert smaller.expected_queue_cycles > 1e5
            except ParameterError:
                pass  # smaller provisioning is outright unstable

    def test_tighter_budget_more_engines(self):
        loose = engines_for_queue_budget(1500, 1e6, 1e9, 1e6)
        tight = engines_for_queue_budget(1500, 1e6, 1e9, 1e3)
        assert tight >= loose

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError):
            engines_for_queue_budget(10, 1, 1e9, -1)


class TestPlanCapacity:
    def test_default_utilization_target(self):
        plan = plan_capacity(1000, 1e6, 1e9)
        assert plan.utilization <= 0.6

    def test_queue_budget_dominates_when_stricter(self):
        loose = plan_capacity(1500, 1e6, 1e9)
        strict = plan_capacity(1500, 1e6, 1e9, queue_budget_cycles=100.0)
        assert strict.engines >= loose.engines
        assert strict.expected_queue_cycles <= 100.0


class TestSizingLaws:
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.6, 0.8, 0.95])
    def test_utilization_sizing_is_the_fewest_engines_meeting_target(
            self, target):
        engines = engines_for_utilization(5300, 1e6, 1e9, target)
        assert CapacityPlan(5300, 1e6, 1e9, engines).utilization <= target
        assert CapacityPlan(5300, 1e6, 1e9, engines - 1).utilization > target

    @pytest.mark.parametrize("budget", [1e3, 1e4, 1e5, 1e6])
    def test_queue_sizing_is_the_fewest_engines_meeting_budget(self, budget):
        engines = engines_for_queue_budget(5300, 1e6, 1e9, budget)
        assert CapacityPlan(5300, 1e6, 1e9, engines)\
            .expected_queue_cycles <= budget
        try:
            fewer = CapacityPlan(5300, 1e6, 1e9, engines - 1)\
                .expected_queue_cycles
        except ParameterError:
            return  # one engine fewer is outright unstable
        assert fewer > budget

    def test_zero_service_needs_one_engine(self):
        assert engines_for_utilization(1e6, 0.0, 1e9) == 1

    def test_unreachable_budget_raises(self):
        with pytest.raises(ParameterError, match="unreachable"):
            engines_for_queue_budget(5300, 1e6, 1e9, 0.0, max_engines=7)

    @pytest.mark.parametrize("args, needle", [
        ((10, 1, 1e9, 0.0), "max_utilization"),
        ((10, 1, 1e9, -0.1), "max_utilization"),
        ((10, 1, 1e9, 1.5), "max_utilization"),
        ((-1, 1, 1e9), "non-negative"),
        ((10, -1, 1e9), "non-negative"),
        ((10, 1, 0.0), "total_cycles"),
        ((10, 1, -1e9), "total_cycles"),
    ])
    def test_utilization_sizing_rejects_each_bad_input(self, args, needle):
        with pytest.raises(ParameterError, match=needle):
            engines_for_utilization(*args)
