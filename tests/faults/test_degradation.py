"""Degradation windows, schedules, and device service-time scaling."""

import math

import pytest

from repro.errors import ParameterError
from repro.faults import DegradationSchedule, DegradationWindow
from repro.faults.degradation import ALWAYS_HEALTHY
from repro.simulator import AcceleratorDevice, Engine


class TestWindow:
    def test_default_is_outage(self):
        window = DegradationWindow(0.0, 100.0)
        assert window.is_outage
        assert window.covers(0.0)
        assert window.covers(99.999)
        assert not window.covers(100.0)  # half-open interval

    def test_finite_multiplier_is_not_outage(self):
        assert not DegradationWindow(0.0, 1.0, service_multiplier=2.0).is_outage

    def test_rejects_negative_start(self):
        with pytest.raises(ParameterError):
            DegradationWindow(-1.0, 10.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            DegradationWindow(10.0, 10.0)

    def test_rejects_speedup_multiplier(self):
        with pytest.raises(ParameterError):
            DegradationWindow(0.0, 1.0, service_multiplier=0.5)

    def test_rejects_nan_multiplier(self):
        with pytest.raises(ParameterError):
            DegradationWindow(0.0, 1.0, service_multiplier=math.nan)


class TestSchedule:
    def test_always_healthy(self):
        assert ALWAYS_HEALTHY.is_null
        assert not ALWAYS_HEALTHY.outage_at(0.0)
        assert ALWAYS_HEALTHY.multiplier_at(123.0) == 1.0

    def test_outage_detection(self):
        schedule = DegradationSchedule(
            windows=(DegradationWindow(100.0, 200.0),)
        )
        assert not schedule.outage_at(99.0)
        assert schedule.outage_at(100.0)
        assert not schedule.outage_at(200.0)

    def test_overlapping_finite_windows_compound(self):
        schedule = DegradationSchedule(windows=(
            DegradationWindow(0.0, 100.0, service_multiplier=2.0),
            DegradationWindow(50.0, 150.0, service_multiplier=3.0),
        ))
        assert schedule.multiplier_at(25.0) == 2.0
        assert schedule.multiplier_at(75.0) == 6.0
        assert schedule.multiplier_at(125.0) == 3.0
        assert schedule.multiplier_at(200.0) == 1.0

    def test_outage_excluded_from_multiplier(self):
        schedule = DegradationSchedule(windows=(
            DegradationWindow(0.0, 100.0),  # outage
            DegradationWindow(0.0, 100.0, service_multiplier=2.0),
        ))
        assert schedule.multiplier_at(50.0) == 2.0
        assert schedule.outage_at(50.0)


class TestDeviceDegradation:
    def test_degraded_window_slows_service(self):
        engine = Engine()
        schedule = DegradationSchedule(
            windows=(DegradationWindow(0.0, 1_000.0, service_multiplier=4.0),)
        )
        device = AcceleratorDevice(engine, peak_speedup=2.0,
                                   degradation=schedule)
        # Inside the window: 100 host cycles -> 50 service -> x4 = 200.
        completion = device.submit(100.0, arrival_time=0.0)
        assert completion == 200.0
        assert device.stats.degraded_offloads == 1
        assert device.stats.degraded_extra_cycles == 150.0

    def test_healthy_window_leaves_service_unchanged(self):
        engine = Engine()
        schedule = DegradationSchedule(
            windows=(DegradationWindow(0.0, 100.0, service_multiplier=4.0),)
        )
        device = AcceleratorDevice(engine, peak_speedup=2.0,
                                   degradation=schedule)
        completion = device.submit(100.0, arrival_time=500.0)
        assert completion == 550.0
        assert device.stats.degraded_offloads == 0
        assert device.stats.degraded_extra_cycles == 0.0

    def test_multiplier_sampled_at_service_start_not_arrival(self):
        """An offload queued into a degradation window degrades even if it
        arrived before the window began."""
        engine = Engine()
        schedule = DegradationSchedule(
            windows=(DegradationWindow(100.0, 1_000.0, service_multiplier=2.0),)
        )
        device = AcceleratorDevice(engine, peak_speedup=1.0,
                                   degradation=schedule)
        device.submit(150.0, arrival_time=0.0)   # busy until 150
        completion = device.submit(10.0, arrival_time=0.0)  # starts at 150
        assert completion == 170.0  # 10 cycles x2 after queueing
        assert device.stats.degraded_offloads == 1
