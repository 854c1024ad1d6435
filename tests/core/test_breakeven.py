"""Unit tests for break-even granularity computation."""

import math

import pytest

from repro.core import (
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    Placement,
    ThreadingDesign,
    min_profitable_granularity,
)
from repro.core.breakeven import aggregate_offload_margin, offload_is_profitable
from repro.errors import ParameterError

ONCHIP = AcceleratorSpec(4.0, Placement.ON_CHIP)
OFFCHIP = AcceleratorSpec(10.0, Placement.OFF_CHIP)
COSTS = OffloadCosts(
    dispatch_cycles=10, interface_cycles=80, queue_cycles=0,
    thread_switch_cycles=50,
)


class TestMinProfitableGranularity:
    def test_sync_threshold(self):
        # Cb*g*(1-1/10) >= 90  =>  g >= 10 at Cb=10
        value = min_profitable_granularity(
            ThreadingDesign.SYNC, 10.0, OFFCHIP, COSTS
        )
        assert value == pytest.approx(10.0)

    def test_sync_os_threshold_includes_two_switches(self):
        # Cb*g >= 90 + 100  =>  g >= 19
        value = min_profitable_granularity(
            ThreadingDesign.SYNC_OS, 10.0, OFFCHIP, COSTS
        )
        assert value == pytest.approx(19.0)

    def test_async_threshold(self):
        # Cb*g >= 90  =>  g >= 9
        value = min_profitable_granularity(
            ThreadingDesign.ASYNC, 10.0, OFFCHIP, COSTS
        )
        assert value == pytest.approx(9.0)

    def test_async_distinct_thread_adds_one_switch(self):
        # Cb*g >= 140  =>  g >= 14
        value = min_profitable_granularity(
            ThreadingDesign.ASYNC_DISTINCT_THREAD, 10.0, OFFCHIP, COSTS
        )
        assert value == pytest.approx(14.0)

    def test_sync_with_a_at_most_one_never_profitable(self):
        slow = AcceleratorSpec(1.0, Placement.OFF_CHIP)
        value = min_profitable_granularity(ThreadingDesign.SYNC, 10.0, slow, COSTS)
        assert math.isinf(value)

    def test_async_with_a_one_still_profitable(self):
        # Async frees host cycles even when the accelerator is no faster.
        slow = AcceleratorSpec(1.0, Placement.REMOTE)
        value = min_profitable_granularity(ThreadingDesign.ASYNC, 10.0, slow, COSTS)
        assert math.isfinite(value)

    def test_zero_overheads_mean_any_size_wins(self):
        value = min_profitable_granularity(
            ThreadingDesign.SYNC, 10.0, OFFCHIP, OffloadCosts()
        )
        assert value == 0.0

    def test_superlinear_kernel_lowers_threshold(self):
        linear = min_profitable_granularity(
            ThreadingDesign.ASYNC, 1.0, OFFCHIP, COSTS, beta=1.0
        )
        quadratic = min_profitable_granularity(
            ThreadingDesign.ASYNC, 1.0, OFFCHIP, COSTS, beta=2.0
        )
        assert quadratic < linear

    def test_latency_threshold_for_sync_os_single_switch(self):
        # Latency condition: Cb*g*(1-1/A) >= o0+L+Q+o1 = 140.
        value = min_profitable_granularity(
            ThreadingDesign.SYNC_OS, 10.0, OFFCHIP, COSTS, for_latency=True
        )
        assert value == pytest.approx(140 / (10 * 0.9))

    def test_latency_fire_and_forget_remote_skips_accelerator(self):
        slow = AcceleratorSpec(1.0, Placement.REMOTE)
        value = min_profitable_granularity(
            ThreadingDesign.ASYNC_NO_RESPONSE, 10.0, slow, COSTS,
            for_latency=True,
        )
        assert math.isfinite(value)

    def test_rejects_bad_cb(self):
        with pytest.raises(ParameterError):
            min_profitable_granularity(ThreadingDesign.SYNC, 0.0, OFFCHIP, COSTS)


class TestOffloadIsProfitable:
    def test_above_threshold(self):
        assert offload_is_profitable(
            100, ThreadingDesign.SYNC, 10.0, OFFCHIP, COSTS
        )

    def test_below_threshold(self):
        assert not offload_is_profitable(
            5, ThreadingDesign.SYNC, 10.0, OFFCHIP, COSTS
        )

    def test_zero_granularity_never_profitable(self):
        assert not offload_is_profitable(
            0, ThreadingDesign.SYNC, 10.0, OFFCHIP, OffloadCosts()
        )


class TestAggregateMargin:
    def test_sign_matches_speedup_condition(self):
        kernel = KernelProfile(1e6, 0.3, 100)
        margin = aggregate_offload_margin(
            kernel, ThreadingDesign.SYNC, OFFCHIP, COSTS
        )
        # alpha*C = 3e5; overheads = 3e4 + 100*90 = 3.9e4 -> positive.
        assert margin == pytest.approx(3e5 - 3e4 - 9000)

    def test_sync_os_margin_uses_switches_not_accelerator(self):
        kernel = KernelProfile(1e6, 0.3, 100)
        margin = aggregate_offload_margin(
            kernel, ThreadingDesign.SYNC_OS, OFFCHIP, COSTS
        )
        assert margin == pytest.approx(3e5 - 100 * (90 + 100))


class TestBreakevenTable:
    def test_ordering_async_cheapest(self):
        table = {
            design: min_profitable_granularity(design, 10.0, OFFCHIP, COSTS)
            for design in ThreadingDesign
        }
        assert table[ThreadingDesign.ASYNC] <= table[ThreadingDesign.SYNC]
        assert (
            table[ThreadingDesign.ASYNC]
            <= table[ThreadingDesign.ASYNC_DISTINCT_THREAD]
            <= table[ThreadingDesign.SYNC_OS]
        )

    def test_paper_feed1_offchip_sync_breakeven(self):
        """Sec. 5: off-chip Sync compression breaks even at g >= 425 B."""
        offchip = AcceleratorSpec(27.0, Placement.OFF_CHIP)
        costs = OffloadCosts(interface_cycles=2_300)
        value = min_profitable_granularity(
            ThreadingDesign.SYNC, 5.62, offchip, costs
        )
        assert value == pytest.approx(425, abs=2)
