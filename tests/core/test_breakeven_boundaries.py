"""Boundary behavior of break-even granularity inversions.

`tests/core/test_breakeven.py` covers the interior of the parameter
space; these tests pin the edges -- never-profitable accelerators,
zero-overhead interfaces, the latency-vs-throughput condition split, and
sub/super-linear kernel cost exponents.
"""

import math

import pytest

from repro.core import (
    AcceleratorSpec,
    OffloadCosts,
    Placement,
    ThreadingDesign,
    min_profitable_granularity,
)
from repro.core.breakeven import offload_is_profitable
from repro.errors import ParameterError

COSTS = OffloadCosts(
    dispatch_cycles=10, interface_cycles=80, queue_cycles=0,
    thread_switch_cycles=50,
)
FREE = OffloadCosts(
    dispatch_cycles=0, interface_cycles=0, queue_cycles=0,
    thread_switch_cycles=0,
)
OFFCHIP = AcceleratorSpec(10.0, Placement.OFF_CHIP)


class TestNeverProfitable:
    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_sync_with_slow_accelerator_is_never_profitable(self, a):
        """Sync keeps the kernel on the critical path, so A <= 1 with any
        nonzero overhead can never win at any granularity."""
        slow = AcceleratorSpec(a, Placement.OFF_CHIP)
        value = min_profitable_granularity(
            ThreadingDesign.SYNC, 10.0, slow, COSTS
        )
        assert value == math.inf
        assert not offload_is_profitable(
            1.0e12, ThreadingDesign.SYNC, 10.0, slow, COSTS
        )

    def test_sync_with_slow_accelerator_and_free_offload_breaks_even(self):
        """A = 1 with zero overhead is a wash: the threshold collapses to
        0, matching the >= comparison in the speedup condition."""
        slow = AcceleratorSpec(1.0, Placement.OFF_CHIP)
        assert min_profitable_granularity(
            ThreadingDesign.SYNC, 10.0, slow, FREE
        ) == 0.0

    def test_async_ignores_accelerator_speed(self):
        """Async designs pay only overheads on the critical path, so even
        an A <= 1 accelerator has a finite break-even."""
        slow = AcceleratorSpec(0.5, Placement.OFF_CHIP)
        assert min_profitable_granularity(
            ThreadingDesign.ASYNC, 10.0, slow, COSTS
        ) == pytest.approx(9.0)


class TestZeroOverhead:
    @pytest.mark.parametrize("design", list(ThreadingDesign))
    def test_free_offload_profitable_at_any_positive_granularity(self, design):
        assert min_profitable_granularity(design, 10.0, OFFCHIP, FREE) == 0.0
        assert offload_is_profitable(1.0e-9, design, 10.0, OFFCHIP, FREE)

    @pytest.mark.parametrize("design", list(ThreadingDesign))
    def test_zero_byte_offload_never_profitable(self, design):
        """g = 0 saves nothing even when the threshold is 0."""
        assert not offload_is_profitable(0.0, design, 10.0, OFFCHIP, FREE)


class TestLatencyConditions:
    def test_sync_os_pays_one_switch_for_latency_two_for_throughput(self):
        """Only the switch *off* the core sits on the request's latency
        path; the switch back overlaps other threads' work but still
        costs throughput."""
        latency = min_profitable_granularity(
            ThreadingDesign.SYNC_OS, 10.0, OFFCHIP, COSTS, for_latency=True
        )
        throughput = min_profitable_granularity(
            ThreadingDesign.SYNC_OS, 10.0, OFFCHIP, COSTS
        )
        # Latency: Cb*g*(1 - 1/A) >= 90 + 50; throughput: Cb*g >= 90 + 100.
        assert latency == pytest.approx((90.0 + 50.0) / (10.0 * 0.9))
        assert throughput == pytest.approx(19.0)

    def test_latency_keeps_accelerator_on_the_critical_path(self):
        """For latency, even async designs wait for the response, so the
        accelerator term reappears in the condition."""
        slow = AcceleratorSpec(1.0, Placement.OFF_CHIP)
        value = min_profitable_granularity(
            ThreadingDesign.ASYNC, 10.0, slow, COSTS, for_latency=True
        )
        assert value == math.inf

    def test_fire_and_forget_remote_skips_accelerator_path(self):
        """ASYNC_NO_RESPONSE to a *remote* device never returns a
        response, so even the latency condition is overhead-only."""
        slow_remote = AcceleratorSpec(0.5, Placement.REMOTE)
        value = min_profitable_granularity(
            ThreadingDesign.ASYNC_NO_RESPONSE, 10.0, slow_remote, COSTS,
            for_latency=True,
        )
        assert value == pytest.approx(9.0)

    def test_fire_and_forget_local_still_waits(self):
        """The same design on a local device does return, so A <= 1 makes
        the latency condition unsatisfiable."""
        slow_local = AcceleratorSpec(0.5, Placement.OFF_CHIP)
        value = min_profitable_granularity(
            ThreadingDesign.ASYNC_NO_RESPONSE, 10.0, slow_local, COSTS,
            for_latency=True,
        )
        assert value == math.inf


class TestBetaExponent:
    def test_superlinear_kernels_break_even_earlier(self):
        """With beta > 1 host cost grows faster than g, so the threshold
        is the beta-th root of the linear one."""
        linear = min_profitable_granularity(
            ThreadingDesign.ASYNC, 10.0, OFFCHIP, COSTS
        )
        quadratic = min_profitable_granularity(
            ThreadingDesign.ASYNC, 10.0, OFFCHIP, COSTS, beta=2.0
        )
        assert quadratic == pytest.approx(math.sqrt(linear))
        assert quadratic < linear

    def test_sublinear_kernels_break_even_later(self):
        sublinear = min_profitable_granularity(
            ThreadingDesign.ASYNC, 10.0, OFFCHIP, COSTS, beta=0.5
        )
        assert sublinear == pytest.approx(9.0 ** 2)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_beta_rejected(self, bad):
        with pytest.raises(ParameterError, match="beta"):
            min_profitable_granularity(
                ThreadingDesign.ASYNC, 10.0, OFFCHIP, COSTS, beta=bad
            )

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_non_positive_cb_rejected(self, bad):
        with pytest.raises(ParameterError, match="Cb"):
            min_profitable_granularity(
                ThreadingDesign.ASYNC, bad, OFFCHIP, COSTS
            )
