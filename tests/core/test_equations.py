"""Unit tests for the raw Accelerometer equations (paper eqns. 1-8)."""

import math

import pytest

from repro.core import equations as eq
from repro.errors import ParameterError


class TestSyncSpeedup:
    def test_matches_hand_computation(self):
        # (1-0.4) + 0.4/4 + (2/1000)*(10+20+30) = 0.6 + 0.1 + 0.12
        value = eq.sync_speedup(c=1000, alpha=0.4, a=4, n=2, o0=10, l=20, q=30)
        assert value == pytest.approx(1.0 / 0.82)

    def test_no_kernel_means_no_speedup(self):
        assert eq.sync_speedup(1e9, 0.0, 10, 0, 0, 0, 0) == pytest.approx(1.0)

    def test_reduces_to_amdahl_without_overheads(self):
        value = eq.sync_speedup(1e9, 0.5, 2, 0, 0, 0, 0)
        assert value == pytest.approx(1.0 / (0.5 + 0.25))

    def test_overheads_can_produce_slowdown(self):
        value = eq.sync_speedup(c=100, alpha=0.1, a=2, n=10, o0=5, l=5, q=0)
        assert value < 1.0

    def test_latency_equals_speedup_for_sync(self):
        args = dict(c=2e9, alpha=0.3, a=8, n=1e5, o0=10, l=100, q=5)
        assert eq.sync_latency_reduction(**args) == eq.sync_speedup(**args)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ParameterError):
            eq.sync_speedup(1e9, alpha, 2, 0, 0, 0, 0)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ParameterError):
            eq.sync_speedup(0, 0.5, 2, 0, 0, 0, 0)

    def test_rejects_negative_overheads(self):
        with pytest.raises(ParameterError):
            eq.sync_speedup(1e9, 0.5, 2, 1, -1, 0, 0)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ParameterError):
            eq.sync_speedup(1e9, 0.5, 0, 0, 0, 0, 0)


class TestSyncOsSpeedup:
    def test_accelerator_cycles_leave_critical_path(self):
        # Sync-OS with zero overheads frees the whole kernel fraction.
        value = eq.sync_os_speedup(c=1000, alpha=0.4, n=0, o0=0, l=0, q=0, o1=0)
        assert value == pytest.approx(1.0 / 0.6)

    def test_charges_two_thread_switches(self):
        with_o1 = eq.sync_os_speedup(1000, 0.4, 1, 0, 0, 0, o1=50)
        # denominator = 0.6 + (1/1000) * 100
        assert with_o1 == pytest.approx(1.0 / 0.7)

    def test_independent_of_accelerator_speed(self):
        # A does not appear in eqn. (3) at all.
        assert eq.sync_os_speedup(1e9, 0.2, 100, 10, 10, 10, 10) == pytest.approx(
            eq.sync_os_speedup(1e9, 0.2, 100, 10, 10, 10, 10)
        )

    def test_latency_keeps_accelerator_cycles(self):
        latency = eq.sync_os_latency_reduction(
            c=1000, alpha=0.4, a=4, n=1, o0=0, l=0, q=0, o1=50
        )
        # denominator = 0.6 + 0.1 + 0.05
        assert latency == pytest.approx(1.0 / 0.75)

    def test_latency_charges_single_switch(self):
        # Eqn. (5) includes o1 once, not twice.
        base = eq.sync_os_latency_reduction(1000, 0.4, 4, 1, 0, 0, 0, o1=0)
        with_switch = eq.sync_os_latency_reduction(1000, 0.4, 4, 1, 0, 0, 0, o1=100)
        assert 1 / with_switch - 1 / base == pytest.approx(0.1)

    def test_throughput_gain_with_latency_loss_possible(self):
        # The paper's us-scale regime: o1 dominates latency but
        # over-subscription still buys throughput.
        speedup = eq.sync_os_speedup(1e5, 0.3, 10, 0, 0, 0, o1=100)
        latency = eq.sync_os_latency_reduction(1e5, 0.3, 1.05, 10, 0, 0, 0, o1=2500)
        assert speedup > 1.0
        assert latency < 1.0


class TestAsyncSpeedup:
    def test_only_dispatch_overheads_remain(self):
        value = eq.async_speedup(c=1000, alpha=0.4, n=2, o0=10, l=20, q=20)
        assert value == pytest.approx(1.0 / 0.7)

    def test_beats_sync_for_same_parameters(self):
        common = dict(c=1e9, alpha=0.3, n=1e5, o0=10, l=100, q=0)
        assert eq.async_speedup(**common) > eq.sync_speedup(a=5, **common)

    def test_latency_retains_accelerator_term(self):
        latency = eq.async_latency_reduction(1000, 0.4, 4, 0, 0, 0, 0)
        assert latency == pytest.approx(1.0 / 0.7)

    def test_distinct_thread_charges_one_switch(self):
        base = eq.async_speedup(1000, 0.4, 1, 0, 0, 0)
        distinct = eq.async_distinct_thread_speedup(1000, 0.4, 1, 0, 0, 0, o1=100)
        assert 1 / distinct - 1 / base == pytest.approx(0.1)

    def test_distinct_thread_latency_matches_sync_os(self):
        args = dict(c=1e9, alpha=0.2, a=3, n=100, o0=1, l=2, q=3, o1=4)
        assert eq.async_distinct_thread_latency_reduction(
            **args
        ) == eq.sync_os_latency_reduction(**args)


class TestIdealSpeedup:
    def test_amdahl_ceiling(self):
        assert eq.ideal_speedup(0.15) == pytest.approx(1.0 / 0.85)

    def test_zero_alpha(self):
        assert eq.ideal_speedup(0.0) == 1.0

    def test_rejects_alpha_one(self):
        with pytest.raises(ParameterError):
            eq.ideal_speedup(1.0)


class TestOffloadMargins:
    def test_sync_margin_positive_above_breakeven(self):
        # Cb*g*(1 - 1/A) > o0+L+Q  <=>  10*g*0.9 > 90  <=>  g > 10
        assert eq.sync_offload_margin(cb=10, g=11, a=10, o0=30, l=30, q=30) > 0
        assert eq.sync_offload_margin(cb=10, g=9, a=10, o0=30, l=30, q=30) < 0
        assert eq.sync_offload_margin(cb=10, g=10, a=10, o0=30, l=30, q=30) == (
            pytest.approx(0.0)
        )

    def test_sync_os_margin_threshold(self):
        # Cb*g > o0+L+Q+2*o1 = 200  <=>  g > 20
        assert eq.sync_os_offload_margin(10, 21, 0, 100, 0, o1=50) > 0
        assert eq.sync_os_offload_margin(10, 19, 0, 100, 0, o1=50) < 0

    def test_async_margin_threshold(self):
        assert eq.async_offload_margin(10, 11, 0, 100, 0) > 0
        assert eq.async_offload_margin(10, 9, 0, 100, 0) < 0

    def test_superlinear_kernel_shrinks_threshold(self):
        linear = eq.sync_offload_margin(1, 50, 10, 100, 0, 0, beta=1.0)
        superlinear = eq.sync_offload_margin(1, 50, 10, 100, 0, 0, beta=2.0)
        assert superlinear > linear

    def test_latency_margins_include_accelerator_time(self):
        # For A close to 1, latency margins should be much worse than the
        # corresponding throughput margins.
        throughput = eq.sync_os_offload_margin(10, 100, 0, 0, 0, o1=0)
        latency = eq.sync_os_latency_margin(10, 100, 1.01, 0, 0, 0, o1=0)
        assert latency < throughput

    def test_rejects_nonpositive_cb(self):
        with pytest.raises(ParameterError):
            eq.async_offload_margin(0, 10, 0, 0, 0)


class TestPaperHeadlineNumbers:
    """Eqns. 1, 3, 6 reproduce Table 6's printed estimates."""

    def test_aes_ni_sync(self):
        value = eq.sync_speedup(2.0e9, 0.165844, 6, 298_951, 10, 3, 0)
        assert (value - 1) * 100 == pytest.approx(15.7, abs=0.1)

    def test_cache3_async(self):
        value = eq.async_speedup(2.3e9, 0.19154, 101_863, 0, 2_530, 0)
        assert (value - 1) * 100 == pytest.approx(8.6, abs=0.05)

    def test_ads1_remote_inference(self):
        value = eq.async_distinct_thread_speedup(
            2.5e9, 0.52, 10, 25_000_000, 0, 0, 12_500
        )
        assert (value - 1) * 100 == pytest.approx(72.39, abs=0.01)


# (name, margin(cb, g, beta), host-savings factor with free overheads)
MARGINS = [
    ("sync", lambda cb, g, beta=1.0: eq.sync_offload_margin(
        cb, g, 4.0, 0, 0, 0, beta=beta), 0.75),
    ("sync-os", lambda cb, g, beta=1.0: eq.sync_os_offload_margin(
        cb, g, 0, 0, 0, 0, beta=beta), 1.0),
    ("async", lambda cb, g, beta=1.0: eq.async_offload_margin(
        cb, g, 0, 0, 0, beta=beta), 1.0),
    ("sync-os-latency", lambda cb, g, beta=1.0: eq.sync_os_latency_margin(
        cb, g, 4.0, 0, 0, 0, 0, beta=beta), 0.75),
    ("async-latency", lambda cb, g, beta=1.0: eq.async_latency_margin(
        cb, g, 4.0, 0, 0, 0, beta=beta), 0.75),
]


class TestMarginHostCost:
    @pytest.mark.parametrize("name,margin,factor", MARGINS)
    def test_free_offload_keeps_the_host_savings(self, name, margin, factor):
        assert margin(10.0, 64.0, beta=1.5) == pytest.approx(
            factor * 10.0 * 64.0**1.5)

    @pytest.mark.parametrize("name,margin,factor", MARGINS)
    def test_rejects_nonpositive_cb(self, name, margin, factor):
        with pytest.raises(ParameterError, match="Cb"):
            margin(0.0, 64.0)

    @pytest.mark.parametrize("name,margin,factor", MARGINS)
    def test_rejects_negative_granularity(self, name, margin, factor):
        with pytest.raises(ParameterError, match="g must"):
            margin(10.0, -1.0)

    @pytest.mark.parametrize("name,margin,factor", MARGINS)
    def test_rejects_nonpositive_beta(self, name, margin, factor):
        with pytest.raises(ParameterError, match="beta"):
            margin(10.0, 64.0, beta=0.0)

    def test_async_latency_margin_threshold(self):
        # Cb*g*(1 - 1/A) > o0+L+Q  <=>  10*g*0.9 > 90  <=>  g > 10
        assert eq.async_latency_margin(10, 11, 10, 30, 30, 30) > 0
        assert eq.async_latency_margin(10, 9, 10, 30, 30, 30) < 0
        assert eq.async_latency_margin(10, 10, 10, 30, 30, 30) == (
            pytest.approx(0.0))

    def test_async_latency_margin_below_throughput_margin(self):
        """The latency condition also waits for the accelerator."""
        assert (eq.async_latency_margin(10, 100, 2.0, 5, 5, 5)
                < eq.async_offload_margin(10, 100, 5, 5, 5))
