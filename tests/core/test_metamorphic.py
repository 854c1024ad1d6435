"""Metamorphic properties of the (degraded) Accelerometer equations.

Instead of pinning point values, these tests assert *relations between
runs*: how speedup must move when one parameter moves, which limits it
must approach, and that the fault-free special case collapses
bit-identically onto the published equations.  A regression that keeps
individual values plausible but bends a monotonicity or a limit is
caught here.
"""

import dataclasses
import math

import pytest

from repro.core import equations as eq
from repro.core.resilience import (
    degraded_async_distinct_thread_speedup,
    degraded_async_speedup,
    degraded_speedup,
    degraded_sync_os_speedup,
    degraded_sync_speedup,
    doorbell_drop_probability,
    expected_backoff_cycles,
    expected_failures,
    fallback_probability,
)
from repro.core.strategies import ThreadingDesign
from repro.errors import ParameterError
from repro.faults import FaultPolicy
from repro.faults.policy import NO_FAULTS

# A representative healthy scenario (Cache1-like magnitudes).
C, ALPHA, A, N = 2.0e9, 0.3, 8.0, 1.0e5
O0, L, Q, O1 = 500.0, 1_000.0, 200.0, 800.0

DESIGNS = (
    ThreadingDesign.SYNC,
    ThreadingDesign.SYNC_OS,
    ThreadingDesign.ASYNC,
    ThreadingDesign.ASYNC_DISTINCT_THREAD,
)


def _policy(p, timeout=5_000.0, retries=3, backoff=200.0):
    return FaultPolicy(drop_probability=p, timeout_cycles=timeout,
                       max_retries=retries, backoff_base_cycles=backoff)


def _speedup(design, policy, **overrides):
    params = dict(c=C, alpha=ALPHA, n=N, o0=O0, l=L, q=Q, a=A, o1=O1)
    params.update(overrides)
    return degraded_speedup(design, policy, **params)


class TestZeroFaultReduction:
    """A null fault model must reduce *bit-identically* -- not merely
    approximately -- to the published equations."""

    def test_sync_bit_identical(self):
        assert degraded_sync_speedup(C, ALPHA, A, N, O0, L, Q, NO_FAULTS) == \
            eq.sync_speedup(C, ALPHA, A, N, O0, L, Q)

    def test_sync_os_bit_identical(self):
        assert degraded_sync_os_speedup(C, ALPHA, N, O0, L, Q, O1, NO_FAULTS) == \
            eq.sync_os_speedup(C, ALPHA, N, O0, L, Q, O1)

    def test_async_bit_identical(self):
        assert degraded_async_speedup(C, ALPHA, N, O0, L, Q, NO_FAULTS) == \
            eq.async_speedup(C, ALPHA, N, O0, L, Q)

    def test_async_distinct_bit_identical(self):
        assert degraded_async_distinct_thread_speedup(
            C, ALPHA, N, O0, L, Q, O1, NO_FAULTS
        ) == eq.async_distinct_thread_speedup(C, ALPHA, N, O0, L, Q, O1)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_bit_identity_across_parameter_grid(self, design):
        for alpha in (0.05, 0.3, 0.8):
            for o0 in (0.0, 33.7):
                got = _speedup(design, NO_FAULTS, alpha=alpha, o0=o0)
                want = {
                    ThreadingDesign.SYNC:
                        eq.sync_speedup(C, alpha, A, N, o0, L, Q),
                    ThreadingDesign.SYNC_OS:
                        eq.sync_os_speedup(C, alpha, N, o0, L, Q, O1),
                    ThreadingDesign.ASYNC:
                        eq.async_speedup(C, alpha, N, o0, L, Q),
                    ThreadingDesign.ASYNC_DISTINCT_THREAD:
                        eq.async_distinct_thread_speedup(C, alpha, N, o0, L, Q, O1),
                }[design]
                assert got == want


class TestMonotonicity:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_non_increasing_in_failure_rate(self, design):
        """More drops can never help: speedup is monotonically
        non-increasing in the per-attempt failure probability."""
        previous = math.inf
        for p in (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0):
            speedup = _speedup(design, _policy(p))
            assert speedup <= previous + 1e-15
            previous = speedup

    @pytest.mark.parametrize("design", DESIGNS)
    def test_non_increasing_in_dispatch_overhead(self, design):
        """Raising o0 can never help, faulty or not."""
        for policy in (NO_FAULTS, _policy(0.2)):
            previous = math.inf
            for o0 in (0.0, 100.0, 500.0, 2_000.0, 10_000.0):
                speedup = _speedup(design, policy, o0=o0)
                assert speedup <= previous + 1e-15
                previous = speedup

    def test_sync_non_increasing_in_timeout(self):
        """Sync blocks the core through each timeout, so a longer timeout
        can only hurt (at a fixed failure rate)."""
        previous = math.inf
        for timeout in (0.0, 1_000.0, 5_000.0, 20_000.0, 1.0e5):
            speedup = _speedup(ThreadingDesign.SYNC, _policy(0.2, timeout=timeout))
            assert speedup <= previous + 1e-15
            previous = speedup

    @pytest.mark.parametrize("design", DESIGNS)
    def test_non_increasing_in_backoff(self, design):
        previous = math.inf
        for backoff in (0.0, 100.0, 1_000.0, 10_000.0):
            speedup = _speedup(design, _policy(0.2, backoff=backoff))
            assert speedup <= previous + 1e-15
            previous = speedup

class TestLimits:
    def test_sync_approaches_overhead_bound_as_a_grows(self):
        """As A -> inf, the Sync speedup climbs toward the overhead-only
        bound 1 / ((1 - alpha) + (n/C)(o0 + L + Q)) from below."""
        bound = 1.0 / ((1.0 - ALPHA) + (N / C) * (O0 + L + Q))
        previous = 0.0
        for a in (1.0, 2.0, 8.0, 64.0, 1024.0, 1.0e9):
            speedup = degraded_sync_speedup(C, ALPHA, a, N, O0, L, Q, NO_FAULTS)
            assert previous <= speedup <= bound
            previous = speedup
        assert speedup == pytest.approx(bound, rel=1e-6)

    def test_certain_failure_with_fallback_gives_pure_overhead_loss(self):
        """p = 1 with fallback: every offload pays all retries and then
        runs on the host anyway, so speedup < 1 whenever overheads are
        nonzero."""
        for design in DESIGNS:
            assert _speedup(design, _policy(1.0)) < 1.0


class TestClosedForms:
    def test_expected_failures_matches_direct_sum(self):
        """E[F] equals sum_{k=0}^{r} p^(k+1) to within 1e-9."""
        for p in (0.0, 0.1, 0.37, 0.9, 0.999):
            for r in (0, 1, 3, 7):
                direct = sum(p ** (k + 1) for k in range(r + 1))
                assert abs(expected_failures(p, r) - direct) < 1e-9

    def test_expected_failures_certain_drop(self):
        assert expected_failures(1.0, 4) == 5.0

    def test_fallback_probability_power(self):
        assert fallback_probability(0.5, 2) == 0.125
        assert fallback_probability(0.0, 2) == 0.0
        assert fallback_probability(1.0, 2) == 1.0

    def test_expected_backoff_matches_direct_sum(self):
        for p in (0.1, 0.5, 0.9):
            for r in (0, 1, 4):
                direct = sum(
                    150.0 * 3.0**k * p ** (k + 1) for k in range(r)
                )
                got = expected_backoff_cycles(p, r, 150.0, 3.0)
                assert abs(got - direct) < 1e-9


PROBABILITIES = (0.1, 0.5, 0.9, 1.0)
CLOSED_FORMS = (
    ("expected_failures", lambda p, r: expected_failures(p, r)),
    ("fallback_probability", lambda p, r: fallback_probability(p, r)),
    ("expected_backoff_cycles",
     lambda p, r: expected_backoff_cycles(p, r, 100.0)),
)


class TestClosedFormLaws:
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_expected_failures_grow_with_retries_up_to_attempt_count(self, p):
        values = [expected_failures(p, r) for r in range(6)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= r + 1 for r, v in enumerate(values))

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_fallback_probability_shrinks_with_retries(self, p):
        values = [fallback_probability(p, r) for r in range(6)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == p

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_no_retries_means_no_backoff(self, p):
        assert expected_backoff_cycles(p, 0, 1_000.0, 4.0) == 0.0

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_backoff_is_linear_in_base(self, p):
        assert expected_backoff_cycles(p, 4, 300.0) == pytest.approx(
            3.0 * expected_backoff_cycles(p, 4, 100.0), rel=1e-12)

    @pytest.mark.parametrize("name,form", CLOSED_FORMS)
    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_probability_outside_unit_interval(self, name, form, p):
        with pytest.raises(ParameterError, match="drop_probability"):
            form(p, 1)

    @pytest.mark.parametrize("name,form", CLOSED_FORMS)
    def test_rejects_negative_retries(self, name, form):
        with pytest.raises(ParameterError, match="max_retries"):
            form(0.5, -1)

    @pytest.mark.parametrize("multiplier", [0.0, -2.0])
    def test_backoff_rejects_nonpositive_multiplier(self, multiplier):
        with pytest.raises(ParameterError, match="backoff_multiplier"):
            expected_backoff_cycles(0.5, 2, 100.0, multiplier)

    def test_backoff_rejects_negative_base(self):
        with pytest.raises(ParameterError, match="backoff_base_cycles"):
            expected_backoff_cycles(0.5, 2, -1.0)


class TestDesignLaws:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_zero_drop_policy_is_bit_identical_to_no_faults(self, design):
        """Retries, timeouts and backoff cost nothing when no attempt
        ever drops."""
        assert (_speedup(design, _policy(0.0, timeout=9_000.0, retries=5,
                                         backoff=700.0))
                == _speedup(design, NO_FAULTS))

    @pytest.mark.parametrize("design", DESIGNS)
    def test_cpu_fallback_never_beats_dropping_the_work(self, design):
        """Re-running the kernel on the host costs host cycles; dropping
        it does not, so the fallback policy is never the faster one."""
        rerun = FaultPolicy(drop_probability=0.4, timeout_cycles=2_000.0,
                            max_retries=1, fallback_to_cpu=True)
        dropped = dataclasses.replace(rerun, fallback_to_cpu=False)
        assert _speedup(design, rerun) < _speedup(design, dropped)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_certain_drop_worsens_with_every_retry(self, design):
        values = [_speedup(design, _policy(1.0, retries=r)) for r in range(5)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDoorbellFixedPoints:
    @pytest.mark.parametrize("batch", [1, 2, 8, 64])
    def test_null_and_certain_drops_are_fixed_points(self, batch):
        assert doorbell_drop_probability(0.0, batch) == 0.0
        assert doorbell_drop_probability(1.0, batch) == 1.0

    @pytest.mark.parametrize("batch", [0, -1])
    def test_rejects_empty_doorbell(self, batch):
        with pytest.raises(ParameterError, match="batch_size"):
            doorbell_drop_probability(0.1, batch)
