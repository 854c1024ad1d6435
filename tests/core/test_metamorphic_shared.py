"""Metamorphic & reduction contracts for the shared-device closed forms.

The doorbell-batching algebra under faults must collapse onto the
validated private-device equations *bit-identically* -- `==`, not
`approx` -- at ``batch_size = 1`` and ``NO_FAULTS``, and must respect
the monotonicity laws that make the formulas physically meaningful.
Boundary behaviour of the underlying queueing estimators (divergence at
saturation, degeneracy at zero load) is pinned here too.
"""

import pytest

from repro.core.queueing import mm1_wait_cycles, mmk_wait_cycles
from repro.core.resilience import (
    degraded_async_speedup,
    degraded_batched_async_speedup,
    doorbell_drop_probability,
)
from repro.errors import ParameterError
from repro.faults import FaultPolicy
from repro.faults.policy import NO_FAULTS

# A Cache1-like healthy operating point.
C, ALPHA, N = 2.0e9, 0.3, 1.0e5
O0, L, Q = 500.0, 1_000.0, 200.0

POLICIES = [
    NO_FAULTS,
    FaultPolicy(drop_probability=0.1, timeout_cycles=5_000.0, max_retries=3,
                backoff_base_cycles=200.0),
    FaultPolicy(drop_probability=0.5, timeout_cycles=2_000.0, max_retries=1),
    FaultPolicy(drop_probability=0.3, timeout_cycles=1_000.0, max_retries=2,
                fallback_to_cpu=False),
    FaultPolicy(drop_probability=1.0, timeout_cycles=500.0, max_retries=0),
]


# ---------------------------------------------------------------------------
# Bit-identical reductions (==, never approx)
# ---------------------------------------------------------------------------


class TestBitIdenticalReductions:
    @pytest.mark.parametrize("p", [0.0, 1e-12, 1e-9, 0.1, 0.5, 1.0])
    def test_unit_batch_doorbell_drop_is_exact(self, p):
        assert doorbell_drop_probability(p, 1) == p

    @pytest.mark.parametrize("policy", POLICIES)
    def test_unit_batch_speedup_is_unbatched_equation(self, policy):
        assert (degraded_batched_async_speedup(
                    C, ALPHA, N, O0, L, Q, policy, batch_size=1)
                == degraded_async_speedup(C, ALPHA, N, O0, L, Q, policy))

    @pytest.mark.parametrize("batch", [1, 2, 8, 64])
    def test_fault_free_batched_speedup_is_amortized_async(self, batch):
        """With NO_FAULTS the batched form is exactly the async equation
        with the dispatch and queue terms amortized over the doorbell."""
        b = float(batch)
        expected = 1.0 / ((1.0 - ALPHA) + (N / C) * (O0 / b + L + Q / b))
        assert (degraded_batched_async_speedup(
                    C, ALPHA, N, O0, L, Q, NO_FAULTS, batch_size=batch)
                == expected)


# ---------------------------------------------------------------------------
# Doorbell-batching laws
# ---------------------------------------------------------------------------


class TestBatchingLaws:
    def test_doorbell_drop_grows_with_batch_but_stays_a_probability(self):
        previous = 0.0
        for batch in (1, 2, 4, 16, 256):
            p = doorbell_drop_probability(0.05, batch)
            assert previous < p <= 1.0
            previous = p

    def test_fault_free_speedup_improves_with_batch(self):
        previous = 0.0
        for batch in (1, 2, 4, 16):
            s = degraded_batched_async_speedup(
                C, ALPHA, N, O0, L, Q, NO_FAULTS, batch_size=batch)
            assert s > previous
            previous = s

    def test_fault_free_speedup_limit_is_dispatch_free(self):
        """As B grows with L = 0, the whole interface tax amortizes away
        and the speedup approaches the zero-overhead async limit."""
        limit = 1.0 / (1.0 - ALPHA)
        s = degraded_batched_async_speedup(
            C, ALPHA, N, O0, 0.0, Q, NO_FAULTS, batch_size=10**9)
        assert s == pytest.approx(limit, rel=1e-6)
        assert s < limit

    def test_batching_under_faults_can_backfire(self):
        """A bigger doorbell amortizes dispatch but couples failures: with
        a harsh policy the net speedup degrades as B grows."""
        policy = FaultPolicy(drop_probability=0.3, timeout_cycles=50_000.0,
                             max_retries=3, backoff_base_cycles=5_000.0)
        small = degraded_batched_async_speedup(
            C, ALPHA, N, O0, L, Q, policy, batch_size=1)
        large = degraded_batched_async_speedup(
            C, ALPHA, N, O0, L, Q, policy, batch_size=64)
        assert large < small

    def test_invalid_batch_rejected(self):
        with pytest.raises(ParameterError, match="batch_size"):
            doorbell_drop_probability(0.1, 0)
        with pytest.raises(ParameterError, match="batch_size"):
            degraded_batched_async_speedup(
                C, ALPHA, N, O0, L, Q, NO_FAULTS, batch_size=-1)


# ---------------------------------------------------------------------------
# Boundary behaviour of the queueing estimators
# ---------------------------------------------------------------------------


WAIT_FORMS = [
    ("mm1", lambda r, s, t: mm1_wait_cycles(r, s, t)),
    ("mmk", lambda r, s, t: mmk_wait_cycles(r, s, t, servers=1)),
    # Same total capacity spread over k engines: rho is unchanged.
    ("mmk2", lambda r, s, t: mmk_wait_cycles(r, 2.0 * s, t, servers=2)),
    ("mmk4", lambda r, s, t: mmk_wait_cycles(r, 4.0 * s, t, servers=4)),
    ("mmk8", lambda r, s, t: mmk_wait_cycles(r, 8.0 * s, t, servers=8)),
]


class TestQueueingBoundaries:
    @pytest.mark.parametrize("name,wait", WAIT_FORMS)
    def test_wait_diverges_approaching_saturation(self, name, wait):
        total = 1.0e5
        service = 100.0
        moderate = wait(900.0, service, total)    # rho = 0.9
        extreme = wait(999.0, service, total)     # rho = 0.999
        assert extreme > 100.0 * moderate / 2.0
        assert extreme > moderate

    @pytest.mark.parametrize("name,wait", WAIT_FORMS)
    def test_wait_rejects_saturation_exactly(self, name, wait):
        with pytest.raises(ParameterError, match="overloaded"):
            wait(1_000.0, 100.0, 1.0e5)           # rho = 1 exactly

    @pytest.mark.parametrize("name,wait", WAIT_FORMS)
    def test_zero_service_time_waits_nothing(self, name, wait):
        assert wait(1_000.0, 0.0, 1.0e5) == 0.0

    @pytest.mark.parametrize("name,wait", WAIT_FORMS)
    def test_zero_rate_waits_nothing(self, name, wait):
        assert wait(0.0, 100.0, 1.0e5) == 0.0
