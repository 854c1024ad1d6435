"""FaultInjector determinism and outcome statistics."""

import pytest

from repro.errors import ParameterError
from repro.faults import (
    AttemptOutcome,
    DegradationSchedule,
    DegradationWindow,
    FaultInjector,
    FaultPolicy,
)
from repro.faults.degradation import ALWAYS_HEALTHY
from repro.faults.policy import NO_FAULTS


def _outcomes(injector, count, now=0.0):
    return [injector.outcome(now) for _ in range(count)]


class TestDeterminism:
    def test_same_seed_same_outcome_stream(self):
        policy = FaultPolicy(drop_probability=0.3, spike_probability=0.2,
                             spike_cycles=50.0)
        a = FaultInjector(policy, seed=11)
        b = FaultInjector(policy, seed=11)
        assert _outcomes(a, 500) == _outcomes(b, 500)

    def test_different_seeds_differ(self):
        policy = FaultPolicy(drop_probability=0.5)
        a = FaultInjector(policy, seed=1)
        b = FaultInjector(policy, seed=2)
        assert _outcomes(a, 200) != _outcomes(b, 200)

    def test_outage_consumes_no_draw(self):
        """An outage window must not shift the Bernoulli stream outside
        the window: decisions after the outage are identical with and
        without it."""
        policy = FaultPolicy(drop_probability=0.4)
        schedule = DegradationSchedule(
            windows=(DegradationWindow(100.0, 200.0),)
        )
        plain = FaultInjector(policy, seed=7)
        gated = FaultInjector(policy, seed=7, schedule=schedule)
        before_plain = _outcomes(plain, 50, now=0.0)
        before_gated = _outcomes(gated, 50, now=0.0)
        assert before_plain == before_gated
        # Inside the outage: guaranteed drops, no entropy used.
        assert _outcomes(gated, 25, now=150.0) == [AttemptOutcome.DROP] * 25
        # After the outage the streams re-align exactly.
        assert _outcomes(plain, 50, now=300.0) == _outcomes(gated, 50, now=300.0)


class TestOutcomes:
    def test_null_policy_always_ok(self):
        injector = FaultInjector(NO_FAULTS, seed=0)
        assert not injector.active
        assert _outcomes(injector, 100) == [AttemptOutcome.OK] * 100

    def test_null_policy_with_null_schedule_inactive(self):
        injector = FaultInjector(NO_FAULTS, seed=0, schedule=ALWAYS_HEALTHY)
        assert not injector.active

    def test_null_policy_with_outage_schedule_is_active(self):
        schedule = DegradationSchedule(windows=(DegradationWindow(0.0, 1.0),))
        injector = FaultInjector(NO_FAULTS, seed=0, schedule=schedule)
        assert injector.active

    def test_drop_rate_matches_probability(self):
        policy = FaultPolicy(drop_probability=0.25)
        injector = FaultInjector(policy, seed=3)
        outcomes = _outcomes(injector, 20_000)
        drops = sum(o is AttemptOutcome.DROP for o in outcomes)
        assert drops / len(outcomes) == pytest.approx(0.25, abs=0.02)

    def test_spike_rate_matches_probability(self):
        policy = FaultPolicy(drop_probability=0.1, spike_probability=0.3,
                             spike_cycles=10.0)
        injector = FaultInjector(policy, seed=3)
        outcomes = _outcomes(injector, 20_000)
        spikes = sum(o is AttemptOutcome.SPIKE for o in outcomes)
        drops = sum(o is AttemptOutcome.DROP for o in outcomes)
        assert spikes / len(outcomes) == pytest.approx(0.3, abs=0.02)
        assert drops / len(outcomes) == pytest.approx(0.1, abs=0.02)

    def test_certain_drop(self):
        injector = FaultInjector(FaultPolicy(drop_probability=1.0), seed=9)
        assert _outcomes(injector, 100) == [AttemptOutcome.DROP] * 100

    def test_policy_type_checked(self):
        with pytest.raises(ParameterError):
            FaultInjector({"drop_probability": 0.5}, seed=0)
