"""FaultPolicy validation and derived quantities."""

import pytest

from repro.errors import ParameterError
from repro.faults import FaultPolicy
from repro.faults.policy import NO_FAULTS


class TestValidation:
    def test_default_policy_is_null(self):
        assert NO_FAULTS.is_null
        assert FaultPolicy().is_null

    def test_nonzero_drop_is_not_null(self):
        assert not FaultPolicy(drop_probability=0.01).is_null

    def test_nonzero_spike_is_not_null(self):
        assert not FaultPolicy(spike_probability=0.5, spike_cycles=10.0).is_null

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_drop_probability_range(self, p):
        with pytest.raises(ParameterError):
            FaultPolicy(drop_probability=p)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_spike_probability_range(self, p):
        with pytest.raises(ParameterError):
            FaultPolicy(spike_probability=p)

    def test_drop_plus_spike_cannot_exceed_one(self):
        with pytest.raises(ParameterError):
            FaultPolicy(drop_probability=0.7, spike_probability=0.4)
        FaultPolicy(drop_probability=0.7, spike_probability=0.3)

    @pytest.mark.parametrize(
        "field", ["spike_cycles", "timeout_cycles", "backoff_base_cycles"]
    )
    def test_cycle_fields_non_negative(self, field):
        with pytest.raises(ParameterError):
            FaultPolicy(**{field: -1.0})

    def test_max_retries_non_negative(self):
        with pytest.raises(ParameterError):
            FaultPolicy(max_retries=-1)

    def test_backoff_multiplier_positive(self):
        with pytest.raises(ParameterError):
            FaultPolicy(backoff_multiplier=0.0)

    def test_policy_is_frozen(self):
        with pytest.raises(Exception):
            NO_FAULTS.drop_probability = 0.5


class TestBackoffSchedule:
    def test_exponential_growth(self):
        policy = FaultPolicy(
            drop_probability=0.1,
            backoff_base_cycles=100.0,
            backoff_multiplier=3.0,
            max_retries=4,
        )
        assert policy.backoff_cycles(0) == 100.0
        assert policy.backoff_cycles(1) == 300.0
        assert policy.backoff_cycles(2) == 900.0

    def test_zero_base_means_no_backoff(self):
        policy = FaultPolicy(drop_probability=0.1, max_retries=3)
        assert policy.backoff_cycles(0) == 0.0
        assert policy.backoff_cycles(2) == 0.0
