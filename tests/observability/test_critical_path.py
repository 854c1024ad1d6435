"""Critical-path attribution: components must sum to measured latency.

The accounting identity is the whole point of the analysis -- every
completed request's component breakdown, including the two residual
waits, reproduces its measured latency to float-summation precision,
healthy or faulted, under all three threading designs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.observability import (
    RequestTimeline,
    attribute_requests,
    attribute_timeline,
    attribution_totals,
    fault_cost_cycles,
)
from repro.observability.critical_path import (
    FAULT_TAGS,
    RESPONSE_WAIT,
    SCHEDULER_WAIT,
)

from .conftest import DESIGNS

#: Residuals are *defined* as differences against measured timestamps,
#: so only fsum rounding separates total from latency.
TOLERANCE = 1e-9


class TestAccountingIdentity:
    def test_healthy_attributions_sum_to_latency(self, healthy_trace):
        attributions = attribute_requests(healthy_trace)
        assert attributions
        for attribution in attributions:
            assert attribution.residual_error <= TOLERANCE * max(
                attribution.latency, 1.0
            )

    @pytest.mark.parametrize("design", DESIGNS)
    def test_faulted_attributions_sum_to_latency(
        self, faulted_results, design
    ):
        attributions = attribute_requests(faulted_results[design].trace)
        assert attributions
        for attribution in attributions:
            assert attribution.residual_error <= TOLERANCE * max(
                attribution.latency, 1.0
            )

    def test_totals_equal_sum_of_per_request_components(self, healthy_trace):
        attributions = attribute_requests(healthy_trace)
        totals = attribution_totals(attributions)
        assert math.fsum(totals.values()) == pytest.approx(
            math.fsum(a.latency for a in attributions)
        )

    def test_residual_components_always_present(self, healthy_trace):
        for attribution in attribute_requests(healthy_trace):
            names = [name for name, _ in attribution.components]
            assert names[-2:] == [SCHEDULER_WAIT, RESPONSE_WAIT]


class TestFaultCosts:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_faulted_runs_attribute_recovery_cycles(
        self, faulted_results, design
    ):
        attributions = attribute_requests(faulted_results[design].trace)
        total_fault = math.fsum(
            fault_cost_cycles(a) for a in attributions
        )
        assert total_fault > 0.0

    def test_healthy_runs_pay_no_fault_tax(self, healthy_trace):
        for attribution in attribute_requests(healthy_trace):
            assert fault_cost_cycles(attribution) == 0.0

    def test_fault_components_use_the_taxonomy_tags(self, faulted_results):
        result = faulted_results[DESIGNS[0]]
        totals = attribution_totals(attribute_requests(result.trace))
        assert any(tag in totals for tag in FAULT_TAGS)


class TestEdgeCases:
    def test_incomplete_request_is_rejected(self):
        timeline = RequestTimeline(
            request_id=7, started_at=0.0, body_end=None,
            completed_at=None, degraded=False, starts=np.empty(0),
            ends=np.empty(0), codes=np.empty(0, dtype=np.int64), keys=(),
        )
        with pytest.raises(ValueError, match="did not complete"):
            attribute_timeline(timeline)

    def test_missing_body_end_is_rejected(self):
        timeline = RequestTimeline(
            request_id=7, started_at=0.0, body_end=None,
            completed_at=10.0, degraded=False, starts=np.empty(0),
            ends=np.empty(0), codes=np.empty(0, dtype=np.int64), keys=(),
        )
        with pytest.raises(ValueError, match="body end"):
            attribute_timeline(timeline)

    def test_component_lookup_defaults_to_zero(self, healthy_trace):
        attribution = attribute_requests(healthy_trace)[0]
        assert attribution.component("no-such-component") == 0.0
