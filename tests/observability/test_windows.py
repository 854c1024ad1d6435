"""Windowed time-series metrics: conservation, histograms, determinism."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.observability import (
    fixed_bucket_histogram,
    metrics_payload,
    windowed_series,
    write_json_artifact,
)
from repro.observability.windows import METRICS_SCHEMA

from .conftest import DESIGNS


def _healthy_series(traced_run, windows=10):
    simulation = traced_run.simulation
    horizon = simulation.config.window_cycles
    return windowed_series(
        simulation.metrics, horizon / windows, horizon,
        trace=simulation.trace,
    )


class TestHistogram:
    def test_counts_cover_every_value(self):
        histogram = fixed_bucket_histogram(
            [0.5, 1.0, 3.0, 99.0], bounds=(1.0, 2.0, 4.0)
        )
        assert histogram.counts == (2, 0, 1, 1)  # last bucket = overflow
        assert histogram.total == 4

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ParameterError):
            fixed_bucket_histogram([1.0], bounds=(2.0, 2.0))
        with pytest.raises(ParameterError):
            fixed_bucket_histogram([1.0], bounds=())

    def test_payload_shape(self):
        payload = fixed_bucket_histogram([1.0], bounds=(2.0,)).to_payload()
        assert payload == {"bounds": [2.0], "counts": [1, 0]}


class TestConservation:
    def test_windowed_arrivals_conserve_request_count(self, traced_run):
        series = _healthy_series(traced_run)
        total_arrivals = sum(point.arrivals for point in series.points)
        assert total_arrivals == len(traced_run.simulation.metrics.requests)

    def test_windowed_completions_conserve_completed_count(self, traced_run):
        series = _healthy_series(traced_run)
        total = sum(point.completions for point in series.points)
        assert total == traced_run.simulation.completed_requests

    def test_goodput_is_completions_minus_degraded(self, traced_run):
        for point in _healthy_series(traced_run).points:
            assert point.goodput == point.completions - point.degraded

    def test_series_accessor_matches_points(self, traced_run):
        series = _healthy_series(traced_run)
        assert series.series("arrivals") == [
            point.arrivals for point in series.points
        ]


class TestFaultCounters:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_trace_populates_fault_windows(self, faulted_results, design):
        result = faulted_results[design]
        horizon = result.config.window_cycles
        series = windowed_series(
            result.metrics, horizon / 8, horizon, trace=result.trace
        )
        assert sum(point.fault_drops for point in series.points) > 0
        assert sum(
            point.fault_backoff_cycles for point in series.points
        ) > 0.0

    def test_without_trace_fault_counters_read_zero(self, faulted_results):
        result = faulted_results[DESIGNS[0]]
        horizon = result.config.window_cycles
        series = windowed_series(result.metrics, horizon / 8, horizon)
        assert all(point.fault_drops == 0 for point in series.points)
        assert all(point.fault_fallbacks == 0 for point in series.points)


class TestValidationAndPayload:
    def test_rejects_nonpositive_window(self, traced_run):
        with pytest.raises(ParameterError):
            windowed_series(traced_run.simulation.metrics, 0.0, 1.0e6)
        with pytest.raises(ParameterError):
            windowed_series(traced_run.simulation.metrics, 1.0e5, 0.0)

    def test_payload_schema_and_window_count(self, traced_run):
        simulation = traced_run.simulation
        horizon = simulation.config.window_cycles
        payload = metrics_payload(
            simulation.metrics, horizon / 10, horizon, trace=simulation.trace
        )
        assert payload["schema"] == METRICS_SCHEMA
        assert len(payload["windows"]) == 10
        assert payload["latency_histogram"]["counts"]
        assert payload["queue_histogram"]["counts"]

    def test_write_is_byte_deterministic(self, traced_run, tmp_path):
        simulation = traced_run.simulation
        horizon = simulation.config.window_cycles
        payload = metrics_payload(
            simulation.metrics, horizon / 10, horizon, trace=simulation.trace
        )
        first = write_json_artifact(payload, tmp_path / "a.json")
        second = write_json_artifact(payload, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()
