"""Exporters: OTLP span JSON, folded stacks, the Chrome trace and the
JSON artifact writer."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.observability import (
    DegradationTrack,
    Span,
    SpanKind,
    TraceData,
    folded_stack_samples,
    write_folded_stacks,
    write_otlp_spans,
)
from repro.observability.export import (
    CYCLES_PER_US,
    OTLP_SCOPE,
    export_chrome_trace,
    otlp_json,
    otlp_payload,
    trace_events,
    write_json_artifact,
)
from repro.simulator import MetricSink
from repro.simulator.metrics import OffloadRecord

from .conftest import DESIGNS


_ATTR_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**70),
    st.floats(allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),  # non-ASCII and control characters included
)
_STAMPS = st.floats(allow_nan=False, allow_infinity=False)
_SPANS = st.builds(
    Span,
    span_id=st.text(),
    trace_id=st.text(),
    parent_id=st.none() | st.text(),
    name=st.text(),
    kind=st.sampled_from(SpanKind),
    start=_STAMPS,
    end=st.none() | _STAMPS,
    attrs=st.lists(st.tuples(st.text(), _ATTR_VALUES), max_size=6).map(tuple),
)


class TestOtlp:
    def test_payload_shape(self, healthy_trace):
        payload = otlp_payload(healthy_trace)
        resource = payload["resourceSpans"][0]
        service = resource["resource"]["attributes"][0]
        assert service["key"] == "service.name"
        assert service["value"]["stringValue"] == healthy_trace.label
        scope = resource["scopeSpans"][0]
        assert scope["scope"]["name"] == OTLP_SCOPE
        assert len(scope["spans"]) == len(healthy_trace.spans)

    def test_child_spans_carry_parent_ids(self, healthy_trace):
        spans = otlp_payload(healthy_trace)["resourceSpans"][0][
            "scopeSpans"
        ][0]["spans"]
        with_parent = [s for s in spans if "parentSpanId" in s]
        assert with_parent
        ids = {s["spanId"] for s in spans}
        assert all(s["parentSpanId"] in ids for s in with_parent)

    def test_kind_annotations_round_trip(self, faulted_results):
        trace = faulted_results[DESIGNS[0]].trace
        spans = otlp_payload(trace)["resourceSpans"][0][
            "scopeSpans"
        ][0]["spans"]
        kinds = {
            attr["value"]["stringValue"]
            for span in spans
            for attr in span["attributes"]
            if attr["key"] == "span.kind.repro"
        }
        assert {"request", "offload", "attempt", "backoff"} <= kinds

    def test_write_is_byte_deterministic(self, healthy_trace, tmp_path):
        first = write_otlp_spans(healthy_trace, tmp_path / "a.json")
        second = write_otlp_spans(healthy_trace, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()
        json.loads(first.read_text())  # must be valid JSON

    @settings(deadline=None, max_examples=200)
    @given(label=st.text(), spans=st.lists(_SPANS, max_size=4))
    @example(label="", spans=[])
    @example(label="naïve\x00", spans=[Span(
        span_id="1", trace_id='"t"', parent_id=None, name="\n☃",
        kind=SpanKind.FALLBACK, start=-0.5, end=None,
        attrs=(("nan", float("nan")), ("inf", float("inf")),
               ("-inf", float("-inf")), ("-0", -0.0), ("sub", 5e-324),
               ("big", 2**64), ("neg", -(2**63) - 1), ("yes", True),
               ("\x1f", "\u2028\ud7ff\x7f")),
    )])
    def test_text_is_the_canonical_dump_of_itself(self, label, spans):
        # Re-dumping through the stdlib encoder gives back the writer's
        # text only when every byte of the format is exactly right.
        text = otlp_json(TraceData(label=label, spans=tuple(spans),
                                   timelines=()))
        canonical = json.dumps(json.loads(text), sort_keys=True, indent=1)
        assert canonical + "\n" == text


class TestFoldedStacks:
    def test_frames_root_at_the_trace_label(self, healthy_trace):
        samples = folded_stack_samples(healthy_trace)
        assert samples
        assert all(
            sample.frames[0] == healthy_trace.label for sample in samples
        )
        assert all(sample.cycles > 0.0 for sample in samples)

    def test_fault_tags_surface_as_leaf_markers(self, faulted_results):
        samples = folded_stack_samples(faulted_results[DESIGNS[0]].trace)
        leaves = {sample.frames[-1] for sample in samples}
        assert any("[backoff]" in leaf or "[fallback]" in leaf
                   or "[fault-timeout]" in leaf for leaf in leaves)

    def test_write_produces_folded_lines(self, healthy_trace, tmp_path):
        path = write_folded_stacks(healthy_trace, tmp_path / "p.folded")
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert ";" in stack
            assert int(count) >= 0


#: A trace with no spans: the Chrome export holds the sink's tracks only.
EMPTY = TraceData(label="empty", spans=(), timelines=())


def populated_sink():
    sink = MetricSink()
    request = sink.open_request(1, now=1_000.0)
    request.completed_at = 5_000.0
    sink.open_request(2, now=2_000.0)  # incomplete: skipped
    sink.record_offload(OffloadRecord(
        kernel="compression", granularity=512.0, dispatched_at=1_200.0,
        queued_cycles=100.0, service_cycles=400.0, completed_at=1_700.0,
    ))
    sink.record_offload(OffloadRecord(
        kernel="encryption", granularity=64.0, dispatched_at=2_000.0,
        queued_cycles=0.0, service_cycles=50.0,
    ))
    return sink


class TestChromeSinkTracks:
    def test_request_events_duration(self):
        events = trace_events(populated_sink(), EMPTY)
        request_events = [e for e in events if e.get("cat") == "request"]
        assert len(request_events) == 1
        assert request_events[0]["ts"] == pytest.approx(1_000.0 / CYCLES_PER_US)
        assert request_events[0]["dur"] == pytest.approx(4_000.0 / CYCLES_PER_US)

    def test_offloads_get_per_kernel_tracks(self):
        events = trace_events(populated_sink(), EMPTY)
        names = {
            e["args"]["name"]
            for e in events
            if e["name"] == "thread_name"
        }
        assert "offloads:compression" in names
        assert "offloads:encryption" in names

    def test_incomplete_offload_uses_estimated_end(self):
        events = trace_events(populated_sink(), EMPTY)
        encryption = [e for e in events if e["name"].startswith("encryption")]
        assert encryption[0]["dur"] == pytest.approx(50.0 / CYCLES_PER_US)

    def test_offload_args_carry_measurements(self):
        events = trace_events(populated_sink(), EMPTY)
        compression = [
            e for e in events if e["name"].startswith("compression")
        ][0]
        assert compression["args"]["granularity_bytes"] == 512.0
        assert compression["args"]["queued_cycles"] == 100.0

    def test_writes_valid_json(self, tmp_path):
        path = export_chrome_trace(
            populated_sink(), tmp_path / "trace.json", EMPTY
        )
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert payload["displayTimeUnit"] == "ms"

    def test_export_of_real_simulation(self, tmp_path):
        import numpy as np

        from repro.simulator import (
            Microservice,
            SimulationConfig,
            run_simulation,
        )
        from repro.workloads import build_workload

        workload = build_workload("cache1")
        rng = np.random.default_rng(0)

        def build(engine, cpu, metrics):
            return (
                Microservice(engine, cpu, metrics, name="cache1"),
                workload.request_factory(rng),
            )

        result = run_simulation(
            build, SimulationConfig(num_cores=1, window_cycles=1.2e6)
        )
        path = export_chrome_trace(result.metrics, tmp_path / "sim.json", EMPTY)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) > 20


class TestChromeTrace:
    def test_flow_arrows_bind_request_to_kernel_track(self, faulted_results):
        result = faulted_results[DESIGNS[0]]
        events = trace_events(result.metrics, result.trace)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts and finishes
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        # Arrows start on the request track and land on offload tracks.
        assert all(e["tid"] == 1 for e in starts)
        assert all(e["tid"] != 1 for e in finishes)

    def test_span_tracks_strictly_extend_the_sink_tracks(self, faulted_results):
        result = faulted_results[DESIGNS[0]]
        with_spans = trace_events(result.metrics, result.trace)
        sink_only = trace_events(result.metrics, EMPTY)
        assert with_spans[: len(sink_only)] == sink_only
        assert len(with_spans) > len(sink_only)

    def test_fault_events_render_on_fault_tracks(self, faulted_results):
        result = faulted_results[DESIGNS[0]]
        events = trace_events(result.metrics, result.trace)
        track_names = {
            e["args"]["name"]
            for e in events
            if e["name"] == "thread_name"
        }
        assert any(name.startswith("faults:") for name in track_names)
        categories = {e.get("cat") for e in events}
        assert "fault" in categories
        drops = [e for e in events if str(e["name"]).startswith("drop/")]
        assert drops
        assert all("retry_index" in e["args"] for e in drops)

    def test_degradation_windows_render_with_null_outage(self, tmp_path):
        trace = TraceData(
            label="t", spans=(), timelines=(),
            degradations=(
                DegradationTrack(
                    kernel="compression",
                    windows=(
                        (0.0, 10.0, 4.0),
                        (20.0, 30.0, float("inf")),
                    ),
                ),
            ),
        )
        path = export_chrome_trace(
            MetricSink(), tmp_path / "d.json", trace=trace
        )
        payload = json.loads(path.read_text())
        degradation = [
            e for e in payload["traceEvents"]
            if e.get("cat") == "degradation"
        ]
        assert {e["name"] for e in degradation} == {"degraded", "outage"}
        by_name = {e["name"]: e for e in degradation}
        assert by_name["degraded"]["args"]["service_multiplier"] == 4.0
        assert by_name["outage"]["args"]["service_multiplier"] is None

    def test_export_is_byte_deterministic(self, faulted_results, tmp_path):
        result = faulted_results[DESIGNS[0]]
        first = export_chrome_trace(
            result.metrics, tmp_path / "a.json", trace=result.trace
        )
        second = export_chrome_trace(
            result.metrics, tmp_path / "b.json", trace=result.trace
        )
        assert first.read_bytes() == second.read_bytes()

    def test_exported_phases_cover_the_schema(self, faulted_results, tmp_path):
        result = faulted_results[DESIGNS[0]]
        path = export_chrome_trace(
            result.metrics, tmp_path / "trace.json", trace=result.trace
        )
        payload = json.loads(path.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "s", "f", "i"} <= phases


class TestJsonArtifact:
    def test_layout_is_sorted_indent_one_with_a_newline(self, tmp_path):
        path = write_json_artifact({"b": [1, 2], "a": {"d": 1, "c": None}},
                                   tmp_path / "artifact.json")
        assert path.read_text() == (
            '{\n "a": {\n  "c": null,\n  "d": 1\n },\n'
            ' "b": [\n  1,\n  2\n ]\n}\n'
        )
