"""Per-request span tracing, windowed metrics, and critical-path analysis.

The production-observability substrate over the DES, in four pieces:

* :mod:`~repro.observability.spans` / :mod:`~repro.observability.tracer`
  -- Dapper-style spans with causal parent links and deterministic ids,
  recorded by a passive :class:`SpanTracer` the simulator calls through
  ``is not None`` guards (zero observer effect by construction).
* :mod:`~repro.observability.windows` -- Monarch-style tumbling-window
  counters and fixed-bucket histograms over simulated time.
* :mod:`~repro.observability.critical_path` -- per-request latency
  attribution whose components sum to measured latency.
* :mod:`~repro.observability.export` -- OTLP span JSON and folded
  flamegraph stacks (the Chrome/Perfetto exporter lives with the
  simulator in :mod:`repro.simulator.trace_export`).
* :mod:`~repro.observability.telemetry` -- runtime *self*-telemetry:
  the same span/window vocabulary pointed at the batch executor, worker
  pool, and result cache that run the model, with a structural/timing
  artifact split that keeps the deterministic contract intact.
"""

from .critical_path import (
    RequestAttribution,
    attribute_requests,
    attribute_timeline,
    attribution_totals,
    fault_cost_cycles,
)
from .export import (
    folded_stack_samples,
    write_folded_stacks,
    write_otlp_spans,
)
from .spans import (
    DegradationTrack,
    Interval,
    RequestTimeline,
    Span,
    SpanKind,
    TraceData,
    span_id_from_sequence,
    trace_id_from_request,
)
from .telemetry import (
    TELEMETRY_SCHEMA,
    CacheTelemetry,
    MonotonicClock,
    RuntimeTelemetry,
    chrome_payload,
    load_runtime_telemetry,
    summarize_runtime_telemetry,
    trace_data_from_payload,
    write_runtime_telemetry,
)
from .tracer import SpanTracer, TraceContext
from .windows import (
    Histogram,
    WindowPoint,
    WindowedSeries,
    fixed_bucket_histogram,
    metrics_payload,
    windowed_series,
    write_windowed_metrics,
)

__all__ = [
    "CacheTelemetry",
    "DegradationTrack",
    "Histogram",
    "Interval",
    "MonotonicClock",
    "RequestAttribution",
    "RequestTimeline",
    "RuntimeTelemetry",
    "Span",
    "SpanKind",
    "SpanTracer",
    "TELEMETRY_SCHEMA",
    "TraceContext",
    "TraceData",
    "WindowPoint",
    "WindowedSeries",
    "attribute_requests",
    "attribute_timeline",
    "attribution_totals",
    "chrome_payload",
    "fault_cost_cycles",
    "fixed_bucket_histogram",
    "folded_stack_samples",
    "load_runtime_telemetry",
    "metrics_payload",
    "span_id_from_sequence",
    "summarize_runtime_telemetry",
    "trace_data_from_payload",
    "trace_id_from_request",
    "windowed_series",
    "write_folded_stacks",
    "write_otlp_spans",
    "write_runtime_telemetry",
    "write_windowed_metrics",
]
