"""Exporters: every file a finished run is written to.

One module turns a finished run into interchange formats, on top of
:class:`TraceData` and the simulator's :class:`MetricSink`:

* :func:`otlp_json` -- the OpenTelemetry OTLP/JSON trace shape
  (``resourceSpans`` > ``scopeSpans`` > ``spans``), one simulated cycle
  mapped to one nanosecond, so any OTLP-speaking viewer can load a run.
* :func:`folded_stack_samples` -- per-request intervals aggregated into
  ``service;functionality;leaf``-style stacks through the existing
  :mod:`repro.profiling.folded` serializer, so latency flamegraphs come
  from the same pipeline as the Strobelight-style cycle flamegraphs.
* :func:`export_chrome_trace` -- a simulated run as Chrome trace-event
  JSON for ``chrome://tracing`` / Perfetto: request and per-kernel
  offload tracks from the sink's records, plus flow arrows binding each
  dispatch to its device-side completion, per-kernel fault tracks and
  the injected degradation/outage windows from the trace.
* :func:`chrome_payload` -- the runtime self-telemetry span tree as a
  Chrome ``traceEvents`` document.
* :func:`write_json_artifact` -- the one writer of the sorted, indent-1
  JSON layout (windowed metrics, runtime telemetry, runtime Chrome).

Every output is byte-deterministic: same run, same bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..profiling.folded import to_folded_text
from ..profiling.stacks import SampledTrace
from .spans import SpanKind, TraceData

#: OTLP span-kind codes; every other kind is INTERNAL (1).
_OTLP_KINDS = {
    SpanKind.REQUEST: 2,  # SERVER
    SpanKind.RPC: 2,  # SERVER
    SpanKind.OFFLOAD: 3,  # CLIENT
    SpanKind.ATTEMPT: 3,  # CLIENT
}

#: Scope stamped on every exported span batch.
OTLP_SCOPE = "repro.observability"

_ENCODE = json.encoder.encode_basestring_ascii  # json.dumps' default
#: ``float.__repr__`` spellings that ``json.dumps`` writes differently.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The ``json.dumps(..., sort_keys=True, indent=1)`` layout of the
#: payload, one span and one attribute; spans go between the brackets.
_PAYLOAD = ('{\n "resourceSpans": [\n  {\n   "resource": {\n    "attributes": [\n'
            '     {\n      "key": "service.name",\n      "value": {\n'
            '       "stringValue": %s\n      }\n     }\n    ]\n   },\n'
            '   "scopeSpans": [\n    {\n     "scope": {\n      "name": %s\n'
            '     },\n     "spans": [%s]\n    }\n   ]\n  }\n ]\n}\n')
_SPAN = ('      {\n       "attributes": [\n%s\n       ],\n'
         '       "endTimeUnixNano": "%d",\n       "kind": %d,\n       "name": %s,\n'
         '%s       "spanId": %s,\n       "startTimeUnixNano": "%d",\n'
         '       "traceId": %s\n      }')
_PARENT = '       "parentSpanId": %s,\n'
_ATTRIBUTE = ('        {\n         "key": %s,\n         "value": {\n'
              '          %s\n         }\n        }')


def _attribute(key: str, value: object) -> str:
    """One span attribute, its value typed the OTLP way."""
    if isinstance(value, bool):
        member = '"boolValue": ' + ("true" if value else "false")
    elif isinstance(value, int):
        member = '"intValue": ' + _ENCODE(str(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        member = '"doubleValue": ' + _FLOAT_WORDS.get(text, text)
    else:
        member = '"stringValue": ' + _ENCODE(str(value))
    return _ATTRIBUTE % (_ENCODE(key), member)


#: Every span's last attributes: its kind, then the mark of a cut-off span.
_KIND_ATTRIBUTES = {kind: _attribute("span.kind.repro", kind.value)
                    for kind in SpanKind}
_TRUNCATED = _attribute("repro.window_truncated", True)


def otlp_json(trace: TraceData) -> str:
    """The OTLP/JSON text for one run, rendered straight from the spans:
    the bytes of ``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``."""
    spans = []
    for span in trace.spans:
        attributes = [_attribute(key, value) for key, value in span.attrs]
        attributes.append(_KIND_ATTRIBUTES[span.kind])
        if span.end is None:
            attributes.append(_TRUNCATED)
        parent = "" if span.parent_id is None else _PARENT % _ENCODE(span.parent_id)
        spans.append(_SPAN % (
            ",\n".join(attributes),
            round(span.start if span.end is None else span.end),
            _OTLP_KINDS.get(span.kind, 1), _ENCODE(span.name), parent,
            _ENCODE(span.span_id), round(span.start), _ENCODE(span.trace_id),
        ))
    body = "\n" + ",\n".join(spans) + "\n     " if spans else ""
    return _PAYLOAD % (_ENCODE(trace.label), _ENCODE(OTLP_SCOPE), body)


def otlp_payload(trace: TraceData) -> Dict[str, object]:
    """The OTLP/JSON payload for one run: :func:`otlp_json`, parsed."""
    return json.loads(otlp_json(trace))


def write_otlp_spans(trace: TraceData, path: Union[str, Path]) -> Path:
    """Write the OTLP span JSON to *path*, byte-deterministically."""
    path = Path(path)
    path.write_text(otlp_json(trace))
    return path


def _leaf_frame(key: Tuple[str, str, str, Optional[str]]) -> str:
    """The flamegraph leaf of one interval key: the leaf, marked with the
    fault tag or the non-useful cycle kind."""
    _, leaf, kind, tag = key
    marker = tag if tag is not None else kind
    return leaf if marker == "useful" else f"{leaf} [{marker}]"


def folded_stack_samples(trace: TraceData) -> Tuple[SampledTrace, ...]:
    """Aggregate per-request intervals into flamegraph stacks.

    Frames are ``label; functionality; leaf [kind-or-tag]`` -- the
    fault tags surface as their own leaves, so a flamegraph shows the
    backoff/fallback/timeout tax next to the work it interrupted.
    """
    slots: Dict[Tuple[str, ...], int] = {}
    tables: Dict[tuple, np.ndarray] = {}
    rows = []
    durations = []
    for timeline in trace.timelines:
        table = tables.get(timeline.keys)
        if table is None:
            table = tables[timeline.keys] = np.array([
                slots.setdefault(
                    (trace.label, key[0], _leaf_frame(key)), len(slots)
                )
                for key in timeline.keys
            ], dtype=np.intp)
        rows.append(table[timeline.codes])
        durations.append(timeline.ends - timeline.starts)
    if not slots:
        return ()
    # One bincount over the rows in trace order adds every stack's
    # weights in the order a running per-stack total would.
    row_slots = np.concatenate(rows)
    totals = np.bincount(
        row_slots, weights=np.concatenate(durations), minlength=len(slots)
    ).tolist()
    counts = np.bincount(row_slots, minlength=len(slots)).tolist()
    return tuple(
        SampledTrace(
            frames=frames, cycles=totals[slot], instructions=totals[slot]
        )
        for frames, slot in sorted(slots.items())
        if counts[slot]
    )


def write_folded_stacks(
    trace: TraceData, path: Union[str, Path], scale: float = 1.0
) -> Path:
    """Write the trace's folded flamegraph stacks to *path*."""
    path = Path(path)
    path.write_text(to_folded_text(folded_stack_samples(trace), scale))
    return path


def write_json_artifact(payload: object, path: Union[str, Path]) -> Path:
    """Write *payload* to *path* as sorted, indent-1 JSON plus a newline:
    the byte-deterministic layout of every JSON artifact except the
    simulator Chrome trace."""
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


#: Simulated cycles per Chrome trace microsecond (trace timestamps are "us").
CYCLES_PER_US = 2_000.0


def _ts(cycles: float) -> float:
    return cycles / CYCLES_PER_US


def trace_events(metrics, trace: TraceData) -> List[Dict]:
    """The Chrome trace-event list of one simulated run.

    The request and per-kernel offload tracks come from the
    :class:`~repro.simulator.metrics.MetricSink`'s records; the
    span-derived tracks that follow them come from *trace*.
    """
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "repro-simulator"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "requests"}},
    ]
    for record in metrics.requests:
        if record.completed_at is None:
            continue
        events.append({
            "name": f"request-{record.request_id}",
            "cat": "request",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": _ts(record.started_at),
            "dur": max(_ts(record.completed_at) - _ts(record.started_at), 0.001),
        })

    kernel_tracks: Dict[str, int] = {}
    next_tid = 2
    for index, offload in enumerate(metrics.offloads):
        if offload.kernel not in kernel_tracks:
            kernel_tracks[offload.kernel] = next_tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": next_tid,
                "args": {"name": f"offloads:{offload.kernel}"},
            })
            next_tid += 1
        tid = kernel_tracks[offload.kernel]
        end = (
            offload.completed_at
            if offload.completed_at is not None
            else offload.dispatched_at + offload.queued_cycles
            + offload.service_cycles
        )
        events.append({
            "name": f"{offload.kernel}[{index}]",
            "cat": "offload",
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": _ts(offload.dispatched_at),
            "dur": max(_ts(end) - _ts(offload.dispatched_at), 0.001),
            "args": {
                "granularity_bytes": offload.granularity,
                "queued_cycles": offload.queued_cycles,
                "service_cycles": offload.service_cycles,
            },
        })
    events.extend(_span_events(trace, kernel_tracks, next_tid))
    return events


def _span_events(
    trace: TraceData, kernel_tracks: Dict[str, int], next_tid: int
) -> List[Dict]:
    """Span-derived tracks: flow arrows, fault events, outage windows.

    Track ids continue after the per-kernel offload tracks; allocation
    follows span emission order, which is itself deterministic, so two
    exports of the same trace are byte-identical.
    """
    events: List[Dict] = []

    # Flow arrows: dispatch on the request track -> device completion on
    # the kernel's offload track.  The flow id is the span id (a per-run
    # sequence number), so arrows stay stable across exports.
    for span in trace.spans_of_kind(SpanKind.OFFLOAD):
        attrs = dict(span.attrs)
        kernel = attrs["kernel"]
        tid = kernel_tracks.get(kernel)
        if tid is None or span.end is None:
            continue
        flow_id = int(span.span_id, 16)
        events.append({
            "name": span.name, "cat": "offload-flow", "ph": "s",
            "id": flow_id, "pid": 1, "tid": 1, "ts": _ts(span.start),
        })
        events.append({
            "name": span.name, "cat": "offload-flow", "ph": "f", "bp": "e",
            "id": flow_id, "pid": 1, "tid": tid, "ts": _ts(span.end),
        })

    # Per-kernel fault tracks, allocated at first fault appearance.
    fault_tracks: Dict[str, int] = {}

    def fault_tid(kernel: str) -> int:
        nonlocal next_tid
        if kernel not in fault_tracks:
            fault_tracks[kernel] = next_tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": next_tid,
                "args": {"name": f"faults:{kernel}"},
            })
            next_tid += 1
        return fault_tracks[kernel]

    for span in trace.spans:
        attrs = dict(span.attrs)
        if span.kind is SpanKind.ATTEMPT:
            tid = fault_tid(attrs["kernel"])
            outcome = attrs["outcome"]
            if outcome == "drop":
                events.append({
                    "name": f"drop/{attrs['kernel']}", "cat": "fault",
                    "ph": "X", "pid": 1, "tid": tid, "ts": _ts(span.start),
                    "dur": max(_ts(span.end) - _ts(span.start), 0.001),
                    "args": {"retry_index": attrs["retry_index"]},
                })
            else:
                instant = {
                    "name": f"attempt-{outcome}/{attrs['kernel']}",
                    "cat": "fault", "ph": "i", "s": "t",
                    "pid": 1, "tid": tid, "ts": _ts(span.start),
                }
                if "spike_cycles" in attrs:
                    instant["args"] = {"spike_cycles": attrs["spike_cycles"]}
                events.append(instant)
        elif span.kind is SpanKind.BACKOFF:
            tid = fault_tid(attrs["kernel"])
            events.append({
                "name": f"backoff/{attrs['kernel']}", "cat": "fault",
                "ph": "X", "pid": 1, "tid": tid, "ts": _ts(span.start),
                "dur": max(_ts(span.end) - _ts(span.start), 0.001),
            })
        elif span.kind is SpanKind.FALLBACK:
            tid = fault_tid(attrs["kernel"])
            events.append({
                "name": f"fallback/{attrs['kernel']}", "cat": "fault",
                "ph": "X", "pid": 1, "tid": tid, "ts": _ts(span.start),
                "dur": max(_ts(span.end) - _ts(span.start), 0.001),
                "args": {"to_cpu": attrs["to_cpu"]},
            })

    # Injected degradation windows, one track per kernel (already sorted
    # by kernel in TraceData).  Infinite multipliers (full outages) are
    # encoded as null: "Infinity" is not valid JSON.
    for track in trace.degradations:
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": next_tid,
            "args": {"name": f"degraded:{track.kernel}"},
        })
        for start, end, multiplier in track.windows:
            outage = math.isinf(multiplier)
            events.append({
                "name": "outage" if outage else "degraded", "cat": "degradation",
                "ph": "X", "pid": 1, "tid": next_tid, "ts": _ts(start),
                "dur": max(_ts(end) - _ts(start), 0.001),
                "args": {
                    "service_multiplier": None if outage else multiplier,
                },
            })
        next_tid += 1
    return events


def export_chrome_trace(
    metrics, path: Union[str, Path], trace: TraceData
) -> Path:
    """Write one simulated run to *path* as Chrome trace-event JSON.

    The file is compact ``json.dumps`` output, not the indent-1 layout
    of :func:`write_json_artifact`.
    """
    path = Path(path)
    payload = {
        "traceEvents": trace_events(metrics, trace),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload))
    return path


def chrome_payload(trace: TraceData) -> Dict[str, object]:
    """Runtime spans as a Chrome ``traceEvents`` document.

    One complete ("X") event per span; nanosecond span stamps map to the
    microseconds Chrome expects.  Tracks: one row per batch/task/stage
    level via the span's kind.
    """
    events = []
    for span in trace.spans:
        end = span.start if span.end is None else span.end
        events.append({
            "name": span.name,
            "cat": span.kind.value,
            "ph": "X",
            "ts": span.start / 1e3,
            "dur": (end - span.start) / 1e3,
            "pid": trace.label,
            "tid": span.trace_id[-8:],
            "args": {key: value for key, value in span.attrs},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
