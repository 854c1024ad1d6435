"""Exporters: OTLP-shaped span JSON and folded flamegraph stacks.

Two standard interchange formats on top of :class:`TraceData`:

* :func:`otlp_json` -- the OpenTelemetry OTLP/JSON trace shape
  (``resourceSpans`` > ``scopeSpans`` > ``spans``), one simulated cycle
  mapped to one nanosecond, so any OTLP-speaking viewer can load a run.
* :func:`folded_stack_samples` -- per-request intervals aggregated into
  ``service;functionality;leaf``-style stacks through the existing
  :mod:`repro.profiling.folded` serializer, so latency flamegraphs come
  from the same pipeline as the Strobelight-style cycle flamegraphs.

Both outputs are byte-deterministic: same trace, same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

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
