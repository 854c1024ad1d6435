"""Ring-buffer decode edge cases.

What :meth:`SpanTracer.finish` decodes on whole runs is pinned by the
golden digests in ``test_trace_digests.py``.  These tests pin the
ring-specific edge cases around it: growth across the preallocation
boundary, the pure-vs-compiled sink agreement, the two snapshot shapes
(``array`` slices and ``bytes``) decoding alike, column equality of
timelines, one key table per pickled trace, and the cap on interned
attribution keys.
"""

from __future__ import annotations

import dataclasses
import pickle
from unittest import mock

import pytest

from repro.observability import (
    Interval,
    SpanTracer,
    TraceContext,
)
from repro.observability.ringbuffer import (
    CODE_BITS,
    PyIntervalSink,
    decode_timelines,
)
from repro.paperdata.categories import FunctionalityCategory, LeafCategory
from repro.simulator.metrics import CycleKind, RequestRecord

from .conftest import cache1_trace


def test_ring_growth_across_preallocation_boundary():
    """Tiny initial capacities force both rings (spans and intervals)
    through multiple doublings mid-run; the decoded trace must be
    unchanged."""
    tiny = cache1_trace(
        SpanTracer(label="run", span_capacity=2, interval_capacity=2)
    )
    roomy = cache1_trace(
        SpanTracer(label="run", span_capacity=65536, interval_capacity=262144)
    )
    assert len(tiny.spans) > 2, "run too small to cross the boundary"
    assert tiny == roomy


def test_pure_sink_agrees_with_selected_sink():
    """Forcing the pure-Python interval sink must not change the decoded
    trace.  Both runs use the pure engine, the one engine that records
    into either sink.  On a checkout without the compiled extension both
    runs use the pure sink and this degenerates to determinism."""
    import repro.observability.tracer as tracer_module
    import repro.simulator.runner as runner
    from repro.simulator.engine import PyEngine

    with mock.patch.object(runner, "Engine", PyEngine):
        selected = cache1_trace(SpanTracer(label="run"))
        with mock.patch.object(tracer_module, "_COMPILED_SINK", None):
            tracer = SpanTracer(label="run")
            assert isinstance(tracer._sink, PyIntervalSink)
            pure = cache1_trace(tracer)
    assert selected == pure


def test_timeline_equality_compares_header_keys_and_columns():
    """A timeline equals a copy of its columns; moving one interval end,
    reordering the key table or changing the header breaks the equality."""
    trace = cache1_trace(SpanTracer(label="run"))
    decoded = max(trace.timelines, key=lambda timeline: len(timeline.codes))
    assert len(decoded.keys) > 1
    copied = dataclasses.replace(
        decoded, starts=decoded.starts.copy(), ends=decoded.ends.copy(),
        codes=decoded.codes.copy(), keys=tuple(decoded.keys),
    )
    assert copied == decoded
    ends = decoded.ends.copy()
    ends[-1] += 1.0
    assert dataclasses.replace(decoded, ends=ends) != decoded
    reordered = dataclasses.replace(decoded, keys=decoded.keys[::-1])
    assert reordered != decoded
    assert dataclasses.replace(decoded, degraded=not decoded.degraded) != decoded


def test_pickled_trace_carries_one_key_table():
    trace = cache1_trace(SpanTracer(label="run"))
    restored = pickle.loads(pickle.dumps(trace))
    assert restored == trace
    keys = {id(timeline.keys) for timeline in restored.timelines}
    assert len(keys) == 1


class _BytesSnapshotSink:
    """A sink whose snapshot is three ``bytes`` columns, the shape the
    compiled ``IntervalSink.snapshot()`` returns."""

    def __init__(self, sink: PyIntervalSink) -> None:
        self._sink = sink

    def keys(self):
        return self._sink.keys()

    def snapshot(self):
        return tuple(column.tobytes() for column in self._sink.snapshot())


def test_array_and_bytes_snapshots_decode_alike():
    """The pure sink snapshots ``array`` slices and the compiled sink
    ``bytes``; the decoded timelines must not depend on the shape."""
    io, logic = FunctionalityCategory.IO, FunctionalityCategory.APPLICATION_LOGIC
    memory, zstd = LeafCategory.MEMORY, LeafCategory.ZSTD
    contexts = []
    for index in range(3):
        context = TraceContext(index, RequestRecord(index, 10.0 * index),
                               index << CODE_BITS)
        context.body_end = 10.0 * index + 4.0
        context.record.completed_at = 10.0 * index + 5.0
        contexts.append(context)
    contexts[2].tag = "backoff"
    sink = PyIntervalSink(2)  # grows twice across the six rows
    sink.record(contexts[1], 10.0, 11.0, io, memory, CycleKind.USEFUL)
    sink.record(contexts[0], 0.0, 1.5, logic, zstd, "hold-wait")
    sink.record(contexts[2], 20.0, 20.25, io, memory, CycleKind.USEFUL)
    sink.record(contexts[1], 11.0, 12.0, io, memory, CycleKind.USEFUL)
    sink.record(contexts[0], 1.5, 3.0, io, memory, CycleKind.THREAD_SWITCH)
    sink.record(contexts[1], 12.0, 13.5, logic, zstd, "hold-wait")

    from_arrays = decode_timelines(sink, contexts)
    from_bytes = decode_timelines(_BytesSnapshotSink(sink), contexts)
    assert from_arrays == from_bytes
    for ours, theirs in zip(from_arrays, from_bytes):
        for column in ("starts", "ends", "codes"):
            mine, other = getattr(ours, column), getattr(theirs, column)
            assert mine.dtype == other.dtype
            assert mine.tolist() == other.tolist()
        assert ours.keys == theirs.keys
    assert from_arrays[0].intervals == (
        Interval(0.0, 1.5, "application-logic", "zstd", "hold-wait"),
        Interval(1.5, 3.0, "secure-insecure-io", "memory", "thread-switch"),
    )
    assert from_arrays[1].intervals == (
        Interval(10.0, 11.0, "secure-insecure-io", "memory", "useful"),
        Interval(11.0, 12.0, "secure-insecure-io", "memory", "useful"),
        Interval(12.0, 13.5, "application-logic", "zstd", "hold-wait"),
    )
    assert from_arrays[2].intervals == (
        Interval(20.0, 20.25, "secure-insecure-io", "memory", "useful",
                 "backoff"),
    )
    assert all(t.keys is from_arrays[0].keys for t in from_arrays)


def test_interval_sink_key_interning_is_bounded():
    """The packed meta word caps distinct (functionality, leaf, kind,
    tag) keys; exceeding the cap must be a loud OverflowError, not a
    silent corruption."""
    from repro.observability import ringbuffer

    sink = PyIntervalSink(4)

    class Context:
        packed = 0
        tag = None

    with mock.patch.object(ringbuffer, "CODE_MASK", 1):
        sink.record(Context(), 0.0, 1.0, "f0", "l", "k")
        sink.record(Context(), 1.0, 2.0, "f1", "l", "k")
        with pytest.raises(OverflowError):
            sink.record(Context(), 2.0, 3.0, "f2", "l", "k")
