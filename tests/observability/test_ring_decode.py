"""Ring-buffer decode equality and edge cases.

The ring tracer's contract is that :meth:`SpanTracer.finish` decodes its
flat columns into *exactly* the :class:`TraceData` the legacy
object-per-span tracer (:mod:`repro.observability.legacy`) produced --
span ids, parents, attributes, every timeline's header and interval
sequence, degradation tracks, all of it.
These tests pin that equality on a healthy characterization run, on a
faulted run exercising every fault span opcode, and on a topology run
with RPC hops, plus the ring-specific edge cases: growth across the
preallocation boundary, the pure-vs-compiled sink agreement, and the
two snapshot shapes (``array`` slices and lists) decoding alike.
"""

from __future__ import annotations

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest

from repro.observability import (
    Interval,
    RequestTimeline,
    SpanTracer,
    TraceContext,
)
from repro.observability.legacy import ObjectSpanTracer
from repro.observability.ringbuffer import (
    CODE_BITS,
    PyIntervalSink,
    decode_timelines,
)
from repro.paperdata.categories import FunctionalityCategory, LeafCategory
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.metrics import CycleKind, RequestRecord
from repro.simulator.service import Microservice
from repro.workloads import build_workload

from .conftest import FAULTED


def _trace_cache1(tracer):
    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=2.0e6)
    rng = np.random.default_rng(2020)

    def build(engine, cpu, metrics):
        service = Microservice(engine, cpu, metrics, name="cache1")
        return service, workload.request_factory(rng)

    result = run_simulation(build, config, tracer=tracer)
    assert result.trace is not None
    return result.trace


def test_ring_decode_equals_legacy_tracer_on_healthy_run():
    ring = _trace_cache1(SpanTracer(label="run"))
    legacy = _trace_cache1(ObjectSpanTracer(label="run"))
    assert ring.spans, "expected a non-trivial trace"
    assert ring.spans == legacy.spans
    assert ring.timelines == legacy.timelines
    assert ring.degradations == legacy.degradations
    assert ring == legacy


def test_ring_decode_equals_legacy_tracer_on_faulted_run():
    """Every fault opcode (ATTEMPT/BACKOFF/FALLBACK) and fault-tagged
    interval decodes identically to the eager object tracer."""
    from repro.application.resilience import traced_resilience_run

    ring = traced_resilience_run(**FAULTED).trace
    with mock.patch("repro.observability.SpanTracer", ObjectSpanTracer):
        legacy = traced_resilience_run(**FAULTED).trace
    fault_tags = {
        interval.tag
        for timeline in ring.timelines
        for interval in timeline.intervals
    }
    assert fault_tags - {None}, "faulted run recorded no fault-tagged work"
    assert ring == legacy


def test_ring_decode_equals_legacy_tracer_on_topology_run():
    from repro.topology import (
        ApplicationSimConfig,
        Call,
        CallGraph,
        ServiceNode,
        simulate_application,
    )

    graph = CallGraph(
        [ServiceNode("front", 10_000.0), ServiceNode("leaf", 5_000.0)],
        [Call("front", "leaf", network_cycles=1_000.0)],
        root="front",
    )
    config = ApplicationSimConfig(
        cores_per_service=2, arrivals_per_unit=200, window_cycles=2.0e7,
    )
    ring = simulate_application(
        graph, config, tracer=SpanTracer(label="topology")
    ).trace
    legacy = simulate_application(
        graph, config, tracer=ObjectSpanTracer(label="topology")
    ).trace
    assert ring.spans, "expected RPC spans"
    assert ring == legacy


def test_ring_growth_across_preallocation_boundary():
    """Tiny initial capacities force both rings (spans and intervals)
    through multiple doublings mid-run; the decoded trace must be
    unchanged."""
    tiny = _trace_cache1(
        SpanTracer(label="run", span_capacity=2, interval_capacity=2)
    )
    roomy = _trace_cache1(
        SpanTracer(label="run", span_capacity=65536, interval_capacity=262144)
    )
    assert len(tiny.spans) > 2, "run too small to cross the boundary"
    assert tiny == roomy


def test_pure_sink_agrees_with_selected_sink():
    """Forcing the pure-Python interval sink must not change the decoded
    trace.  On a checkout without the compiled extension both runs use
    the pure sink and this degenerates to determinism."""
    import repro.observability.tracer as tracer_module

    selected = _trace_cache1(SpanTracer(label="run"))
    with mock.patch.object(tracer_module, "_COMPILED_SINK", None):
        tracer = SpanTracer(label="run")
        assert isinstance(tracer._sink, PyIntervalSink)
        pure = _trace_cache1(tracer)
    assert selected == pure


def test_timeline_equality_compares_content_not_encoding():
    """A timeline re-encoded with a key table of its own equals the
    decoded one; changing one interval breaks the equality."""
    trace = _trace_cache1(SpanTracer(label="run"))
    decoded = max(trace.timelines, key=lambda timeline: len(timeline.codes))
    header = (decoded.request_id, decoded.started_at, decoded.body_end,
              decoded.completed_at, decoded.degraded)
    intervals = decoded.intervals
    reencoded = RequestTimeline.from_intervals(*header, intervals)
    assert reencoded.keys != decoded.keys
    assert reencoded == decoded
    shifted = Interval(intervals[-1].start, intervals[-1].end + 1.0,
                       *dataclasses.astuple(intervals[-1])[2:])
    assert RequestTimeline.from_intervals(
        *header, intervals[:-1] + (shifted,)
    ) != decoded


def test_pickled_trace_carries_one_key_table():
    trace = _trace_cache1(SpanTracer(label="run"))
    restored = pickle.loads(pickle.dumps(trace))
    assert restored == trace
    keys = {id(timeline.keys) for timeline in restored.timelines}
    assert len(keys) == 1


class _ListSnapshotSink:
    """A sink whose snapshot is three Python lists, the shape the
    compiled ``IntervalSink.snapshot()`` returns."""

    def __init__(self, sink: PyIntervalSink) -> None:
        self._sink = sink

    def keys(self):
        return self._sink.keys()

    def snapshot(self):
        return tuple(list(column) for column in self._sink.snapshot())


def test_array_and_list_snapshots_decode_alike():
    """The pure sink snapshots ``array`` slices and the compiled sink
    Python lists; the decoded timelines must not depend on the shape."""
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
    from_lists = decode_timelines(_ListSnapshotSink(sink), contexts)
    assert from_arrays == from_lists
    for ours, theirs in zip(from_arrays, from_lists):
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
