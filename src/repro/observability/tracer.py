"""The span tracer: a passive observer woven through the simulator.

A :class:`SpanTracer` records spans and per-request intervals as the DES
runs.  It is *write-only* from the simulator's point of view -- it never
schedules events, never consumes randomness, and never feeds a value back
into a simulation decision -- so attaching one cannot change any
simulated-time quantity.  That is the zero-observer-effect guarantee the
observability regression tests pin: with a tracer attached, every
:class:`~repro.simulator.summary.RunSummary` measurement (and therefore
every fingerprint) is bit-identical to the untraced run.

Recording is *flat*: hooks append rows to the struct-of-arrays ring
buffers in :mod:`~repro.observability.ringbuffer` (a handful of array
stores per call, no object construction) and :meth:`SpanTracer.finish`
decodes the columns into a :class:`~repro.observability.TraceData`,
whose every field is pinned by the golden digests in
``tests/fixtures/trace_digests.json``.
Downstream consumers (``critical_path``, ``windows``, ``export``)
never see the ring.  When the compiled hot core is
importable (see :mod:`repro.simulator.hotcore`), the interval columns
live in C and the compiled engine appends to them without re-entering
the interpreter.

Span handles returned by ``begin_segment``/``begin_offload``/
``begin_rpc`` are ring row indices (plain ints); callers treat them as
opaque, so nothing changes for the simulator.

Identifiers are deterministic: span ids come from ring row order (the
per-tracer emission sequence), trace ids from request ids
(single-service runs) or a root-RPC counter (topology runs).  No wall
clocks, no unseeded entropy (DET001/DET003).

The simulator calls every method through an ``is not None`` guard (the
OBS001 lint rule enforces this), so an untraced run pays one attribute
load and one comparison per hook -- nothing is allocated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .ringbuffer import (
    CODE_BITS,
    FIELD_BITS,
    OP_ATTEMPT,
    OP_BACKOFF,
    OP_FALLBACK,
    OP_OFFLOAD,
    OP_REQUEST,
    OP_RPC,
    OP_SEGMENT,
    PyIntervalSink,
    SpanRing,
    decode_spans,
    decode_timelines,
)
from .spans import DegradationTrack, TraceData


def _compiled_sink_class():
    """The C interval sink when the hot core is importable and enabled.

    Resolved through :mod:`repro.simulator.hotcore` so one switch
    (``REPRO_COMPILED``) governs both the engine and the sink; the
    simulator package never imports observability at module level, so
    this import cannot cycle.
    """
    try:
        from ..simulator.hotcore import IntervalSink
    except ImportError:  # pragma: no cover - hotcore is part of the tree
        return None
    return IntervalSink


_COMPILED_SINK = _compiled_sink_class()


class TraceContext:
    """Per-request tracing state threaded through the service runtime.

    ``tag`` is the active fault-cost override: while the fault state
    machine pays a timeout, backoff, or fallback, it tags the context so
    every interval the CPU records inside the recovery is attributed to
    the fault rather than to ordinary work.  ``packed`` is the context
    id pre-shifted for the interval sink's meta word; ``row`` is the
    request span's ring row.
    """

    __slots__ = (
        "row",
        "record",
        "packed",
        "tag",
        "released_at",
        "segment_row",
        "body_end",
    )

    def __init__(self, row: int, record, packed: int) -> None:
        self.row = row
        #: The live :class:`~repro.simulator.metrics.RequestRecord`;
        #: completion is read off it when the trace is finished.
        self.record = record
        self.packed = packed
        self.tag: Optional[str] = None
        self.released_at: Optional[float] = None
        self.segment_row = -1
        self.body_end: Optional[float] = None


class SpanTracer:
    """Collects spans and timelines for one simulation run."""

    __slots__ = (
        "label",
        "_ring",
        "_sink",
        "record_interval",
        "_contexts",
        "_offload_records",
        "_degradations",
        "_strings",
        "_string_ids",
        "_func_codes",
    )

    def __init__(
        self,
        label: str = "run",
        *,
        span_capacity: int = 1024,
        interval_capacity: int = 16384,
    ) -> None:
        self.label = label
        self._ring = SpanRing(span_capacity)
        sink_class = _COMPILED_SINK or PyIntervalSink
        self._sink = sink_class(interval_capacity)
        #: ``record_interval(context, start, end, functionality, leaf,
        #: kind)`` -- the per-event hook.  The sink's ``record`` has the
        #: identical signature, so the tracer binds it directly as an
        #: instance attribute: the CPU scheduler's call lands on the
        #: sink with no delegation hop on the hottest tracer path in
        #: the repository.
        self.record_interval = self._sink.record
        self._contexts: List[TraceContext] = []
        #: Live :class:`~repro.simulator.metrics.OffloadRecord` objects in
        #: OFFLOAD row order; device-completion timestamps are read off
        #: them at :meth:`finish`.
        self._offload_records: List[object] = []
        self._degradations: Dict[str, Tuple[Tuple[float, float, float], ...]] = {}
        #: Interned strings referenced by span rows (service names,
        #: functionality values, kernel names, outcomes, designs).
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        #: FunctionalityCategory -> interned code, keyed by identity so
        #: ``begin_segment`` (the busiest span hook, ~1 per event) skips
        #: both the enum ``.value`` descriptor and the string intern.
        self._func_codes: Dict[object, int] = {}

    # -- interning ---------------------------------------------------------

    def _intern(self, text: str) -> int:
        ids = self._string_ids
        code = ids.get(text)
        if code is None:
            code = len(self._strings)
            ids[text] = code
            self._strings.append(text)
        return code

    # -- request lifecycle (single-service runs) ---------------------------

    def begin_request(self, service: str, record) -> TraceContext:
        """Open a request span; ``record.started_at`` is the arrival."""
        context_id = len(self._contexts)
        row = self._ring.append(
            OP_REQUEST, record.started_at,
            context_id, self._intern(service), 0,
        )
        context = TraceContext(row, record, context_id << CODE_BITS)
        self._contexts.append(context)
        return context

    def end_body(self, context: TraceContext, now: float) -> None:
        """The request body finished; completion may still be gated on
        outstanding async offloads."""
        context.body_end = now

    def begin_segment(
        self, context: TraceContext, functionality, now: float
    ) -> int:
        codes = self._func_codes
        code = codes.get(functionality)
        if code is None:
            code = codes[functionality] = self._intern(functionality.value)
        row = self._ring.append(
            OP_SEGMENT, now,
            context.packed >> CODE_BITS, code, 0,
        )
        context.segment_row = row
        return row

    def end_segment(self, context: TraceContext, span: int, now: float) -> None:
        # Inlined set_end: this hook fires once per segment, and the end
        # patch is a single column store.
        self._ring.t1[span] = now
        context.segment_row = -1

    # -- offloads ----------------------------------------------------------

    def begin_offload(
        self, context: TraceContext, record, design, batched: int = 0,
        tenant: str = "",
    ) -> int:
        """Open a span for one successful offload dispatch.  *record* is
        the live :class:`~repro.simulator.metrics.OffloadRecord`; its
        device-completion timestamp becomes the span end at finish.
        *tenant* attributes shared-device dispatches; the packed word is
        unchanged when it is empty (interned code + 1, so field value 0
        means "no tenant"), keeping private-device rings bit-identical."""
        parent = context.segment_row
        if parent < 0:
            parent = context.row
        packed = self._intern(design.value) | (batched << FIELD_BITS)
        if tenant:
            packed |= (self._intern(tenant) + 1) << (2 * FIELD_BITS)
        row = self._ring.append(
            OP_OFFLOAD, record.dispatched_at,
            context.packed >> CODE_BITS, parent,
            packed,
        )
        self._offload_records.append(record)
        return row

    # -- fault machinery ---------------------------------------------------

    def record_attempt(
        self,
        context: TraceContext,
        kernel: str,
        retry_index: int,
        outcome: str,
        start: float,
        end: float,
        spike_cycles: float = 0.0,
    ) -> int:
        parent = context.segment_row
        if parent < 0:
            parent = context.row
        return self._ring.append(
            OP_ATTEMPT, start,
            context.packed >> CODE_BITS, parent,
            self._intern(kernel)
            | (retry_index << FIELD_BITS)
            | (self._intern(outcome) << (2 * FIELD_BITS)),
            t1=end, x=spike_cycles,
        )

    def record_backoff(
        self, context: TraceContext, kernel: str, start: float, end: float
    ) -> int:
        parent = context.segment_row
        if parent < 0:
            parent = context.row
        return self._ring.append(
            OP_BACKOFF, start,
            context.packed >> CODE_BITS, parent,
            self._intern(kernel),
            t1=end,
        )

    def record_fallback(
        self,
        context: TraceContext,
        kernel: str,
        start: float,
        end: float,
        to_cpu: bool,
    ) -> int:
        parent = context.segment_row
        if parent < 0:
            parent = context.row
        code = self._intern(kernel)
        if to_cpu:
            code |= 1 << FIELD_BITS
        return self._ring.append(
            OP_FALLBACK, start,
            context.packed >> CODE_BITS, parent, code,
            t1=end,
        )

    def note_degradations(self, kernel: str, schedule) -> None:
        """Capture a kernel's degradation schedule (once) so exports can
        render outage windows as track-level range events."""
        if schedule is None or kernel in self._degradations:
            return
        self._degradations[kernel] = tuple(
            (window.start_cycle, window.end_cycle, window.service_multiplier)
            for window in schedule.windows
        )

    # -- interval recording (called from the CPU scheduler) ----------------
    # (record_interval is bound in __init__: it IS the sink's record.)

    def mark_released(self, context: TraceContext, now: float) -> None:
        """The thread released its core (Sync-OS); the off-core wait is
        recorded when :meth:`record_release_wait` fires at resume."""
        context.released_at = now

    def record_release_wait(
        self, context: TraceContext, now: float, functionality, leaf
    ) -> None:
        started = context.released_at
        if started is None:
            return
        context.released_at = None
        self._sink.record(
            context, started, now, functionality, leaf, "release-wait"
        )

    # -- topology (multi-service) spans ------------------------------------

    def begin_rpc(
        self, service: str, parent: Optional[int], now: float
    ) -> int:
        """Open a span for one service hop.  A root hop (no parent) opens
        a new trace; downstream hops inherit the caller's trace id, so
        the causal chain survives the network."""
        return self._ring.append(
            OP_RPC, now,
            self._intern(service),
            -1 if parent is None else parent, 0,
        )

    def end_span(self, span: int, now: float) -> None:
        self._ring.set_end(span, now)

    # -- finalization ------------------------------------------------------

    def finish(self) -> TraceData:
        """Patch open request/offload rows from their live records, then
        decode the columns into a picklable :class:`TraceData`."""
        ring = self._ring
        ends = ring.t1
        for context in self._contexts:
            completed = context.record.completed_at
            if completed is not None:
                ends[context.row] = completed
        if self._offload_records:
            records = iter(self._offload_records)
            ops = ring.op
            for row in range(ring.n):
                if ops[row] == OP_OFFLOAD:
                    completed = next(records).completed_at
                    if completed is not None:
                        ends[row] = completed
        degradations = tuple(
            DegradationTrack(kernel=kernel, windows=windows)
            for kernel, windows in sorted(self._degradations.items())
        )
        return TraceData(
            label=self.label,
            spans=decode_spans(
                ring, self._contexts, self._offload_records, self._strings
            ),
            timelines=decode_timelines(self._sink, self._contexts),
            degradations=degradations,
        )
