"""The original object-per-span tracer, kept as the semantic reference.

:class:`ObjectSpanTracer` is the pre-ring-buffer implementation of the
span tracer: every hook allocates a :class:`~repro.observability.Span`
or :class:`~repro.observability.Interval` immediately.  It is *not* on
any hot path anymore -- :class:`repro.observability.SpanTracer` records
into a flat ring buffer and decodes post-run -- but it stays in-tree as
the executable specification the ring decoder is pinned against: the
equality tests run the same simulation under both tracers and assert
``ring.finish() == object.finish()``: every span field, and every
timeline's header and interval sequence (this tracer's timelines come
from :meth:`~repro.observability.RequestTimeline.from_intervals`).

Being the slow reference, this module is deliberately exempt from the
per-event-allocation half of lint rule PERF001 (which scopes to
``tracer.py``): allocating eagerly is this tracer's entire point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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


class ObjectTraceContext:
    """Per-request tracing state threaded through the service runtime.

    ``tag`` is the active fault-cost override: while the fault state
    machine pays a timeout, backoff, or fallback, it tags the context so
    every interval the CPU records inside the recovery is attributed to
    the fault rather than to ordinary work.
    """

    __slots__ = (
        "request_span",
        "record",
        "intervals",
        "tag",
        "released_at",
        "segment_span",
        "body_end",
    )

    def __init__(self, request_span: Span, record) -> None:
        self.request_span = request_span
        #: The live :class:`~repro.simulator.metrics.RequestRecord`;
        #: completion is read off it when the trace is finished.
        self.record = record
        self.intervals: List[Interval] = []
        self.tag: Optional[str] = None
        self.released_at: Optional[float] = None
        self.segment_span: Optional[Span] = None
        self.body_end: Optional[float] = None


class ObjectSpanTracer:
    """Collects spans and timelines by allocating them eagerly."""

    __slots__ = (
        "label",
        "_sequence",
        "_trace_counter",
        "_spans",
        "_contexts",
        "_pending_offloads",
        "_degradations",
    )

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self._sequence = 0
        self._trace_counter = 0
        self._spans: List[Span] = []
        self._contexts: List[ObjectTraceContext] = []
        #: Offload spans whose end is the (asynchronously written)
        #: device-completion timestamp, resolved at :meth:`finish`.
        self._pending_offloads: List[Tuple[Span, object]] = []
        self._degradations: Dict[str, Tuple[Tuple[float, float, float], ...]] = {}

    # -- id generation -----------------------------------------------------

    def _next_span_id(self) -> str:
        self._sequence += 1
        return span_id_from_sequence(self._sequence)

    def _emit(self, span: Span) -> Span:
        self._spans.append(span)
        return span

    # -- request lifecycle (single-service runs) ---------------------------

    def begin_request(self, service: str, record) -> ObjectTraceContext:
        """Open a request span; ``record.started_at`` is the arrival."""
        span = self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=trace_id_from_request(record.request_id),
            parent_id=None,
            name=f"{service}/request",
            kind=SpanKind.REQUEST,
            start=record.started_at,
            attrs=(("service", service), ("request_id", record.request_id)),
        ))
        context = ObjectTraceContext(span, record)
        self._contexts.append(context)
        return context

    def end_body(self, context: ObjectTraceContext, now: float) -> None:
        """The request body finished; completion may still be gated on
        outstanding async offloads."""
        context.body_end = now

    def begin_segment(
        self, context: ObjectTraceContext, functionality, now: float
    ) -> Span:
        span = self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=context.request_span.trace_id,
            parent_id=context.request_span.span_id,
            name=f"segment/{functionality.value}",
            kind=SpanKind.SEGMENT,
            start=now,
            attrs=(("functionality", functionality.value),),
        ))
        context.segment_span = span
        return span

    def end_segment(
        self, context: ObjectTraceContext, span: Span, now: float
    ) -> None:
        span.end = now
        context.segment_span = None

    # -- offloads ----------------------------------------------------------

    def begin_offload(
        self, context: ObjectTraceContext, record, design, batched: int = 0,
        tenant: str = "",
    ) -> Span:
        """Open a span for one successful offload dispatch.  *record* is
        the live :class:`~repro.simulator.metrics.OffloadRecord`; its
        device-completion timestamp becomes the span end at finish.
        *tenant* attributes shared-device dispatches; untenanted spans
        carry no tenant attribute at all."""
        parent = context.segment_span or context.request_span
        attrs: Tuple[Tuple[str, object], ...] = (
            ("kernel", record.kernel),
            ("granularity_bytes", record.granularity),
            ("design", design.value),
        )
        if batched:
            attrs += (("batched_invocations", batched),)
        if tenant:
            attrs += (("tenant", tenant),)
        span = self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=context.request_span.trace_id,
            parent_id=parent.span_id,
            name=f"offload/{record.kernel}",
            kind=SpanKind.OFFLOAD,
            start=record.dispatched_at,
            attrs=attrs,
        ))
        self._pending_offloads.append((span, record))
        return span

    # -- fault machinery ---------------------------------------------------

    def record_attempt(
        self,
        context: ObjectTraceContext,
        kernel: str,
        retry_index: int,
        outcome: str,
        start: float,
        end: float,
        spike_cycles: float = 0.0,
    ) -> Span:
        parent = context.segment_span or context.request_span
        attrs: Tuple[Tuple[str, object], ...] = (
            ("kernel", kernel),
            ("retry_index", retry_index),
            ("outcome", outcome),
        )
        if spike_cycles:
            attrs += (("spike_cycles", spike_cycles),)
        return self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=context.request_span.trace_id,
            parent_id=parent.span_id,
            name=f"attempt/{kernel}",
            kind=SpanKind.ATTEMPT,
            start=start,
            end=end,
            attrs=attrs,
        ))

    def record_backoff(
        self, context: ObjectTraceContext, kernel: str, start: float, end: float
    ) -> Span:
        parent = context.segment_span or context.request_span
        return self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=context.request_span.trace_id,
            parent_id=parent.span_id,
            name=f"backoff/{kernel}",
            kind=SpanKind.BACKOFF,
            start=start,
            end=end,
            attrs=(("kernel", kernel),),
        ))

    def record_fallback(
        self,
        context: ObjectTraceContext,
        kernel: str,
        start: float,
        end: float,
        to_cpu: bool,
    ) -> Span:
        parent = context.segment_span or context.request_span
        return self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=context.request_span.trace_id,
            parent_id=parent.span_id,
            name=f"fallback/{kernel}",
            kind=SpanKind.FALLBACK,
            start=start,
            end=end,
            attrs=(("kernel", kernel), ("to_cpu", to_cpu)),
        ))

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

    def record_interval(
        self,
        context: ObjectTraceContext,
        start: float,
        end: float,
        functionality,
        leaf,
        kind: str,
    ) -> None:
        if type(kind) is not str:
            kind = kind.value  # CycleKind member from the CPU hot path
        context.intervals.append(Interval(
            start=start,
            end=end,
            functionality=functionality.value,
            leaf=leaf.value,
            kind=kind,
            tag=context.tag,
        ))

    def mark_released(self, context: ObjectTraceContext, now: float) -> None:
        """The thread released its core (Sync-OS); the off-core wait is
        recorded when :meth:`record_release_wait` fires at resume."""
        context.released_at = now

    def record_release_wait(
        self, context: ObjectTraceContext, now: float, functionality, leaf
    ) -> None:
        started = context.released_at
        if started is None:
            return
        context.released_at = None
        context.intervals.append(Interval(
            start=started,
            end=now,
            functionality=functionality.value,
            leaf=leaf.value,
            kind="release-wait",
            tag=context.tag,
        ))

    # -- topology (multi-service) spans ------------------------------------

    def begin_rpc(
        self, service: str, parent: Optional[Span], now: float
    ) -> Span:
        """Open a span for one service hop.  A root hop (no parent) opens
        a new trace; downstream hops inherit the caller's trace id, so
        the causal chain survives the network."""
        if parent is None:
            self._trace_counter += 1
            trace_id = trace_id_from_request(self._trace_counter)
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return self._emit(Span(
            span_id=self._next_span_id(),
            trace_id=trace_id,
            parent_id=parent_id,
            name=f"rpc/{service}",
            kind=SpanKind.RPC,
            start=now,
            attrs=(("service", service),),
        ))

    def end_span(self, span: Span, now: float) -> None:
        span.end = now

    # -- finalization ------------------------------------------------------

    def finish(self) -> TraceData:
        """Close open request/offload spans against their live records and
        freeze everything into a picklable :class:`TraceData`."""
        for span, record in self._pending_offloads:
            span.end = record.completed_at
        timelines = []
        for context in self._contexts:
            record = context.record
            context.request_span.end = record.completed_at
            timelines.append(RequestTimeline.from_intervals(
                request_id=record.request_id,
                started_at=record.started_at,
                body_end=context.body_end,
                completed_at=record.completed_at,
                degraded=record.degraded,
                intervals=context.intervals,
            ))
        degradations = tuple(
            DegradationTrack(kernel=kernel, windows=windows)
            for kernel, windows in sorted(self._degradations.items())
        )
        return TraceData(
            label=self.label,
            spans=tuple(self._spans),
            timelines=tuple(timelines),
            degradations=degradations,
        )
