"""Span and timeline data model for the observability layer.

A *span* is one named, timestamped unit of simulated work with a causal
parent link -- the Dapper vocabulary (see PAPERS.md) applied to the DES:
request spans parent functionality-segment spans, which parent offload
spans, which parent the retry/backoff/fallback spans the fault layer
emits.  Span and trace identifiers are drawn from per-run sequence
counters and request ids -- never from wall clocks or unseeded RNGs
(DET001/DET003) -- so two same-seed runs emit byte-identical traces.

An *interval* is one contiguous slice of a request's lifetime attributed
to a (functionality, leaf, kind) triple, optionally overridden by a fault
*tag* (``backoff`` / ``fallback`` / ``fault-timeout``).  Intervals tile a
request's on-host time; the critical-path analysis
(:mod:`repro.observability.critical_path`) closes the tiling with
scheduler-wait and response-wait residuals so per-request attributions
sum to measured latency.  A :class:`RequestTimeline` keeps its intervals
as columns; :class:`Interval` objects are built only on request.

Everything here is plain, slotted, picklable data: a
:class:`TraceData` rides inside a :class:`~repro.simulator.summary.RunSummary`
across process boundaries and into the result cache unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

import numpy as np


class SpanKind(enum.Enum):
    """What a span measures."""

    #: One request, arrival to completion.
    REQUEST = "request"

    #: One functionality segment within a request body.
    SEGMENT = "segment"

    #: One successful offload dispatch, dispatch to device completion.
    OFFLOAD = "offload"

    #: One fault-adjudicated dispatch attempt (including the final
    #: successful one).
    ATTEMPT = "attempt"

    #: One retry backoff gap.
    BACKOFF = "backoff"

    #: One exhausted-retries fallback (host re-run or lost work).
    FALLBACK = "fallback"

    #: One service hop in an application topology simulation.
    RPC = "rpc"

    #: One :func:`~repro.runtime.execute_batch` call (runtime
    #: self-telemetry; wall-clock nanoseconds, not simulated cycles).
    BATCH = "batch"

    #: One spec execution within a batch (runtime self-telemetry).
    TASK = "task"

    #: One runtime task stage: queue-wait / cache-lookup / simulate /
    #: result-store (runtime self-telemetry).
    STAGE = "stage"


def span_id_from_sequence(sequence: int) -> str:
    """16-hex-char span id from a per-run sequence number."""
    return f"{sequence:016x}"


def trace_id_from_request(request_id: int) -> str:
    """32-hex-char trace id from a request id -- deterministic by
    construction, unique within a run."""
    return f"{request_id:032x}"


@dataclasses.dataclass(slots=True)
class Span:
    """One unit of simulated work with a causal parent link.

    ``end`` stays ``None`` while the span is open and for work the
    measurement window cut off (an offload whose response never arrived).
    Timestamps are simulated cycles.
    """

    span_id: str
    trace_id: str
    parent_id: Optional[str]
    name: str
    kind: SpanKind
    start: float
    end: Optional[float] = None
    attrs: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.span_id} ({self.name}) is open")
        return self.end - self.start


@dataclasses.dataclass(slots=True)
class Interval:
    """One attributed slice of a request's lifetime.

    ``kind`` is a plain string: the :class:`~repro.simulator.metrics.CycleKind`
    value for compute intervals, plus the scheduler-side kinds
    ``hold-wait`` (Sync block), ``release-wait`` (Sync-OS off-core wait),
    and the switch-back ``thread-switch`` charge.  ``tag`` carries the
    fault-cost override active when the interval was recorded.
    """

    start: float
    end: float
    functionality: str
    leaf: str
    kind: str
    tag: Optional[str] = None


@dataclasses.dataclass(slots=True)
class RequestTimeline:
    """One request's interval tiling, closed at trace finish time.

    The intervals are held as columns, one row per interval in recording
    order: ``starts`` and ``ends`` (float64 cycles) and ``codes``, each an
    index into ``keys``, the ``(functionality, leaf, kind, tag)`` table of
    the trace.  Every timeline a tracer decodes shares one key table, so
    a pickled trace carries it once.  Consumers aggregate over the
    columns; :attr:`intervals` builds :class:`Interval` objects on demand.

    Equality compares the header, the key table and the three columns.
    Both interval sinks intern keys in recording order, so two runs that
    record the same intervals decode to the same table.
    """

    request_id: int
    started_at: float
    body_end: Optional[float]
    completed_at: Optional[float]
    degraded: bool
    starts: np.ndarray
    ends: np.ndarray
    codes: np.ndarray
    keys: Tuple[Tuple[str, str, str, Optional[str]], ...]

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The intervals as objects, built on every access."""
        keys = self.keys
        return tuple(
            Interval(start, end, *keys[code])
            for start, end, code in zip(
                self.starts.tolist(), self.ends.tolist(), self.codes.tolist()
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestTimeline):
            return NotImplemented
        return (
            self.request_id == other.request_id
            and self.started_at == other.started_at
            and self.body_end == other.body_end
            and self.completed_at == other.completed_at
            and self.degraded == other.degraded
            and self.keys == other.keys
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.codes, other.codes)
        )

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise ValueError(f"request {self.request_id} did not complete")
        return self.completed_at - self.started_at


@dataclasses.dataclass(slots=True)
class DegradationTrack:
    """Degradation/outage windows of one kernel's device, for rendering
    as track-level range events in the Chrome/Perfetto export."""

    kernel: str
    #: ``(start_cycle, end_cycle, service_multiplier)`` per window;
    #: an infinite multiplier marks a full outage.
    windows: Tuple[Tuple[float, float, float], ...]


@dataclasses.dataclass(slots=True)
class TraceData:
    """Everything one traced run observed: the finished span set, the
    per-request interval timelines, and the degradation schedules the
    fault layer encountered.  Plain data -- picklable and comparable."""

    label: str
    spans: Tuple[Span, ...]
    timelines: Tuple[RequestTimeline, ...]
    degradations: Tuple[DegradationTrack, ...] = ()

    def spans_of_kind(self, kind: SpanKind) -> Tuple[Span, ...]:
        return tuple(span for span in self.spans if span.kind is kind)

    def completed_timelines(self) -> Tuple[RequestTimeline, ...]:
        return tuple(
            timeline
            for timeline in self.timelines
            if timeline.completed_at is not None
        )
