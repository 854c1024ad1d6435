"""Windowed time-series metrics over simulated time.

End-of-run aggregates hide dynamics: a ramp-up, an outage window, and the
recovery after it all average away.  This module buckets the
:class:`~repro.simulator.metrics.MetricSink`'s timestamped records (and,
when a trace is available, the fault layer's attempt/backoff/fallback
spans) into Monarch-style *tumbling windows* -- fixed, non-overlapping
``window_cycles``-wide buckets -- plus fixed-bucket histograms for
latency and offload queueing.

Everything is computed post-hoc from records the simulator already
keeps, so windowing adds zero cost to the simulation itself and works on
any completed run, traced or not.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ParameterError
from .spans import SpanKind, TraceData

#: Fixed geometric latency-bucket upper bounds, in cycles (plus an
#: implicit overflow bucket).  Fixed bounds keep histograms mergeable
#: across runs and byte-identical across processes.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    100.0 * 4.0**k for k in range(12)
)

#: Fixed bounds for offload queue-depth cycles.
DEFAULT_QUEUE_BOUNDS: Tuple[float, ...] = tuple(
    10.0 * 4.0**k for k in range(10)
)


@dataclasses.dataclass(frozen=True)
class Histogram:
    """Counts per fixed bucket; ``counts[-1]`` is the overflow bucket."""

    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_payload(self) -> Dict[str, object]:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


def fixed_bucket_histogram(
    values: Sequence[float], bounds: Tuple[float, ...]
) -> Histogram:
    """Bucket *values* into fixed upper-bound buckets (<= bound)."""
    if not bounds or any(
        b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
    ):
        raise ParameterError("histogram bounds must be strictly increasing")
    counts = [0] * (len(bounds) + 1)
    for value in values:
        for index, bound in enumerate(bounds):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    return Histogram(bounds=bounds, counts=tuple(counts))


@dataclasses.dataclass(frozen=True)
class WindowPoint:
    """One tumbling window's counters."""

    index: int
    start: float
    end: float
    arrivals: int
    completions: int
    degraded: int
    latency_sum: float
    latency_max: float
    offload_dispatches: int
    offload_completions: int
    peak_outstanding_offloads: int
    fault_drops: int
    fault_backoff_cycles: float
    fault_fallbacks: int

    @property
    def goodput(self) -> int:
        """Non-degraded completions in this window."""
        return self.completions - self.degraded

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.completions if self.completions else 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "goodput": self.goodput,
            "degraded": self.degraded,
            "mean_latency_cycles": self.mean_latency,
            "max_latency_cycles": self.latency_max,
            "offload_dispatches": self.offload_dispatches,
            "offload_completions": self.offload_completions,
            "peak_outstanding_offloads": self.peak_outstanding_offloads,
            "fault_drops": self.fault_drops,
            "fault_backoff_cycles": self.fault_backoff_cycles,
            "fault_fallbacks": self.fault_fallbacks,
        }


@dataclasses.dataclass(frozen=True)
class WindowedSeries:
    """A run's full tumbling-window series."""

    window_cycles: float
    horizon: float
    points: Tuple[WindowPoint, ...]

    def series(self, field: str) -> List[object]:
        """One counter as a plain list over windows (for plotting)."""
        return [getattr(point, field) for point in self.points]


def _window_index(time: float, window_cycles: float, count: int) -> int:
    return min(int(time // window_cycles), count - 1)


def windowed_series(
    metrics,
    window_cycles: float,
    horizon: float,
    trace: Optional[TraceData] = None,
) -> WindowedSeries:
    """Bucket a run's records into tumbling windows.

    *metrics* is the run's :class:`~repro.simulator.metrics.MetricSink`
    (live or from a summary).  With *trace*, fault events (drops,
    backoff gaps, fallbacks) are windowed too; without one they read 0.
    """
    if window_cycles <= 0:
        raise ParameterError("window_cycles must be positive")
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    count = max(1, math.ceil(horizon / window_cycles))
    arrivals = [0] * count
    completions = [0] * count
    degraded = [0] * count
    latency_sum = [0.0] * count
    latency_max = [0.0] * count
    dispatches = [0] * count
    offload_done = [0] * count
    drops = [0] * count
    backoff_cycles = [0.0] * count
    fallbacks = [0] * count

    for record in metrics.requests:
        arrivals[_window_index(record.started_at, window_cycles, count)] += 1
        if record.completed_at is None:
            continue
        index = _window_index(record.completed_at, window_cycles, count)
        completions[index] += 1
        if record.degraded:
            degraded[index] += 1
        latency = record.completed_at - record.started_at
        latency_sum[index] += latency
        if latency > latency_max[index]:
            latency_max[index] = latency

    #: (time, delta) sweep for peak outstanding offloads per window.
    depth_events: List[Tuple[float, int]] = []
    for offload in metrics.offloads:
        dispatches[
            _window_index(offload.dispatched_at, window_cycles, count)
        ] += 1
        depth_events.append((offload.dispatched_at, 1))
        if offload.completed_at is not None:
            offload_done[
                _window_index(offload.completed_at, window_cycles, count)
            ] += 1
            depth_events.append((offload.completed_at, -1))
    depth_events.sort()
    peak = [0] * count
    depth = 0
    for time, delta in depth_events:
        depth += delta
        index = _window_index(time, window_cycles, count)
        if depth > peak[index]:
            peak[index] = depth

    if trace is not None:
        for span in trace.spans:
            index = _window_index(span.start, window_cycles, count)
            if span.kind is SpanKind.ATTEMPT:
                if dict(span.attrs).get("outcome") == "drop":
                    drops[index] += 1
            elif span.kind is SpanKind.BACKOFF:
                if span.end is not None:
                    backoff_cycles[index] += span.end - span.start
            elif span.kind is SpanKind.FALLBACK:
                fallbacks[index] += 1

    points = tuple(
        WindowPoint(
            index=i,
            start=i * window_cycles,
            end=min((i + 1) * window_cycles, horizon),
            arrivals=arrivals[i],
            completions=completions[i],
            degraded=degraded[i],
            latency_sum=latency_sum[i],
            latency_max=latency_max[i],
            offload_dispatches=dispatches[i],
            offload_completions=offload_done[i],
            peak_outstanding_offloads=peak[i],
            fault_drops=drops[i],
            fault_backoff_cycles=backoff_cycles[i],
            fault_fallbacks=fallbacks[i],
        )
        for i in range(count)
    )
    return WindowedSeries(
        window_cycles=window_cycles, horizon=horizon, points=points
    )


#: Schema tag stamped into every windowed-metrics artifact.
METRICS_SCHEMA = "repro-windowed-metrics-v1"


def metrics_payload(
    metrics,
    window_cycles: float,
    horizon: float,
    trace: Optional[TraceData] = None,
    latency_bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    queue_bounds: Tuple[float, ...] = DEFAULT_QUEUE_BOUNDS,
) -> Dict[str, object]:
    """The full windowed-metrics artifact: series plus histograms."""
    series = windowed_series(metrics, window_cycles, horizon, trace)
    latencies = [
        record.completed_at - record.started_at
        for record in metrics.requests
        if record.completed_at is not None
    ]
    queued = [offload.queued_cycles for offload in metrics.offloads]
    return {
        "schema": METRICS_SCHEMA,
        "window_cycles": window_cycles,
        "horizon_cycles": horizon,
        "windows": [point.to_payload() for point in series.points],
        "latency_histogram": fixed_bucket_histogram(
            latencies, latency_bounds
        ).to_payload(),
        "queue_histogram": fixed_bucket_histogram(
            queued, queue_bounds
        ).to_payload(),
    }

