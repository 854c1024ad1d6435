"""Span-derived critical-path attribution.

The per-request analogue of Fig. 9's cycle attribution: each completed
request's measured latency is decomposed into named components --
per-functionality compute, offload overhead, thread switches, blocked
offload waits, the fault taxes (timeouts, backoff, fallback re-runs), and
two residuals that close the accounting:

* ``scheduler-wait`` -- body time not covered by any recorded interval:
  run-queue wait before a core picked the work up (open-loop arrivals,
  Sync-OS re-scheduling).
* ``response-wait`` -- time between the body finishing and the last
  gating async offload releasing the request.

Because the residuals are defined as differences against the measured
timestamps, the component sum equals measured latency up to float
summation error (the tests pin agreement to ~1e-9 relative).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, Optional, Tuple

import numpy as np

from .spans import RequestTimeline, TraceData

#: Residual component names.
SCHEDULER_WAIT = "scheduler-wait"
RESPONSE_WAIT = "response-wait"

#: Fault-tag component names (match the tags the service runtime sets).
FAULT_TAGS = ("backoff", "fallback", "fault-timeout")


def component_key(key: Tuple[str, str, str, Optional[str]]) -> str:
    """Map one ``(functionality, leaf, kind, tag)`` interval key to its
    attribution component."""
    functionality, _, kind, tag = key
    if tag is not None:
        return tag
    if kind == "useful":
        return f"compute:{functionality}"
    if kind in ("hold-wait", "blocked"):
        return "blocked-offload"
    if kind == "release-wait":
        return "released-wait"
    # "offload-overhead" and "thread-switch" keep their kind names.
    return kind


@functools.lru_cache(maxsize=16)
def _component_table(keys) -> Tuple[Tuple[str, ...], np.ndarray]:
    """The sorted component names of a key table, and each key code's
    position among them (read-only: cached results are shared)."""
    per_code = [component_key(key) for key in keys]
    names = tuple(sorted(set(per_code)))
    position = {name: index for index, name in enumerate(names)}
    positions = np.array([position[name] for name in per_code], dtype=np.intp)
    positions.flags.writeable = False
    return names, positions


@dataclasses.dataclass(frozen=True)
class RequestAttribution:
    """One request's latency decomposed into named components."""

    request_id: int
    latency: float
    #: Sorted ``(component, cycles)`` pairs; the residual waits last.
    components: Tuple[Tuple[str, float], ...]

    @property
    def total(self) -> float:
        """Exactly-rounded component sum (compare against latency)."""
        return math.fsum(value for _, value in self.components)

    @property
    def residual_error(self) -> float:
        return abs(self.total - self.latency)

    def component(self, name: str) -> float:
        for key, value in self.components:
            if key == name:
                return value
        return 0.0


def attribute_timeline(timeline: RequestTimeline) -> RequestAttribution:
    """Decompose one completed request's latency."""
    if timeline.completed_at is None:
        raise ValueError(
            f"request {timeline.request_id} did not complete; only "
            "completed requests have a measured latency to attribute"
        )
    if timeline.body_end is None:
        raise ValueError(
            f"request {timeline.request_id} completed without a recorded "
            "body end"
        )
    # bincount adds each row's weight in row order, so every sum is the
    # same float a running per-component total over the intervals gives.
    names, positions = _component_table(timeline.keys)
    rows = positions[timeline.codes]
    sums = np.bincount(
        rows, weights=timeline.ends - timeline.starts, minlength=len(names)
    ).tolist()
    present = np.flatnonzero(np.bincount(rows, minlength=len(names)))
    parts = tuple((names[index], sums[index]) for index in present.tolist())
    body_elapsed = timeline.body_end - timeline.started_at
    scheduler_wait = body_elapsed - math.fsum(value for _, value in parts)
    response_wait = timeline.completed_at - timeline.body_end
    components = parts + (
        (SCHEDULER_WAIT, scheduler_wait),
        (RESPONSE_WAIT, response_wait),
    )
    return RequestAttribution(
        request_id=timeline.request_id,
        latency=timeline.completed_at - timeline.started_at,
        components=components,
    )


def attribute_requests(trace: TraceData) -> Tuple[RequestAttribution, ...]:
    """Attribute every completed request in a trace, in request order."""
    return tuple(
        attribute_timeline(timeline)
        for timeline in trace.completed_timelines()
    )


def attribution_totals(
    attributions: Tuple[RequestAttribution, ...]
) -> Dict[str, float]:
    """Total cycles per component across requests (sorted keys)."""
    totals: Dict[str, float] = {}
    for attribution in attributions:
        for key, value in attribution.components:
            totals[key] = totals.get(key, 0.0) + value
    return dict(sorted(totals.items()))


def fault_cost_cycles(attribution: RequestAttribution) -> float:
    """Latency cycles one request lost to fault recovery."""
    return math.fsum(attribution.component(tag) for tag in FAULT_TAGS)
