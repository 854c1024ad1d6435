"""Runtime self-telemetry: trace the machinery that runs the model.

The observability layer (PR 5/6) gave *simulated* requests first-class
spans, windows, and critical paths; this module points the same
vocabulary at the layer that executes those simulations at scale -- the
batch executor, the worker pool, and the content-addressed result cache
in :mod:`repro.runtime`.  Each :class:`~repro.runtime.RunSpec` execution
records a runtime-level span tree::

    batch
      └─ task (one per spec)
           ├─ queue-wait      parent enqueue → worker pickup
           ├─ cache-lookup    content-addressed lookup (parent side)
           ├─ simulate        run_spec() inside the worker process
           └─ result-store    pickle + atomic rename (parent side)

captured *inside* workers and shipped back piggy-backed on the pool
results, then merged in the parent into a batch-level trace exportable
through the existing OTLP exporter (:func:`..export.write_otlp_spans`)
and a Chrome ``traceEvents`` payload.

**The zero-observer contract at the runtime layer.**  Wall-clock timing
is inherently nondeterministic, so the artifact
(:data:`TELEMETRY_SCHEMA`) is split in two:

* a **structural** section -- span topology, batch counts, cache/dedup
  outcomes -- that is byte-identical across runs and across
  serial/pool execution (and whose *topology* subsection is identical
  across no-cache/cold-cache/warm-cache modes as well), and
* a quarantined **timing** section (stamped ``"nondeterministic":
  true``) holding every wall-clock quantity: per-stage latencies,
  worker-pool utilization windows, cache latency histograms, and the
  batch critical-path / straggler report.

Wall clocks are confined to the sanctioned :class:`MonotonicClock`
defined *here* -- :mod:`repro.runtime` itself stays clock-free (DET001)
and only ever talks to telemetry through ``is not None`` gates (OBS001),
so untelemetered runs, cache keys, and fingerprints are bit-identical
to a build without this module.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ParameterError
from .spans import Span, SpanKind, TraceData, span_id_from_sequence, trace_id_from_request
from .windows import fixed_bucket_histogram

#: Schema tag stamped into every runtime-telemetry artifact.
TELEMETRY_SCHEMA = "repro-runtime-telemetry-v1"

#: Canonical per-task stage names, in causal order.  Every task reports
#: the same four names in its span topology regardless of execution mode
#: (serial / pool / cache) -- stages that did not run simply have no
#: timing record -- so the topology section is mode-invariant.
STAGES: Tuple[str, ...] = (
    "queue-wait", "cache-lookup", "simulate", "result-store"
)

#: Structural task outcomes.
OUTCOME_EXECUTED = "executed"
OUTCOME_CACHE_HIT = "cache-hit"
OUTCOME_DEDUPLICATED = "deduplicated"

#: Fixed geometric latency-bucket bounds for cache lookup/put wall
#: times, in seconds (1 µs .. ~16 s, plus the overflow bucket).  Fixed
#: bounds keep histograms mergeable across runs.
LATENCY_SECONDS_BOUNDS: Tuple[float, ...] = tuple(
    1e-6 * 4.0**k for k in range(12)
)


class MonotonicClock:
    """The sanctioned wall clock for runtime telemetry.

    Every wall-clock read on the telemetry path goes through this class
    so the entropy surface is one auditable method.  ``time.monotonic``
    is CLOCK_MONOTONIC on Linux -- comparable across the parent and its
    worker processes, immune to NTP steps.  Simulated code never sees
    these stamps: they live only in the quarantined timing section.
    """

    __slots__ = ()

    def now(self) -> float:
        return time.monotonic()


#: Module-level clock for worker-side capture (workers have no access to
#: the parent's telemetry object; they stamp with their own instance of
#: the same monotonic clock).
_CLOCK = MonotonicClock()


# ---------------------------------------------------------------------------
# Worker-side capture.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TaskEnvelope:
    """What the parent ships to a worker for one telemetered task."""

    spec: Any
    index: int
    enqueued_at: float


@dataclasses.dataclass(frozen=True)
class WorkerTask:
    """What a worker ships back: the run result plus its own stamps."""

    index: int
    value: Any
    worker: int
    enqueued_at: float
    started: float
    finished: float


def run_task(envelope: TaskEnvelope) -> WorkerTask:
    """Execute one telemetered spec inside a worker process.

    Module-level so pool workers can unpickle the callable by reference;
    the simulate-stage stamps are taken *in the worker*, bracketing only
    ``run_spec`` -- queue wait (parent enqueue to worker pickup) falls
    out as ``started - enqueued_at``.
    """
    from ..runtime.runners import run_spec

    started = _CLOCK.now()
    value = run_spec(envelope.spec)
    finished = _CLOCK.now()
    return WorkerTask(
        index=envelope.index,
        value=value,
        worker=os.getpid(),
        enqueued_at=envelope.enqueued_at,
        started=started,
        finished=finished,
    )


# ---------------------------------------------------------------------------
# Cache telemetry.
# ---------------------------------------------------------------------------


class CacheTelemetry:
    """Counters and latency samples for one :class:`ResultCache`.

    Attached to a cache as its ``telemetry`` attribute; the cache calls
    in through ``is not None`` gates only, so an unattached cache never
    pays a clock read.  Counts are structural (deterministic given the
    same batch); latencies and byte totals are timing-section data.
    """

    __slots__ = (
        "clock", "hits", "misses", "stale_drops", "corrupt_drops",
        "puts", "bytes_read", "bytes_written",
        "lookup_seconds", "put_seconds",
    )

    def __init__(self, clock: Optional[MonotonicClock] = None) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.hits = 0
        self.misses = 0
        self.stale_drops = 0
        self.corrupt_drops = 0
        self.puts = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.lookup_seconds: List[float] = []
        self.put_seconds: List[float] = []

    def begin(self) -> float:
        """Stamp the start of a lookup/put (the cache holds the stamp)."""
        return self.clock.now()

    def record_lookup(self, outcome: str, begin: float, nbytes: int) -> None:
        """Record one finished lookup.

        *outcome* is ``"hit"``, ``"miss"``, ``"stale-drop"`` (entry
        unpickled into a no-longer-importable shape), or
        ``"corrupt-drop"`` (truncated/garbled bytes).  Drops also count
        as misses -- the caller observed a miss either way.
        """
        self.lookup_seconds.append(self.clock.now() - begin)
        if outcome == "hit":
            self.hits += 1
            self.bytes_read += nbytes
            return
        self.misses += 1
        if outcome == "stale-drop":
            self.stale_drops += 1
        elif outcome == "corrupt-drop":
            self.corrupt_drops += 1

    def record_put(self, begin: float, nbytes: int) -> None:
        self.put_seconds.append(self.clock.now() - begin)
        self.puts += 1
        self.bytes_written += nbytes

    def counts(self) -> Dict[str, int]:
        """The structural (deterministic) cache outcome counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale_drops": self.stale_drops,
            "corrupt_drops": self.corrupt_drops,
            "puts": self.puts,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def timing_payload(self) -> Dict[str, object]:
        return {
            "lookup_seconds_histogram": fixed_bucket_histogram(
                self.lookup_seconds, LATENCY_SECONDS_BOUNDS
            ).to_payload(),
            "put_seconds_histogram": fixed_bucket_histogram(
                self.put_seconds, LATENCY_SECONDS_BOUNDS
            ).to_payload(),
            "lookup_seconds_total": sum(self.lookup_seconds),
            "put_seconds_total": sum(self.put_seconds),
        }


# ---------------------------------------------------------------------------
# Batch telemetry.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class TaskTelemetry:
    """One spec's runtime-level record within a batch."""

    index: int
    kind: str
    key: str
    describe: str
    #: Key-equality group id (first batch position holding this key) --
    #: mode-invariant, unlike the dedup *outcome*.
    group: int
    outcome: Optional[str] = None
    #: Executing twin's index for deduplicated tasks.
    dedup_of: Optional[int] = None
    #: ``"worker-<pid>"`` / ``"parent"`` once the task ran somewhere.
    worker: Optional[str] = None
    #: ``(stage name, begin stamp, end stamp)`` for stages that ran.
    stages: List[Tuple[str, float, float]] = dataclasses.field(
        default_factory=list
    )

    def stage_seconds(self) -> Dict[str, float]:
        return {name: end - begin for name, begin, end in self.stages}

    def span_interval(self) -> Optional[Tuple[float, float]]:
        """The task's overall (begin, end) stamps, if any stage ran."""
        if not self.stages:
            return None
        return (
            min(begin for _, begin, _ in self.stages),
            max(end for _, _, end in self.stages),
        )


class BatchTelemetry:
    """Collector for one :func:`~repro.runtime.execute_batch` call."""

    __slots__ = (
        "index", "clock", "workers", "records", "pool_fallbacks",
        "_open_stages", "_began", "_ended",
    )

    def __init__(
        self,
        index: int,
        specs: Sequence[Any],
        keys: Sequence[str],
        clock: MonotonicClock,
        workers: int = 1,
    ) -> None:
        self.index = index
        self.clock = clock
        self.workers = workers
        groups: Dict[str, int] = {}
        self.records: List[TaskTelemetry] = []
        for position, (spec, key) in enumerate(zip(specs, keys)):
            group = groups.setdefault(key, position)
            self.records.append(TaskTelemetry(
                index=position,
                kind=spec.kind,
                key=key,
                describe=spec.describe(),
                group=group,
            ))
        #: Tasks run serially in the parent after a pool worker died.
        self.pool_fallbacks = 0
        self._open_stages: Dict[Tuple[int, str], float] = {}
        self._began = clock.now()
        self._ended: Optional[float] = None

    # -- recording hooks (called by execute_batch under `is not None`) --

    def begin_stage(self, index: int, name: str) -> None:
        """Open a parent-side stage (cache-lookup / result-store)."""
        self._open_stages[(index, name)] = self.clock.now()

    def end_stage(self, index: int, name: str) -> None:
        begin = self._open_stages.pop((index, name))
        record = self.records[index]
        record.stages.append((name, begin, self.clock.now()))
        if record.worker is None:
            record.worker = "parent"

    def record_outcome(self, index: int, outcome: str) -> None:
        self.records[index].outcome = outcome

    def record_dedup(self, index: int, primary: int) -> None:
        record = self.records[index]
        record.outcome = OUTCOME_DEDUPLICATED
        record.dedup_of = primary

    def envelopes(
        self, pairs: Sequence[Tuple[int, Any]]
    ) -> List[TaskEnvelope]:
        """Wrap ``(index, spec)`` pairs for dispatch, stamping enqueue."""
        now = self.clock.now()
        return [
            TaskEnvelope(spec=spec, index=index, enqueued_at=now)
            for index, spec in pairs
        ]

    def absorb(self, tasks: Sequence[WorkerTask]) -> List[Any]:
        """Merge worker-side records; return the bare values in order."""
        parent = os.getpid()
        for task in tasks:
            record = self.records[task.index]
            record.worker = (
                "parent" if task.worker == parent else f"worker-{task.worker}"
            )
            record.stages.append(
                ("queue-wait", task.enqueued_at, task.started)
            )
            record.stages.append(("simulate", task.started, task.finished))
        return [task.value for task in tasks]

    def finish(self) -> None:
        self._ended = self.clock.now()

    # -- derived views -----------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        end = self._ended if self._ended is not None else self.clock.now()
        return end - self._began

    def executed_records(self) -> List[TaskTelemetry]:
        return [
            record for record in self.records
            if record.outcome == OUTCOME_EXECUTED
        ]

    def outcome_counts(self) -> Dict[str, int]:
        counts = {"total": len(self.records), "executed": 0,
                  "cache_hits": 0, "deduplicated": 0}
        for record in self.records:
            if record.outcome == OUTCOME_EXECUTED:
                counts["executed"] += 1
            elif record.outcome == OUTCOME_CACHE_HIT:
                counts["cache_hits"] += 1
            elif record.outcome == OUTCOME_DEDUPLICATED:
                counts["deduplicated"] += 1
        return counts

    # -- payload sections --------------------------------------------------

    def topology_payload(self) -> Dict[str, object]:
        """Mode-invariant span topology: same bytes for serial, pool,
        cold-cache, and warm-cache runs of the same spec list."""
        return {
            "index": self.index,
            "tasks": [
                {
                    "index": record.index,
                    "kind": record.kind,
                    "key": record.key,
                    "group": record.group,
                    "describe": record.describe,
                    "stages": list(STAGES),
                }
                for record in self.records
            ],
        }

    def outcomes_payload(self) -> Dict[str, object]:
        """Cache/dedup outcomes: deterministic across runs and across
        serial vs pool, mode-faithful for cache modes."""
        payload: Dict[str, object] = {"index": self.index}
        payload.update(self.outcome_counts())
        payload["outcomes"] = [record.outcome for record in self.records]
        payload["dedup_of"] = [record.dedup_of for record in self.records]
        return payload

    def timing_payload(self, epoch: float) -> Dict[str, object]:
        return {
            "index": self.index,
            "workers": self.workers,
            "pool_fallbacks": self.pool_fallbacks,
            "wall_seconds": self.wall_seconds,
            "started": self._began - epoch,
            "tasks": [
                {
                    "index": record.index,
                    "worker": record.worker,
                    "stages": [
                        {
                            "name": name,
                            "start": begin - epoch,
                            "end": end - epoch,
                        }
                        for name, begin, end in record.stages
                    ],
                }
                for record in self.records
            ],
            "pool": pool_utilization_windows(self.records, self.workers),
            "critical_path": batch_critical_path(self),
        }


# ---------------------------------------------------------------------------
# Pool utilization windows and the critical-path report.
# ---------------------------------------------------------------------------


def _simulate_interval(
    record: TaskTelemetry,
) -> Optional[Tuple[float, float]]:
    for name, begin, end in record.stages:
        if name == "simulate":
            return begin, end
    return None


def pool_utilization_windows(
    records: Sequence[TaskTelemetry],
    workers: int,
    window_count: int = 8,
) -> Dict[str, object]:
    """Tumbling wall-time windows over the pool's simulate stages.

    The runtime twin of :func:`~repro.observability.windows.windowed_series`:
    fixed non-overlapping windows across the batch wall, each reporting
    completions, peak in-flight tasks, busy worker-seconds, and
    saturation (busy / capacity).  Purely timing-section data.
    """
    if window_count < 1:
        raise ParameterError("window_count must be >= 1")
    intervals = [
        interval
        for interval in (_simulate_interval(r) for r in records)
        if interval is not None
    ]
    if not intervals:
        return {"workers": workers, "window_seconds": 0.0, "windows": []}
    start = min(begin for begin, _ in intervals)
    end = max(finish for _, finish in intervals)
    width = max((end - start) / window_count, 1e-9)
    capacity = max(1, min(workers, len(intervals)))

    def clamp(stamp: float) -> int:
        return min(int((stamp - start) // width), window_count - 1)

    completions = [0] * window_count
    busy = [0.0] * window_count
    peak = [0] * window_count
    events: List[Tuple[float, int]] = []
    for begin, finish in intervals:
        completions[clamp(finish)] += 1
        events.append((begin, 1))
        events.append((finish, -1))
        for w in range(clamp(begin), clamp(finish) + 1):
            lo = start + w * width
            hi = lo + width
            busy[w] += max(0.0, min(finish, hi) - max(begin, lo))
    events.sort()
    depth = 0
    for stamp, delta in events:
        depth += delta
        index = clamp(stamp)
        if depth > peak[index]:
            peak[index] = depth
    return {
        "workers": workers,
        "window_seconds": width,
        "windows": [
            {
                "index": w,
                "completions": completions[w],
                "peak_in_flight": peak[w],
                "busy_seconds": busy[w],
                "saturation": busy[w] / (capacity * width),
            }
            for w in range(window_count)
        ],
    }


def batch_critical_path(batch: BatchTelemetry) -> Dict[str, object]:
    """The spec chain that bounds the batch's wall-clock.

    Groups executed tasks by the worker that ran them; the *bounding
    worker* is the one whose last simulate stage finishes latest -- its
    ordered task chain is what serial-ized the batch.  The *straggler*
    is the single longest simulate stage anywhere.
    """
    timed = [
        (record, interval)
        for record in batch.records
        for interval in (_simulate_interval(record),)
        if interval is not None
    ]
    if not timed:
        return {"wall_seconds": batch.wall_seconds, "chain": [],
                "bounding_worker": None, "straggler": None}
    by_worker: Dict[str, List[Tuple[TaskTelemetry, Tuple[float, float]]]] = {}
    for record, interval in timed:
        by_worker.setdefault(record.worker or "parent", []).append(
            (record, interval)
        )
    bounding_worker = max(
        sorted(by_worker),
        key=lambda worker: max(i[1] for _, i in by_worker[worker]),
    )
    chain = sorted(by_worker[bounding_worker], key=lambda pair: pair[1][0])
    straggler_record, straggler_interval = max(
        timed, key=lambda pair: pair[1][1] - pair[1][0]
    )
    return {
        "wall_seconds": batch.wall_seconds,
        "bounding_worker": bounding_worker,
        "chain": [
            {
                "index": record.index,
                "describe": record.describe,
                "seconds": interval[1] - interval[0],
            }
            for record, interval in chain
        ],
        "chain_seconds": sum(i[1] - i[0] for _, i in chain),
        "straggler": {
            "index": straggler_record.index,
            "describe": straggler_record.describe,
            "seconds": straggler_interval[1] - straggler_interval[0],
        },
    }


# ---------------------------------------------------------------------------
# The telemetry root.
# ---------------------------------------------------------------------------


class RuntimeTelemetry:
    """Root collector for one process's runtime self-telemetry.

    Pass one instance through ``execute_batch(..., telemetry=...)`` (or
    the ``--telemetry-out`` CLI flag); it accumulates per-batch span
    records plus cache telemetry and renders the split
    structural/timing artifact.
    """

    __slots__ = ("label", "clock", "epoch", "batches", "cache")

    def __init__(
        self,
        label: str = "runtime",
        clock: Optional[MonotonicClock] = None,
    ) -> None:
        self.label = label
        self.clock = clock if clock is not None else MonotonicClock()
        self.epoch = self.clock.now()
        self.batches: List[BatchTelemetry] = []
        self.cache = CacheTelemetry(clock=self.clock)

    def begin_batch(
        self, specs: Sequence[Any], keys: Sequence[str], workers: int = 1
    ) -> BatchTelemetry:
        batch = BatchTelemetry(
            index=len(self.batches), specs=specs, keys=keys,
            clock=self.clock, workers=workers,
        )
        self.batches.append(batch)
        return batch

    # -- payloads ----------------------------------------------------------

    def structural_payload(self) -> Dict[str, object]:
        totals = {"total": 0, "executed": 0, "cache_hits": 0,
                  "deduplicated": 0}
        for batch in self.batches:
            for key, value in batch.outcome_counts().items():
                totals[key] += value
        return {
            "schema": TELEMETRY_SCHEMA,
            "label": self.label,
            "topology": {
                "batches": [b.topology_payload() for b in self.batches],
            },
            "outcomes": {
                "batches": [b.outcomes_payload() for b in self.batches],
                "totals": totals,
            },
            "cache": self.cache.counts(),
        }

    def timing_payload(self) -> Dict[str, object]:
        return {
            "nondeterministic": True,
            "batches": [b.timing_payload(self.epoch) for b in self.batches],
            "cache": self.cache.timing_payload(),
        }

    def payload(self) -> Dict[str, object]:
        return {
            "schema": TELEMETRY_SCHEMA,
            "structural": self.structural_payload(),
            "timing": self.timing_payload(),
        }

    def to_trace_data(self) -> TraceData:
        """The batch-level runtime trace, through the span data model.

        Timestamps are nanoseconds since the telemetry epoch (the OTLP
        exporter maps one unit to one nanosecond), so the existing
        exporters render runtime traces unchanged.
        """
        return _build_trace(
            self.label,
            [
                (batch.index, batch.wall_seconds, batch._began - self.epoch,
                 batch.records)
                for batch in self.batches
            ],
            self.epoch,
        )


def _build_trace(label, batches, epoch) -> TraceData:
    spans: List[Span] = []
    sequence = 0
    for index, wall_seconds, started, records in batches:
        trace_id = trace_id_from_request(index)
        batch_span = span_id_from_sequence(sequence)
        sequence += 1
        spans.append(Span(
            span_id=batch_span, trace_id=trace_id, parent_id=None,
            name=f"batch[{index}]", kind=SpanKind.BATCH,
            start=started * 1e9,
            end=(started + wall_seconds) * 1e9,
        ))
        for record in records:
            interval = record.span_interval()
            if interval is None:
                continue
            task_span = span_id_from_sequence(sequence)
            sequence += 1
            spans.append(Span(
                span_id=task_span, trace_id=trace_id, parent_id=batch_span,
                name=record.describe, kind=SpanKind.TASK,
                start=(interval[0] - epoch) * 1e9,
                end=(interval[1] - epoch) * 1e9,
                attrs=(
                    ("task.index", record.index),
                    ("task.key", record.key),
                    ("task.outcome", record.outcome or "unknown"),
                    ("task.worker", record.worker or "parent"),
                ),
            ))
            for name, begin, end in sorted(
                record.stages, key=lambda stage: stage[1]
            ):
                spans.append(Span(
                    span_id=span_id_from_sequence(sequence),
                    trace_id=trace_id, parent_id=task_span,
                    name=name, kind=SpanKind.STAGE,
                    start=(begin - epoch) * 1e9,
                    end=(end - epoch) * 1e9,
                ))
                sequence += 1
    return TraceData(label=label, spans=tuple(spans), timelines=())


def trace_data_from_payload(payload: Dict[str, object]) -> TraceData:
    """Rebuild the runtime span tree from a written telemetry artifact.

    A pure function of the artifact bytes, so exporting spans from a
    loaded artifact is deterministic given the file.
    """
    structural = payload["structural"]
    timing = payload["timing"]
    describe_by_batch: Dict[int, Dict[int, Dict[str, object]]] = {}
    for batch in structural["topology"]["batches"]:
        describe_by_batch[batch["index"]] = {
            task["index"]: task for task in batch["tasks"]
        }
    outcomes_by_batch = {
        batch["index"]: batch["outcomes"]
        for batch in structural["outcomes"]["batches"]
    }
    batches = []
    for batch in timing["batches"]:
        tasks = describe_by_batch.get(batch["index"], {})
        outcomes = outcomes_by_batch.get(batch["index"], [])
        records = []
        for task in batch["tasks"]:
            meta = tasks.get(task["index"], {})
            record = TaskTelemetry(
                index=task["index"],
                kind=str(meta.get("kind", "?")),
                key=str(meta.get("key", "?")),
                describe=str(meta.get("describe", f"task[{task['index']}]")),
                group=int(meta.get("group", task["index"])),
                outcome=(
                    outcomes[task["index"]]
                    if task["index"] < len(outcomes) else None
                ),
                worker=task.get("worker"),
            )
            for stage in task["stages"]:
                record.stages.append(
                    (stage["name"], stage["start"], stage["end"])
                )
            records.append(record)
        batches.append(
            (batch["index"], batch["wall_seconds"], batch["started"], records)
        )
    return _build_trace(str(structural.get("label", "runtime")), batches, 0.0)


# ---------------------------------------------------------------------------
# Artifact I/O and the summary renderer.
# ---------------------------------------------------------------------------


def load_runtime_telemetry(path: Union[str, Path]) -> Dict[str, object]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ParameterError(f"invalid JSON in {path}: {error}") from error
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != TELEMETRY_SCHEMA:
        raise ParameterError(
            f"{path}: not a runtime-telemetry artifact: schema {schema!r} "
            f"(expected {TELEMETRY_SCHEMA!r})"
        )
    for section in ("structural", "timing"):
        if not isinstance(payload.get(section), dict):
            raise ParameterError(
                f"{path}: runtime-telemetry artifact has no {section!r} section"
            )
    return payload


def summarize_runtime_telemetry(payload: Dict[str, object]) -> str:
    """Human-readable summary of a telemetry artifact (`repro telemetry`)."""
    structural = payload["structural"]
    timing = payload["timing"]
    totals = structural["outcomes"]["totals"]
    cache = structural["cache"]
    lines = [
        f"runtime telemetry: {structural['label']} "
        f"({len(structural['topology']['batches'])} batches)",
        f"  specs:      {totals['total']} total — "
        f"{totals['executed']} executed, "
        f"{totals['cache_hits']} cache hits, "
        f"{totals['deduplicated']} deduplicated",
        f"  cache:      {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['stale_drops']} stale drops, "
        f"{cache['corrupt_drops']} corrupt drops, {cache['puts']} puts)",
    ]
    if cache["bytes_written"] or cache["bytes_read"]:
        lines.append(
            f"  cache bytes: {cache['bytes_read']:,} read / "
            f"{cache['bytes_written']:,} written"
        )
    for batch in timing["batches"]:
        line = (
            f"  batch[{batch['index']}]: {batch['wall_seconds']:.3f}s wall, "
            f"workers={batch['workers']}"
        )
        if batch.get("pool_fallbacks"):
            line += (f", {batch['pool_fallbacks']} rerun serially after a "
                     "worker died")
        lines.append(line)
        critical = batch.get("critical_path") or {}
        straggler = critical.get("straggler")
        if straggler is not None:
            lines.append(
                f"    straggler: {straggler['describe']} "
                f"({straggler['seconds']:.3f}s)"
            )
        chain = critical.get("chain") or ()
        if chain:
            lines.append(
                f"    critical chain ({critical['bounding_worker']}, "
                f"{critical['chain_seconds']:.3f}s):"
            )
            for link in chain:
                lines.append(
                    f"      {link['seconds']:8.3f}s  {link['describe']}"
                )
    return "\n".join(lines)
