"""Batch executor: run many :class:`RunSpec`s fast, once each, in order.

The executor is the funnel every fleet-style experiment in the repo goes
through (service characterization, the validation matrix, case studies,
oversubscription sweeps, application topologies).  It guarantees:

* **Deterministic ordering** -- results come back positionally aligned
  with the input specs regardless of worker scheduling.
* **Bit-identical results** -- every run depends only on its spec (each
  runner builds its own seeded RNG), so a pool run equals a serial run
  equals a cache replay, value for value.
* **No duplicate work** -- specs with equal cache keys are executed once
  per batch, and cached results are never re-simulated.
* **Serial fallback** -- ``workers=1`` runs in-process with no pool (and
  no pickling), which is also the degenerate path used under pytest.
* **Zero observer effect** -- pass a
  :class:`~repro.observability.telemetry.RuntimeTelemetry` to record the
  runtime span tree (queue wait → cache lookup → simulate → result
  store); every telemetry hook is ``is not None``-gated (OBS001) and the
  executor itself never reads a clock, so untelemetered batches are
  bit-identical to a build without telemetry.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ParameterError
from ..observability.telemetry import (
    OUTCOME_CACHE_HIT,
    OUTCOME_EXECUTED,
    RuntimeTelemetry,
    run_task as _run_telemetered_task,
)
from .cache import ResultCache, resolve_cache
from .runners import run_spec
from .spec import RunSpec

CacheArg = Union[None, bool, ResultCache]


def execute_run(spec: RunSpec) -> Any:
    """Execute one spec.  Module-level so worker processes can unpickle
    the callable by reference."""
    return run_spec(spec)


@dataclasses.dataclass
class BatchReport:
    """Accounting for one :func:`execute_batch` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0

    @property
    def simulated_nothing(self) -> bool:
        """True when the whole batch was served without running a single
        simulation (the warm-cache fast path)."""
        return self.executed == 0 and self.total > 0


def execute_batch(
    specs: Iterable[RunSpec],
    *,
    workers: int = 1,
    cache: CacheArg = None,
    report: Optional[BatchReport] = None,
    telemetry: Optional[RuntimeTelemetry] = None,
) -> List[Any]:
    """Execute *specs*, returning results in input order.

    *workers* > 1 fans uncached specs across a ``ProcessPoolExecutor``;
    *cache* (``True`` / a :class:`ResultCache`) serves repeats from disk
    and stores fresh results.  Pass a :class:`BatchReport` to observe how
    much work was actually done, and/or a
    :class:`~repro.observability.telemetry.RuntimeTelemetry` to record
    the runtime-level span tree and cache/pool telemetry for the call.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    spec_list = list(specs)
    keys = [spec.key() for spec in spec_list]
    store = resolve_cache(cache)
    results: List[Any] = [None] * len(spec_list)
    if report is None:
        report = BatchReport()
    report.total += len(spec_list)

    batch_telemetry = None
    cache_attached = False
    if telemetry is not None:
        batch_telemetry = telemetry.begin_batch(
            spec_list, keys, workers=workers
        )
        if store is not None and store.telemetry is None:
            store.telemetry = telemetry.cache
            cache_attached = True
    try:
        # Cache pass + key-level dedup of the remainder.
        pending: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            if store is not None:
                if batch_telemetry is not None:
                    batch_telemetry.begin_stage(index, "cache-lookup")
                found, value = store.lookup(key)
                if batch_telemetry is not None:
                    batch_telemetry.end_stage(index, "cache-lookup")
                if found:
                    results[index] = value
                    report.cache_hits += 1
                    if batch_telemetry is not None:
                        batch_telemetry.record_outcome(
                            index, OUTCOME_CACHE_HIT
                        )
                    continue
            pending.setdefault(key, []).append(index)

        unique: List[Tuple[str, RunSpec]] = [
            (key, spec_list[indices[0]]) for key, indices in pending.items()
        ]
        report.deduplicated += sum(len(v) - 1 for v in pending.values())
        report.executed += len(unique)
        if batch_telemetry is not None:
            for key, indices in pending.items():
                batch_telemetry.record_outcome(indices[0], OUTCOME_EXECUTED)
                for duplicate in indices[1:]:
                    batch_telemetry.record_dedup(duplicate, indices[0])

        if not unique:
            return results
        serial = workers == 1 or len(unique) == 1
        if batch_telemetry is not None:
            # Telemetered path: same work, wrapped in envelopes so the
            # workers stamp the simulate stage and ship it back
            # piggy-backed on the pool results.
            envelopes = batch_telemetry.envelopes(
                [(pending[key][0], spec) for key, spec in unique]
            )
            if serial:
                tasks = [
                    _run_telemetered_task(envelope) for envelope in envelopes
                ]
            else:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(unique))
                ) as pool:
                    tasks = list(pool.map(_run_telemetered_task, envelopes))
            outputs = batch_telemetry.absorb(tasks)
        elif serial:
            outputs = [execute_run(spec) for _, spec in unique]
        else:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(unique))
            ) as pool:
                # Executor.map preserves submission order: deterministic.
                outputs = list(
                    pool.map(execute_run, [spec for _, spec in unique])
                )

        for (key, _), value in zip(unique, outputs):
            if store is not None:
                primary = pending[key][0]
                if batch_telemetry is not None:
                    batch_telemetry.begin_stage(primary, "result-store")
                store.put(key, value)
                if batch_telemetry is not None:
                    batch_telemetry.end_stage(primary, "result-store")
            for index in pending[key]:
                results[index] = value
        return results
    finally:
        if batch_telemetry is not None:
            batch_telemetry.finish()
        if cache_attached:
            store.telemetry = None
