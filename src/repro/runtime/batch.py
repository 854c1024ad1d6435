"""Batch executor: run many :class:`RunSpec`s fast, once each, in order.

The executor is the funnel every fleet-style experiment in the repo goes
through (service characterization, the validation matrix, case studies,
oversubscription sweeps, application topologies).  It guarantees:

* **Deterministic ordering** -- results come back positionally aligned
  with the input specs regardless of worker scheduling.
* **Bit-identical results** -- every run depends only on its spec (each
  runner builds its own seeded RNG), so a pool run equals a serial run
  equals a cache replay, value for value.
* **No duplicate work** -- specs with equal cache keys are looked up and
  executed once per batch, and cached results are never re-simulated.
* **Serial fallback** -- ``workers=1`` runs in-process with no pool (and
  no pickling), which is also the degenerate path used under pytest.
  When a pool worker dies (``BrokenProcessPool``), the specs the pool
  did not finish run serially in this process, in order.
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
from concurrent.futures.process import BrokenProcessPool
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
    #: Specs run serially in this process because a pool worker died.
    pool_fallbacks: int = 0

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
    # Equal specs share a key, so each distinct spec is hashed once: an
    # A/B batch repeats its baselines once per cell.
    memo: Dict[RunSpec, str] = {}
    keys = [
        memo[spec] if spec in memo else memo.setdefault(spec, spec.key())
        for spec in spec_list
    ]
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
        # Key-level dedup first, so each distinct key is looked up and
        # executed once; the repeats are deduplicated in every mode.
        groups: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
        report.deduplicated += len(keys) - len(groups)
        if batch_telemetry is not None:
            for indices in groups.values():
                for duplicate in indices[1:]:
                    batch_telemetry.record_dedup(duplicate, indices[0])

        pending: Dict[str, List[int]] = {}
        for key, indices in groups.items():
            primary = indices[0]
            if store is not None:
                if batch_telemetry is not None:
                    batch_telemetry.begin_stage(primary, "cache-lookup")
                found, value = store.lookup(key)
                if batch_telemetry is not None:
                    batch_telemetry.end_stage(primary, "cache-lookup")
                if found:
                    for index in indices:
                        results[index] = value
                    report.cache_hits += 1
                    if batch_telemetry is not None:
                        batch_telemetry.record_outcome(
                            primary, OUTCOME_CACHE_HIT
                        )
                    continue
            pending[key] = indices
            if batch_telemetry is not None:
                batch_telemetry.record_outcome(primary, OUTCOME_EXECUTED)

        unique: List[Tuple[str, RunSpec]] = [
            (key, spec_list[indices[0]]) for key, indices in pending.items()
        ]
        report.executed += len(unique)
        if not unique:
            return results
        if batch_telemetry is not None:
            # Telemetered path: same work, wrapped in envelopes so the
            # workers stamp the simulate stage and ship it back
            # piggy-backed on the pool results.
            task, inputs = _run_telemetered_task, batch_telemetry.envelopes(
                [(pending[key][0], spec) for key, spec in unique]
            )
        else:
            task, inputs = execute_run, [spec for _, spec in unique]
        outputs: List[Any] = []
        if workers == 1 or len(unique) == 1:
            outputs = [task(item) for item in inputs]
        else:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(unique))
                ) as pool:
                    # Executor.map yields in submission order:
                    # deterministic, and a prefix when the pool breaks.
                    for value in pool.map(task, inputs):
                        outputs.append(value)
            except BrokenProcessPool:
                rest = inputs[len(outputs):]
                report.pool_fallbacks += len(rest)
                if batch_telemetry is not None:
                    batch_telemetry.pool_fallbacks += len(rest)
                outputs.extend(task(item) for item in rest)
        if batch_telemetry is not None:
            outputs = batch_telemetry.absorb(outputs)

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
