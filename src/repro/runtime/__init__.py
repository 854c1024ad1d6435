"""Parallel simulation runtime: declarative runs, pooling, and caching.

This package turns the repository's serial "call the simulator in a
loop" experiments into batched, parallel, cached executions:

* :class:`RunSpec` -- a declarative, hashable description of one run;
* :mod:`~repro.runtime.runners` -- the registry mapping spec kinds to
  picklable results;
* :func:`execute_batch` -- the executor (process pool, serial fallback,
  deterministic ordering, in-batch dedup);
* :class:`ResultCache` -- the content-addressed on-disk store keyed by
  spec hashes, so an identical run is never simulated twice.

See ``docs/runtime.md`` for hashing rules, invalidation, and guidance on
choosing ``--workers``.
"""

from .batch import BatchReport, execute_batch, execute_run
from .cache import ResultCache, default_cache_root, resolve_cache
from .runners import registered_kinds, run_spec
from .spec import SCHEMA_VERSION, RunSpec

__all__ = [
    "BatchReport",
    "ResultCache",
    "RunSpec",
    "SCHEMA_VERSION",
    "default_cache_root",
    "execute_batch",
    "execute_run",
    "registered_kinds",
    "resolve_cache",
    "run_spec",
]
