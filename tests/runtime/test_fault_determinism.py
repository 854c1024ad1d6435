"""Fault-enabled runs obey the same bit-identity contract as healthy ones.

Seeded fault injection adds a second entropy stream to a run; these
tests pin that serial, pooled, and cache-replayed executions of
fault-enabled RunSpecs still agree bit for bit, and that the cache
schema version was bumped for the new measurement surface.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.application.resilience import resilience_grid, run_resilience_point
from repro.core.strategies import ThreadingDesign
from repro.runtime import BatchReport, ResultCache
from repro.runtime.spec import SCHEMA_VERSION

SEEDS = (0, 77)
DESIGNS = (
    ThreadingDesign.SYNC,
    ThreadingDesign.SYNC_OS,
    ThreadingDesign.ASYNC,
)

#: A small grid: determinism does not depend on simulation length.
FAST = dict(
    drop_probabilities=(0.1, 0.3),
    timeout_cycles=(2_000.0,),
    window_cycles=2.0e6,
)


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_pool_and_cache_agree(seed, tmp_path):
    cache = ResultCache(tmp_path)
    serial = resilience_grid(seed=seed, **FAST)
    pooled = resilience_grid(seed=seed, workers=2, **FAST)
    cached_cold = resilience_grid(seed=seed, cache=cache, **FAST)
    replay = BatchReport()
    cached_warm = resilience_grid(seed=seed, cache=cache, report=replay, **FAST)

    # Frozen dataclasses of scalars: equality is bit-for-bit.
    assert pooled.points == serial.points
    assert cached_cold.points == serial.points
    assert cached_warm.points == serial.points
    assert replay.simulated_nothing
    # One cache entry per accelerated run plus the one baseline they
    # share; the other cells' baseline specs are deduplicated.
    assert replay.cache_hits == len(serial.points) + 1
    assert replay.deduplicated == len(serial.points) - 1


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_reproduces_every_fault_counter(design, seed):
    """Two same-seed runs observe identical retries, timeouts, and
    fallbacks -- the fault stream is a pure function of the seed."""
    kwargs = dict(
        drop_probability=0.2, timeout_cycles=1_500.0, design=design,
        window_cycles=2.0e6, seed=seed,
    )
    first = run_resilience_point(**kwargs)
    second = run_resilience_point(**kwargs)
    assert first == second
    assert first.retries == second.retries
    assert first.fallbacks == second.fallbacks


def test_distinct_seeds_give_distinct_fault_streams():
    kwargs = dict(drop_probability=0.2, timeout_cycles=1_500.0,
                  window_cycles=2.0e6)
    a = run_resilience_point(seed=SEEDS[0], **kwargs)
    b = run_resilience_point(seed=SEEDS[1], **kwargs)
    assert a != b


def test_points_are_picklable_frozen_dataclasses():
    """The pool/cache path requires plain-data results."""
    import pickle

    point = run_resilience_point(
        drop_probability=0.1, timeout_cycles=1_000.0,
        window_cycles=2.0e6, seed=0,
    )
    assert dataclasses.is_dataclass(point)
    assert pickle.loads(pickle.dumps(point)) == point


def test_schema_version_was_bumped_for_fault_accounting():
    """Fault-enabled summaries changed the measurement surface (v3), and
    the observability layer changed the RunSummary pickle layout (v4):
    the cache key salt must keep moving so stale entries become
    unreachable instead of unpickling into the wrong shape."""
    assert SCHEMA_VERSION == "accelerometer-runtime-v4"
