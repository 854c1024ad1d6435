"""Performance regression tests for the batch runtime (``-m perf``).

Excluded from the default test run (see ``addopts`` in pyproject.toml);
run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_runtime.py -m perf

Assertions are deliberately conservative -- they catch order-of-magnitude
regressions (a lost fast path, caching silently disabled), not machine
noise.  Absolute numbers live in ``scripts/bench_runtime.py``'s JSON
report.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.characterization import characterize_all
from repro.runtime import BatchReport, ResultCache
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.service import Microservice
from repro.validation.matrix import validation_matrix
from repro.workloads import build_workload

pytestmark = pytest.mark.perf


def test_des_event_rate_floor():
    """The inlined engine loop must sustain a healthy event rate."""
    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=4.0e6)
    best = 0.0
    for _ in range(3):
        rng = np.random.default_rng(0)

        def build(engine, cpu, metrics):
            service = Microservice(engine, cpu, metrics, name="cache1")
            return service, workload.request_factory(rng)

        start = time.perf_counter()
        result = run_simulation(build, config)
        elapsed = time.perf_counter() - start
        best = max(best, result.events_processed / elapsed)
    # The optimized loop clears ~200k events/s on a throttled single-CPU
    # container; the floor sits far below that and only catches
    # catastrophic regressions (a lost fast path, quadratic queueing).
    assert best > 80_000, f"event rate collapsed: {best:,.0f} events/s"


def test_tracing_overhead_is_bounded():
    """Span tracing buys its data with wall clock only, and not much of
    it: a traced run must stay within a small constant factor of the
    untraced run (BENCH_runtime.json records the measured ratio)."""
    from repro.observability import SpanTracer

    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=4.0e6)

    def run_once(tracer):
        rng = np.random.default_rng(0)

        def build(engine, cpu, metrics):
            service = Microservice(engine, cpu, metrics, name="cache1")
            return service, workload.request_factory(rng)

        start = time.perf_counter()
        run_simulation(build, config, tracer=tracer)
        return time.perf_counter() - start

    best_off = min(run_once(None) for _ in range(3))
    best_on = min(run_once(SpanTracer(label="bench")) for _ in range(3))
    # Measured ~1.7x on a throttled container; 4x catches an accidental
    # per-event allocation or a tracer call that escaped its gate.
    assert best_on < best_off * 4.0, (
        f"tracing overhead exploded: {best_on / best_off:.1f}x"
    )


def test_pure_python_event_rate_floor(monkeypatch):
    """The pure-Python fallback engine must never regress below the
    pre-compilation floor: it is the reference path every artifact diff
    compares against, and the only path on toolchain-less hosts."""
    import repro.simulator.runner as runner
    from repro.simulator.hotcore import PyEngine

    monkeypatch.setattr(runner, "Engine", PyEngine)
    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=4.0e6)
    best = 0.0
    for _ in range(3):
        rng = np.random.default_rng(0)

        def build(engine, cpu, metrics):
            service = Microservice(engine, cpu, metrics, name="cache1")
            return service, workload.request_factory(rng)

        start = time.perf_counter()
        result = run_simulation(build, config)
        elapsed = time.perf_counter() - start
        best = max(best, result.events_processed / elapsed)
    # Locally ~210k events/s after the enum identity-hash work; 150k
    # leaves CI headroom while still catching a lost fast path.
    assert best > 150_000, f"pure event rate regressed: {best:,.0f} events/s"


def test_ring_recording_overhead_bounded():
    """Ring recording (the per-event cost while the window runs, decode
    excluded) must stay small on the selected path -- the configuration
    every real run uses.  BENCH_runtime.json records the measured number
    (~10% locally) plus the one-time decode cost separately.

    Statistic: the *minimum over paired ratios* of adjacent (off, on)
    runs.  Shared-container throttling swings individual wall times by
    >50%, but it moves both sides of an adjacent pair together, and a
    real regression (say, a per-event allocation at ~+50%) inflates
    *every* pair -- so the best pair is a stable floor where min/min
    across the whole batch is not.
    """
    from repro.observability import SpanTracer

    class RecordOnlyTracer(SpanTracer):
        """Skips finish() so only per-event recording is on the clock."""

        def finish(self):
            return None

    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=4.0e6)

    def run_once(tracer):
        rng = np.random.default_rng(0)

        def build(engine, cpu, metrics):
            service = Microservice(engine, cpu, metrics, name="cache1")
            return service, workload.request_factory(rng)

        start = time.perf_counter()
        run_simulation(build, config, tracer=tracer)
        return time.perf_counter() - start

    ratios = []
    for _ in range(5):
        off = run_once(None)
        on = run_once(RecordOnlyTracer(label="bench"))
        ratios.append(on / off - 1.0)
    overhead = min(ratios)
    assert overhead < 0.15, (
        f"ring recording overhead {overhead:.1%} exceeds the 15% budget"
    )


def test_warm_cache_replay_is_fast_and_complete(tmp_path):
    """A warm cache must skip simulation entirely and be near-instant."""
    cache = ResultCache(tmp_path)
    kwargs = dict(requests_target=60, num_cores=2, seed=2020, cache=cache)

    start = time.perf_counter()
    cold = characterize_all(**kwargs)
    cold_seconds = time.perf_counter() - start

    report = BatchReport()
    start = time.perf_counter()
    warm = characterize_all(report=report, **kwargs)
    warm_seconds = time.perf_counter() - start

    assert report.simulated_nothing
    assert warm_seconds < cold_seconds / 5
    assert {s: r.simulation.fingerprint() for s, r in warm.items()} == \
           {s: r.simulation.fingerprint() for s, r in cold.items()}


def test_batch_telemetry_overhead_is_bounded():
    """Runtime self-telemetry brackets a handful of stages per *task*,
    not per simulated event, so its wall cost must be noise-level.

    Statistic: the minimum over paired ratios of adjacent (off, on)
    runs, the same stable floor the ring-recording test uses -- a
    throttled container swings absolute walls but moves both halves of
    a pair together, while a real regression inflates every pair.
    """
    from repro.observability import RuntimeTelemetry
    from repro.runtime import RunSpec, execute_batch

    def specs():
        return [
            RunSpec.create("characterize", seed=seed, service="cache1",
                           num_cores=2, requests_target=60)
            for seed in (2020, 2021, 2022)
        ]

    ratios = []
    for _ in range(5):
        start = time.perf_counter()
        execute_batch(specs())
        off = time.perf_counter() - start

        start = time.perf_counter()
        execute_batch(specs(), telemetry=RuntimeTelemetry(label="bench"))
        on = time.perf_counter() - start
        ratios.append(on / off - 1.0)
    overhead = min(ratios)
    assert overhead < 0.10, (
        f"batch telemetry overhead {overhead:.1%} exceeds the 10% budget"
    )


def test_pool_run_not_pathological():
    """A pool run must never cost materially more than serial.

    Whether the pool wins depends on the host's CPUs: on one CPU
    fork+pickle overhead makes it slower than serial, so this pins only
    that the overhead stays bounded.  BENCH_runtime.json records the
    measured ``pool_speedup`` next to the CPU count it was taken on.
    """
    kwargs = dict(window_cycles=2.0e6)
    start = time.perf_counter()
    serial = validation_matrix(workers=1, **kwargs)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pooled = validation_matrix(workers=4, **kwargs)
    pool_seconds = time.perf_counter() - start

    assert pooled.cells == serial.cells
    assert pool_seconds < serial_seconds * 2.0 + 1.0
