#!/usr/bin/env python
"""Benchmark the simulation runtime: DES event rate and batch wall-clock.

Measures six things and writes them to ``BENCH_runtime.json``:

1. **DES hot path** -- sustained events/second of the engine+CPU core
   loop on the Cache1 characterization workload (single process, the
   number the hot-path optimizations move).
2. **Ring-buffer tracing** -- per-event recording overhead of the span
   tracer's flat ring path (decode excluded), the one-time decode cost,
   and the end-to-end traced/untraced ratio the v2 schema reported.
3. **Compiled kernel** -- events/second of the optional C hot core
   (``repro._hotcore``) against the pure-Python engine on the same
   workload, plus which path ``REPRO_COMPILED`` selected.
4. **Batch executor** -- wall-clock of the 24-cell validation matrix run
   serially and with ``--workers`` processes (speedup requires real
   CPUs; on a single-CPU container the two are expected to tie).
5. **Result cache** -- the same matrix served entirely from a warm
   on-disk cache (no simulation at all).
6. **Batch telemetry** -- wall-clock of a small characterization batch
   with runtime self-telemetry off vs on (the v4 addition).  Simulation
   results are bit-identical either way -- the zero-observer tests pin
   that -- so the paired overhead ratio is the entire cost of the
   feature.

Every hot-loop number is sampled ``--repeat`` times (default 5).
Traced-vs-untraced comparisons interleave the two sides and report
*paired* ratios: shared-container throttling swings absolute wall times
by >50% between seconds, but it moves both halves of an adjacent pair
together, so the best and median pair are stable where a cross-batch
min/min ratio is not.

Usage::

    python scripts/bench_runtime.py [--workers N]
        [--repeat K] [--output BENCH_runtime.json]

Runs from any working directory: the script adds the repository's
``src/`` to ``sys.path`` itself when ``repro`` is not already
importable, so no ``PYTHONPATH`` setup is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.characterization import characterize
from repro.runtime import BatchReport, ResultCache
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.service import Microservice
from repro.validation.matrix import validation_matrix
from repro.workloads import build_workload

_WINDOW = 4.0e6


def _cache1_runner(window_cycles: float = _WINDOW):
    """A closure that runs one seeded cache1 window and times it."""
    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=window_cycles)

    def run_once(tracer=None):
        rng = np.random.default_rng(0)

        def build(engine, cpu, metrics):
            service = Microservice(engine, cpu, metrics, name="cache1")
            return service, workload.request_factory(rng)

        start = time.perf_counter()
        result = run_simulation(build, config, tracer=tracer)
        return result, time.perf_counter() - start

    return run_once


def bench_event_rate(repeat: int = 5, window_cycles: float = _WINDOW) -> dict:
    """Events/second of the DES hot path (best and median of *repeat*)."""
    run_once = _cache1_runner(window_cycles)
    rates = []
    events = 0
    for _ in range(repeat):
        result, elapsed = run_once()
        events = result.events_processed
        rates.append(events / elapsed)
    best = max(rates)
    return {
        "events": events,
        "wall_seconds": events / best,
        "events_per_second": best,
        "median_events_per_second": statistics.median(rates),
        "samples": repeat,
    }


def bench_tracing_overhead(repeat: int = 5,
                           window_cycles: float = _WINDOW) -> dict:
    """End-to-end wall-clock cost of span tracing (decode included).

    Simulated-time results are bit-identical either way (the
    zero-observer-effect regression tests pin that), so wall clock is
    the only thing tracing is allowed to cost.  ``overhead_pct`` is the
    median paired ratio; best-of rates keep the v2 field names."""
    from repro.observability import SpanTracer

    run_once = _cache1_runner(window_cycles)
    off, on, ratios = [], [], []
    events = 0
    for _ in range(repeat):
        result, off_seconds = run_once()
        events = result.events_processed
        _, on_seconds = run_once(SpanTracer(label="bench"))
        off.append(off_seconds)
        on.append(on_seconds)
        ratios.append(on_seconds / off_seconds - 1.0)
    return {
        "events": events,
        "untraced_events_per_second": events / min(off),
        "traced_events_per_second": events / min(on),
        "overhead_pct": statistics.median(ratios) * 100.0,
        "best_pair_overhead_pct": min(ratios) * 100.0,
        "samples": repeat,
    }


def bench_ring_tracing(repeat: int = 5, window_cycles: float = _WINDOW) -> dict:
    """Per-event ring recording cost vs the one-time decode cost.

    Recording is measured with ``finish()`` stubbed out, so only the
    in-window hook cost (span ring appends + interval sink records) is
    on the clock; the decode -- rebuilding the span objects and grouping
    the interval columns per request after the run -- is timed
    separately.  This is the headline split for the flat-ring design: the
    simulated window pays a few hundred nanoseconds per event, and the
    decode happens once, off the hot path."""
    from repro.observability import SpanTracer
    from repro.observability import tracer as tracer_module

    class RecordOnlyTracer(SpanTracer):
        def finish(self):
            return None

    run_once = _cache1_runner(window_cycles)
    ratios = []
    events = 0
    for _ in range(repeat):
        result, off_seconds = run_once()
        events = result.events_processed
        _, on_seconds = run_once(RecordOnlyTracer(label="bench"))
        ratios.append(on_seconds / off_seconds - 1.0)

    # Decode cost: run once with the real tracer, then re-time finish()
    # alone (end-patching is idempotent and decode is a pure read).
    tracer = SpanTracer(label="bench")
    run_once(tracer)
    start = time.perf_counter()
    trace = tracer.finish()
    decode_seconds = time.perf_counter() - start

    sink = tracer_module._COMPILED_SINK
    return {
        "events": events,
        "recording_overhead_pct": min(ratios) * 100.0,
        "recording_overhead_median_pct": statistics.median(ratios) * 100.0,
        "decode_seconds": decode_seconds,
        "decoded_spans": len(trace.spans),
        "decoded_timelines": len(trace.timelines),
        "interval_sink": "IntervalSink" if sink is not None else "PyIntervalSink",
        "samples": repeat,
    }


def bench_compiled_kernel(repeat: int = 5,
                          window_cycles: float = _WINDOW) -> dict:
    """Compiled vs pure-Python engine on the same seeded window.

    The pure side is measured by rebinding the runner's engine class
    in-process (exactly what ``REPRO_COMPILED=0`` does at import time);
    artifacts are bit-identical either way, pinned by test.  On a
    checkout without the built extension both sides run the pure engine
    and the speedup degenerates to ~1.0."""
    import repro.simulator.runner as runner
    from repro.simulator import hotcore

    run_once = _cache1_runner(window_cycles)
    selected_engine = runner.Engine
    compiled, pure, ratios = [], [], []
    events = 0
    try:
        for _ in range(repeat):
            runner.Engine = selected_engine
            result, selected_seconds = run_once()
            events = result.events_processed
            runner.Engine = hotcore.PyEngine
            _, pure_seconds = run_once()
            compiled.append(selected_seconds)
            pure.append(pure_seconds)
            ratios.append(pure_seconds / selected_seconds)
    finally:
        runner.Engine = selected_engine
    return {
        "status": hotcore.status(),
        "events": events,
        "selected_events_per_second": events / min(compiled),
        "pure_events_per_second": events / min(pure),
        "speedup": statistics.median(ratios),
        "best_pair_speedup": max(ratios),
        "samples": repeat,
    }


def bench_characterize(repeat: int = 2) -> dict:
    """Wall-clock of one full service characterization."""
    best = None
    for index in range(repeat):
        start = time.perf_counter()
        run = characterize("cache1", seed=2020, requests_target=200)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best["wall_seconds"]:
            best = {
                "wall_seconds": elapsed,
                "events": run.simulation.events_processed,
                "events_per_second": run.simulation.events_processed / elapsed,
            }
    return best


def bench_batch_telemetry(repeat: int = 5) -> dict:
    """Paired telemetry-off vs telemetry-on wall of a small batch.

    Runs the same three-spec characterization batch through
    ``execute_batch`` with and without a ``RuntimeTelemetry`` observer,
    interleaved so throttling moves both halves of a pair together.
    Stage bracketing happens a handful of times per *task* (not per
    simulated event), so the overhead should be noise-level; the span
    count records how much structure each observed run captured."""
    from repro.observability import RuntimeTelemetry
    from repro.runtime import RunSpec, execute_batch

    def specs():
        return [
            RunSpec.create("characterize", seed=seed, service="cache1",
                           num_cores=2, requests_target=60)
            for seed in (2020, 2021, 2022)
        ]

    off, on, ratios = [], [], []
    spans = 0
    for _ in range(repeat):
        start = time.perf_counter()
        execute_batch(specs())
        off_seconds = time.perf_counter() - start

        telemetry = RuntimeTelemetry(label="bench")
        start = time.perf_counter()
        execute_batch(specs(), telemetry=telemetry)
        on_seconds = time.perf_counter() - start

        spans = len(telemetry.to_trace_data().spans)
        off.append(off_seconds)
        on.append(on_seconds)
        ratios.append(on_seconds / off_seconds - 1.0)
    return {
        "tasks": 3,
        "untelemetered_seconds": min(off),
        "telemetered_seconds": min(on),
        "overhead_pct": statistics.median(ratios) * 100.0,
        "best_pair_overhead_pct": min(ratios) * 100.0,
        "spans_per_batch": spans,
        "samples": repeat,
    }


def bench_matrix(workers: int) -> dict:
    """24-cell validation matrix: serial vs pool vs warm cache."""
    start = time.perf_counter()
    serial = validation_matrix(workers=1, cache=None)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pooled = validation_matrix(workers=workers, cache=None)
    pool_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        validation_matrix(workers=1, cache=cache)
        report = BatchReport()
        start = time.perf_counter()
        cached = validation_matrix(workers=1, cache=cache, report=report)
        cache_seconds = time.perf_counter() - start

    identical = (serial.cells == pooled.cells == cached.cells)
    return {
        "cells": len(serial.cells),
        "serial_seconds": serial_seconds,
        "pool_workers": workers,
        "pool_seconds": pool_seconds,
        "pool_speedup": serial_seconds / pool_seconds,
        "warm_cache_seconds": cache_seconds,
        "warm_cache_speedup": serial_seconds / cache_seconds,
        "warm_cache_simulated_nothing": report.simulated_nothing,
        "results_bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="pool size for the parallel matrix run")
    parser.add_argument("--repeat", type=int, default=5,
                        help="samples per hot-loop benchmark (>= 5 for "
                             "stable medians)")
    parser.add_argument("--output", default="BENCH_runtime.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    print("benchmarking DES hot path ...", flush=True)
    event_rate = bench_event_rate(repeat=args.repeat)
    print(f"  {event_rate['events_per_second']:,.0f} events/s best, "
          f"{event_rate['median_events_per_second']:,.0f} median "
          f"({event_rate['events']} events)")

    print("benchmarking ring-buffer tracing ...", flush=True)
    ring = bench_ring_tracing(repeat=args.repeat)
    print(f"  recording {ring['recording_overhead_pct']:+.1f}% best pair, "
          f"{ring['recording_overhead_median_pct']:+.1f}% median | "
          f"decode {ring['decode_seconds'] * 1000:.0f}ms once "
          f"({ring['interval_sink']})")

    print("benchmarking end-to-end tracing overhead ...", flush=True)
    tracing = bench_tracing_overhead(repeat=args.repeat)
    print(f"  untraced {tracing['untraced_events_per_second']:,.0f} events/s | "
          f"traced {tracing['traced_events_per_second']:,.0f} events/s "
          f"({tracing['overhead_pct']:+.1f}% median pair)")

    print("benchmarking compiled kernel ...", flush=True)
    kernel = bench_compiled_kernel(repeat=args.repeat)
    print(f"  engine {kernel['status']['engine']} "
          f"{kernel['selected_events_per_second']:,.0f} events/s | "
          f"pure {kernel['pure_events_per_second']:,.0f} events/s | "
          f"median speedup {kernel['speedup']:.2f}x")

    print("benchmarking characterization ...", flush=True)
    char = bench_characterize()
    print(f"  cache1 characterization: {char['wall_seconds']:.2f}s")

    print(f"benchmarking 24-cell matrix (workers={args.workers}) ...",
          flush=True)
    matrix = bench_matrix(args.workers)
    print(f"  serial {matrix['serial_seconds']:.2f}s | "
          f"pool {matrix['pool_seconds']:.2f}s "
          f"({matrix['pool_speedup']:.2f}x) | "
          f"warm cache {matrix['warm_cache_seconds']:.3f}s "
          f"({matrix['warm_cache_speedup']:.0f}x)")

    print("benchmarking batch telemetry overhead ...", flush=True)
    batch_telemetry = bench_batch_telemetry(repeat=args.repeat)
    print(f"  off {batch_telemetry['untelemetered_seconds']:.2f}s | "
          f"on {batch_telemetry['telemetered_seconds']:.2f}s "
          f"({batch_telemetry['overhead_pct']:+.1f}% median pair, "
          f"{batch_telemetry['spans_per_batch']} spans)")

    payload = {
        "schema": "bench-runtime-v4",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "event_rate": event_rate,
        "ring_buffer_tracing": ring,
        "tracing_overhead": tracing,
        "compiled_kernel": kernel,
        "characterize_cache1": char,
        "validation_matrix": matrix,
        "batch_telemetry": batch_telemetry,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
