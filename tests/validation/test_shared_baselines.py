"""A/B cells that share a baseline simulation equal per-cell A/B runs.

The validation matrix and the resilience grid run each cell as two
specs (a baseline and an accelerated run) in one batch, so the cells
that share a baseline spec share its simulation.  The oracles below are
the per-cell A/B as it was before the sharing: each cell builds and runs
its own baseline next to its accelerated variant.  Every cell of the
command-line grids must equal its oracle field for field, and the shared
path must give the same cells serially, through a two-worker pool and
from a warm cache, while simulating each distinct baseline once.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.application.resilience import (
    ResilienceCell,
    ResiliencePoint,
    resilience_grid,
)
from repro.core import (
    Accelerometer,
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ThreadingDesign,
)
from repro.core.resilience import degraded_speedup
from repro.faults import FaultInjector, FaultPolicy
from repro.runtime import BatchReport, ResultCache, run_spec
from repro.simulator import (
    AcceleratorDevice,
    InterfaceModel,
    Microservice,
    OffloadConfig,
    ResponseHandler,
    SimulationConfig,
    measured_speedup,
    run_simulation,
)
from repro.validation.matrix import (
    KERNEL_CALLS,
    KERNEL_CYCLES,
    MatrixCell,
    cell_specs,
    synthetic_request,
    validation_matrix,
)

#: The grids `validate-matrix` and `resilience` run by default.
MATRIX_DESIGNS = (
    ThreadingDesign.SYNC,
    ThreadingDesign.SYNC_OS,
    ThreadingDesign.ASYNC,
    ThreadingDesign.ASYNC_DISTINCT_THREAD,
)
MATRIX_ALPHAS = (0.1, 0.3, 0.6)
MATRIX_LATENCIES = (0.0, 500.0)
RESILIENCE_DROPS = (0.05, 0.1, 0.2)
RESILIENCE_TIMEOUTS = (1_000.0, 4_000.0, 8_000.0)


def oracle_matrix_cell(design, alpha, interface_cycles,
                       thread_switch_cycles=300.0, accel_speedup=8.0,
                       num_cores=2, window_cycles=8.0e6) -> MatrixCell:
    """One matrix cell with its own baseline run beside it."""
    factory, plain = synthetic_request(alpha)

    def build_baseline(engine, cpu, metrics):
        return Microservice(engine, cpu, metrics), factory

    def build_accelerated(engine, cpu, metrics):
        device = AcceleratorDevice(engine, accel_speedup, servers=num_cores)
        interface = InterfaceModel(
            Placement.OFF_CHIP, dispatch_cycles=30.0,
            transfer_base_cycles=interface_cycles,
        )
        handler = (
            ResponseHandler(cpu, thread_switch_cycles)
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD
            else None
        )
        offloads = {"k": OffloadConfig(
            device=device, interface=interface, design=design,
            thread_switch_cycles=thread_switch_cycles,
            response_handler=handler,
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    config = SimulationConfig(
        num_cores=num_cores,
        threads_per_core=3 if design is ThreadingDesign.SYNC_OS else 1,
        window_cycles=window_cycles,
    )
    baseline = run_simulation(build_baseline, config)
    accelerated = run_simulation(build_accelerated, config)
    request = plain + KERNEL_CYCLES
    modelled = Accelerometer().speedup(OffloadScenario(
        kernel=KernelProfile(request, KERNEL_CYCLES / request, KERNEL_CALLS),
        accelerator=AcceleratorSpec(accel_speedup, Placement.OFF_CHIP),
        costs=OffloadCosts(
            dispatch_cycles=30.0, interface_cycles=interface_cycles,
            thread_switch_cycles=thread_switch_cycles,
        ),
        design=design,
    ))
    return MatrixCell(
        design=design,
        alpha=alpha,
        interface_cycles=interface_cycles,
        thread_switch_cycles=thread_switch_cycles,
        model_speedup_pct=(modelled - 1.0) * 100.0,
        simulated_speedup_pct=(
            measured_speedup(baseline, accelerated) - 1.0) * 100.0,
    )


def oracle_resilience_point(drop_probability, timeout_cycles, seed,
                            design=ThreadingDesign.SYNC, max_retries=2,
                            alpha=0.3, accel_speedup=8.0, num_cores=2,
                            window_cycles=8.0e6) -> ResiliencePoint:
    """One degraded cell with its own baseline run beside it."""
    policy = FaultPolicy(
        drop_probability=drop_probability, timeout_cycles=timeout_cycles,
        max_retries=max_retries,
    )
    factory, plain = synthetic_request(alpha)

    def build_baseline(engine, cpu, metrics):
        return Microservice(engine, cpu, metrics), factory

    def build_accelerated(engine, cpu, metrics):
        device = AcceleratorDevice(engine, accel_speedup, servers=num_cores)
        interface = InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0)
        offloads = {"k": OffloadConfig(
            device=device, interface=interface, design=design,
            faults=FaultInjector(policy, seed=seed),
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    config = SimulationConfig(
        num_cores=num_cores,
        threads_per_core=3 if design is ThreadingDesign.SYNC_OS else 1,
        window_cycles=window_cycles,
    )
    baseline = run_simulation(build_baseline, config)
    accelerated = run_simulation(build_accelerated, config)
    totals = accelerated.metrics.fault_totals()
    request = plain + KERNEL_CYCLES
    return ResiliencePoint(
        design=design,
        drop_probability=drop_probability,
        timeout_cycles=timeout_cycles,
        max_retries=max_retries,
        model_speedup=degraded_speedup(
            design, policy,
            c=request, alpha=KERNEL_CYCLES / request, n=float(KERNEL_CALLS),
            o0=30.0, l=0.0, q=0.0, a=accel_speedup, o1=0.0,
        ),
        simulated_speedup=measured_speedup(baseline, accelerated),
        retries=totals.retries,
        fallbacks=totals.fallbacks,
        goodput_fraction=accelerated.goodput_fraction,
    )


def _fields(rows):
    return [dataclasses.asdict(row) for row in rows]


class TestMatrix:
    @pytest.fixture(scope="class")
    def serial(self):
        report = BatchReport()
        return validation_matrix(report=report), report

    def test_every_cell_equals_its_per_cell_oracle(self, serial):
        summary, _ = serial
        oracle = [
            oracle_matrix_cell(design, alpha, latency)
            for design in MATRIX_DESIGNS
            for alpha in MATRIX_ALPHAS
            for latency in MATRIX_LATENCIES
        ]
        assert _fields(summary.cells) == _fields(oracle)

    def test_six_baselines_serve_twenty_four_cells(self, serial):
        _, report = serial
        assert dataclasses.asdict(report) == {
            "total": 48, "executed": 6 + 24, "cache_hits": 0,
            "deduplicated": 18, "pool_fallbacks": 0,
        }
        baselines = {
            cell_specs(design, alpha, latency, 300.0)[0].key()
            for design in MATRIX_DESIGNS
            for alpha in MATRIX_ALPHAS
            for latency in MATRIX_LATENCIES
        }
        assert len(baselines) == 6

    def test_serial_equals_pool_equals_warm_cache(self, serial, tmp_path):
        summary, _ = serial
        cache = ResultCache(tmp_path)
        cold, warm = BatchReport(), BatchReport()
        pooled = validation_matrix(workers=2, cache=cache, report=cold)
        replayed = validation_matrix(cache=cache, report=warm)
        assert _fields(pooled.cells) == _fields(summary.cells)
        assert _fields(replayed.cells) == _fields(summary.cells)
        assert (cold.executed, cold.deduplicated) == (30, 18)
        assert len(cache) == 30
        assert (warm.executed, warm.cache_hits, warm.deduplicated) == (
            0, 30, 18)


class TestResilience:
    SEED = 0  # the `resilience` command's default

    @pytest.fixture(scope="class")
    def serial(self):
        report = BatchReport()
        return resilience_grid(seed=self.SEED, report=report), report

    def test_every_point_equals_its_per_cell_oracle(self, serial):
        grid, _ = serial
        oracle = [
            oracle_resilience_point(p, timeout, self.SEED)
            for p in RESILIENCE_DROPS
            for timeout in RESILIENCE_TIMEOUTS
        ]
        assert _fields(grid.points) == _fields(oracle)

    def test_one_baseline_serves_nine_points(self, serial):
        _, report = serial
        assert dataclasses.asdict(report) == {
            "total": 18, "executed": 1 + 9, "cache_hits": 0,
            "deduplicated": 8, "pool_fallbacks": 0,
        }

    def test_serial_equals_pool_equals_warm_cache(self, serial, tmp_path):
        grid, _ = serial
        cache = ResultCache(tmp_path)
        warm = BatchReport()
        pooled = resilience_grid(seed=self.SEED, workers=2, cache=cache)
        replayed = resilience_grid(seed=self.SEED, cache=cache, report=warm)
        assert _fields(pooled.points) == _fields(grid.points)
        assert _fields(replayed.points) == _fields(grid.points)
        assert (warm.executed, warm.cache_hits, warm.deduplicated) == (
            0, 10, 8)


@pytest.mark.parametrize("specs", [
    cell_specs(ThreadingDesign.SYNC_OS, 0.1, 500.0, 300.0, window_cycles=2e6),
    ResilienceCell(0.2, 2_000.0, window_cycles=2e6).specs(),
], ids=["matrix", "resilience"])
def test_cached_values_stay_a_few_hundred_bytes(specs):
    """A spec's cached value is what a warm replay unpickles: each side
    of an A/B cell stores its counts, never its RunSummary."""
    for spec in specs:
        value = run_spec(spec)
        assert len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)) < 400
