"""Systematic sim-vs-model validation across the design space.

The three case studies validate three points; this matrix validates the
*surface*: a grid over threading designs, kernel fractions, and offload
overheads, each cell an A/B simulator experiment compared against the
corresponding Accelerometer equation.  The summary (max/mean error in
percentage points) is the reproduction's quantitative answer to "do the
equations describe the simulated world everywhere, not just at the
published points?".
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple

from ..core import (
    Accelerometer,
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ThreadingDesign,
)
from ..errors import ParameterError
from ..runtime import RunSpec
from ..runtime.batch import BatchReport, CacheArg
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import (
    CPU,
    AcceleratorDevice,
    Engine,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    ResponseHandler,
    RunSummary,
    SegmentWork,
    SimulationConfig,
    run_simulation,
)
from .abtest import ABTestResult, ab_batch

#: The synthetic service of every matrix cell, and of the resilience and
#: shared-device studies that build on validated territory: each request
#: is plain application cycles plus three 400-byte calls of one kernel
#: "k" costing 5 cycles/byte.
KERNEL_CALLS = 3
_GRANULARITY = 400.0
_CB = 5.0
KERNEL_CYCLES = KERNEL_CALLS * _CB * _GRANULARITY


def synthetic_request(
    alpha: float,
) -> Tuple[Callable[[], RequestSpec], float]:
    """A factory of the synthetic request whose kernel calls are
    fraction *alpha* of its cycles, plus the request's plain cycles.

    The spec is immutable, so it is built once and every request shares
    it.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha!r}")
    plain = KERNEL_CYCLES * (1.0 - alpha) / alpha
    kernel = KernelSpec("k", F.IO, L.SSL, cycles_per_byte=_CB)
    spec = RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC, plain_cycles=plain,
                        leaf_mix={L.C_LIBRARIES: 1.0}),
            SegmentWork(F.IO, invocations=(
                (KernelInvocation(kernel, _GRANULARITY),) * KERNEL_CALLS
            )),
        )
    )

    def factory() -> RequestSpec:
        return spec

    return factory, plain


@dataclasses.dataclass(frozen=True)
class MatrixCell:
    """One validated grid point."""

    design: ThreadingDesign
    alpha: float
    interface_cycles: float
    thread_switch_cycles: float
    model_speedup_pct: float
    simulated_speedup_pct: float

    @property
    def error_pp(self) -> float:
        return abs(self.model_speedup_pct - self.simulated_speedup_pct)


@dataclasses.dataclass(frozen=True)
class MatrixSummary:
    cells: Tuple[MatrixCell, ...]

    @property
    def max_error_pp(self) -> float:
        return max(cell.error_pp for cell in self.cells)

    @property
    def mean_error_pp(self) -> float:
        return sum(cell.error_pp for cell in self.cells) / len(self.cells)

    def worst_cell(self) -> MatrixCell:
        return max(self.cells, key=lambda cell: cell.error_pp)


def threads_per_core_of(design: ThreadingDesign) -> int:
    """Sync-OS needs spare threads to switch to; every other design runs
    one thread per core."""
    return 3 if design is ThreadingDesign.SYNC_OS else 1


def run_synthetic(
    alpha: float,
    num_cores: int,
    threads_per_core: int,
    window_cycles: float,
    offload: Optional[Callable[[Engine, CPU], OffloadConfig]] = None,
    tracer=None,
) -> RunSummary:
    """One window of the synthetic service.  *offload* builds kernel
    "k"'s :class:`OffloadConfig` from the run's engine and CPU; without
    it the kernel runs on the host (the A/B baseline)."""
    factory, _ = synthetic_request(alpha)

    def build(engine, cpu, metrics):
        offloads = {"k": offload(engine, cpu)} if offload else None
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    config = SimulationConfig(
        num_cores=num_cores, threads_per_core=threads_per_core,
        window_cycles=window_cycles,
    )
    return run_simulation(build, config, tracer=tracer)


def baseline_spec(
    alpha: float, num_cores: int, threads_per_core: int,
    window_cycles: float,
) -> RunSpec:
    """The ``synthetic_baseline`` spec: the synthetic service without
    offload, the baseline side of every matrix, resilience and
    shared-device A/B cell.  It draws no entropy, so it takes no seed,
    and equal parameters mean one simulation however many cells compare
    against it."""
    return RunSpec.create(
        "synthetic_baseline", alpha=alpha, num_cores=num_cores,
        threads_per_core=threads_per_core, window_cycles=window_cycles,
    )


def run_matrix_accelerated(
    design: ThreadingDesign,
    alpha: float,
    interface_cycles: float,
    thread_switch_cycles: float,
    accel_speedup: float,
    num_cores: int,
    window_cycles: float,
) -> RunSummary:
    """One grid point's offloading side (the ``matrix_accelerated``
    runner)."""

    def offload(engine, cpu):
        return OffloadConfig(
            device=AcceleratorDevice(engine, accel_speedup, servers=num_cores),
            interface=InterfaceModel(
                Placement.OFF_CHIP, dispatch_cycles=30.0,
                transfer_base_cycles=interface_cycles,
            ),
            design=design,
            thread_switch_cycles=thread_switch_cycles,
            response_handler=(
                ResponseHandler(cpu, thread_switch_cycles)
                if design is ThreadingDesign.ASYNC_DISTINCT_THREAD
                else None
            ),
        )

    return run_synthetic(
        alpha, num_cores, threads_per_core_of(design), window_cycles, offload
    )


def cell_specs(
    design: ThreadingDesign,
    alpha: float,
    interface_cycles: float,
    thread_switch_cycles: float,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 8.0e6,
) -> Tuple[RunSpec, RunSpec]:
    """One grid point's ``(baseline, accelerated)`` spec pair."""
    return (
        baseline_spec(
            alpha, num_cores, threads_per_core_of(design), window_cycles
        ),
        RunSpec.create(
            "matrix_accelerated", design=design, alpha=alpha,
            interface_cycles=interface_cycles,
            thread_switch_cycles=thread_switch_cycles,
            accel_speedup=accel_speedup, num_cores=num_cores,
            window_cycles=window_cycles,
        ),
    )


def validate_cell(
    design: ThreadingDesign,
    alpha: float,
    interface_cycles: float,
    thread_switch_cycles: float,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 8.0e6,
    ab: Optional[ABTestResult] = None,
) -> MatrixCell:
    """One grid point: simulated A/B vs the analytical equation.

    *ab* is the point's A/B result when the caller has already run its
    :func:`cell_specs` pair (:func:`validation_matrix` runs every cell's
    pair in one batch); by default the pair runs here.
    """
    if ab is None:
        (ab,) = ab_batch([cell_specs(
            design, alpha, interface_cycles, thread_switch_cycles,
            accel_speedup, num_cores, window_cycles,
        )])
    request = KERNEL_CYCLES * (1.0 - alpha) / alpha + KERNEL_CYCLES
    scenario = OffloadScenario(
        kernel=KernelProfile(request, KERNEL_CYCLES / request, KERNEL_CALLS),
        accelerator=AcceleratorSpec(accel_speedup, Placement.OFF_CHIP),
        costs=OffloadCosts(
            dispatch_cycles=30.0, interface_cycles=interface_cycles,
            thread_switch_cycles=thread_switch_cycles,
        ),
        design=design,
    )
    modelled = Accelerometer().speedup(scenario)
    return MatrixCell(
        design=design,
        alpha=alpha,
        interface_cycles=interface_cycles,
        thread_switch_cycles=thread_switch_cycles,
        model_speedup_pct=(modelled - 1.0) * 100.0,
        simulated_speedup_pct=(ab.speedup - 1.0) * 100.0,
    )


def validation_matrix(
    designs: Sequence[ThreadingDesign] = (
        ThreadingDesign.SYNC,
        ThreadingDesign.SYNC_OS,
        ThreadingDesign.ASYNC,
        ThreadingDesign.ASYNC_DISTINCT_THREAD,
    ),
    alphas: Sequence[float] = (0.1, 0.3, 0.6),
    interface_cycles: Sequence[float] = (0.0, 500.0),
    thread_switch_cycles: float = 300.0,
    workers: int = 1,
    cache: CacheArg = None,
    report: BatchReport = None,
    telemetry=None,
    **cell_kwargs,
) -> MatrixSummary:
    """Validate the full grid; returns the error summary.

    Every cell's baseline and accelerated specs run in one batch through
    the executor, so the cells that share a baseline (same alpha and
    threads per core) share its simulation: *workers* > 1 runs the
    simulations in parallel processes and *cache* replays them from
    disk.  *telemetry* (a :class:`~repro.observability.RuntimeTelemetry`)
    records the batch's own runtime span tree without touching specs or
    results.
    """
    cells = [
        dict(design=design, alpha=alpha, interface_cycles=latency,
             thread_switch_cycles=thread_switch_cycles, **cell_kwargs)
        for design in designs
        for alpha in alphas
        for latency in interface_cycles
    ]
    results = ab_batch(
        [cell_specs(**cell) for cell in cells], workers=workers,
        cache=cache, report=report, telemetry=telemetry,
    )
    return MatrixSummary(cells=tuple(
        validate_cell(**cell, ab=ab) for cell, ab in zip(cells, results)
    ))
