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
from typing import Callable, List, Sequence, Tuple

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
from ..runtime import RunSpec, execute_batch
from ..runtime.batch import BatchReport, CacheArg
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import (
    AcceleratorDevice,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    ResponseHandler,
    SegmentWork,
    SimulationConfig,
    measured_speedup,
    run_simulation,
)

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


def _builds(alpha: float, design, interface_cycles: float,
            thread_switch: float, accel_speedup: float, num_cores: int):
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
            ResponseHandler(cpu, thread_switch)
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD
            else None
        )
        offloads = {
            "k": OffloadConfig(
                device=device, interface=interface, design=design,
                thread_switch_cycles=thread_switch,
                response_handler=handler,
            )
        }
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    return build_baseline, build_accelerated, plain


def validate_cell(
    design: ThreadingDesign,
    alpha: float,
    interface_cycles: float,
    thread_switch_cycles: float,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 8.0e6,
) -> MatrixCell:
    """Run one grid point: simulated A/B vs the analytical equation."""
    threads_per_core = 3 if design is ThreadingDesign.SYNC_OS else 1
    build_baseline, build_accelerated, plain = _builds(
        alpha, design, interface_cycles, thread_switch_cycles,
        accel_speedup, num_cores,
    )
    config = SimulationConfig(
        num_cores=num_cores, threads_per_core=threads_per_core,
        window_cycles=window_cycles,
    )
    baseline = run_simulation(build_baseline, config)
    accelerated = run_simulation(build_accelerated, config)
    simulated = measured_speedup(baseline, accelerated)

    request = plain + KERNEL_CYCLES
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
        simulated_speedup_pct=(simulated - 1.0) * 100.0,
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

    All grid cells are mutually independent, so they run through the
    batch executor: *workers* > 1 validates cells in parallel processes
    and *cache* replays identical cells from disk.  *telemetry* (a
    :class:`~repro.observability.RuntimeTelemetry`) records the batch's
    own runtime span tree without touching specs or results.
    """
    specs: List[RunSpec] = [
        RunSpec.create(
            "matrix_cell",
            design=design,
            alpha=alpha,
            interface_cycles=latency,
            thread_switch_cycles=thread_switch_cycles,
            **cell_kwargs,
        )
        for design in designs
        for alpha in alphas
        for latency in interface_cycles
    ]
    cells = execute_batch(
        specs, workers=workers, cache=cache, report=report,
        telemetry=telemetry,
    )
    return MatrixSummary(cells=tuple(cells))
