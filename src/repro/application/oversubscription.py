"""Thread-oversubscription study (the Sync-OS trade, measured).

Sec. 2.3.3 / Sec. 3: us-scale services like Cache over-subscribe threads
so a blocked offload doesn't idle its core -- buying throughput at the
price of thread-switch overheads and scheduling delay.  This study
measures that trade on the simulator: throughput and latency as a
function of threads per core for a Sync-OS workload with a given offload
profile and switch cost ``o1``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..core.strategies import Placement, ThreadingDesign
from ..errors import ParameterError
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import (
    AcceleratorDevice,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    SegmentWork,
    SimulationConfig,
    run_simulation,
)


@dataclasses.dataclass(frozen=True)
class OversubscriptionPoint:
    """Measurements at one threads-per-core level."""

    threads_per_core: int
    throughput_per_mcycle: float
    mean_latency_cycles: float
    p99_latency_cycles: float

    @property
    def throughput(self) -> float:
        return self.throughput_per_mcycle


@dataclasses.dataclass(frozen=True)
class OversubscriptionStudyConfig:
    """A Sync-OS workload with one blocking offloaded kernel."""

    plain_cycles: float = 6_000.0
    kernel_granularity: float = 2_000.0
    cycles_per_byte: float = 4.0
    peak_speedup: float = 1.0     # a slow device: long blocking windows
    transfer_cycles: float = 500.0
    thread_switch_cycles: float = 300.0
    num_cores: int = 2
    window_cycles: float = 2.0e7

    @property
    def kernel_cycles(self) -> float:
        return self.cycles_per_byte * self.kernel_granularity


def run_point(
    config: OversubscriptionStudyConfig, threads_per_core: int
) -> OversubscriptionPoint:
    """Measure one oversubscription level."""
    if threads_per_core < 1:
        raise ParameterError("threads_per_core must be >= 1")
    kernel = KernelSpec("k", F.IO, L.SSL,
                        cycles_per_byte=config.cycles_per_byte)

    # The spec is immutable, so every request shares one.
    spec = RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC,
                        plain_cycles=config.plain_cycles,
                        leaf_mix={L.C_LIBRARIES: 1.0}),
            SegmentWork(F.IO, invocations=(
                KernelInvocation(kernel, config.kernel_granularity),
            )),
        )
    )

    def factory() -> RequestSpec:
        return spec

    def build(engine, cpu, metrics):
        device = AcceleratorDevice(
            engine, config.peak_speedup,
            servers=config.num_cores * threads_per_core,
        )
        interface = InterfaceModel(
            Placement.OFF_CHIP, transfer_base_cycles=config.transfer_cycles
        )
        offloads = {
            "k": OffloadConfig(
                device=device, interface=interface,
                design=ThreadingDesign.SYNC_OS,
                thread_switch_cycles=config.thread_switch_cycles,
                driver_awaits_ack=False,
            )
        }
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    result = run_simulation(
        build,
        SimulationConfig(
            num_cores=config.num_cores,
            threads_per_core=threads_per_core,
            window_cycles=config.window_cycles,
        ),
    )
    return OversubscriptionPoint(
        threads_per_core=threads_per_core,
        throughput_per_mcycle=result.throughput * 1e6,
        mean_latency_cycles=result.mean_latency_cycles,
        p99_latency_cycles=result.latency_percentile(99),
    )


def oversubscription_study(
    config: OversubscriptionStudyConfig = OversubscriptionStudyConfig(),
    levels: Sequence[int] = (1, 2, 3, 4, 6),
    workers: int = 1,
    cache=None,
) -> List[OversubscriptionPoint]:
    """Measure throughput/latency across oversubscription levels.

    Expected shape (the paper's motivation for Sync-OS and for Cache's
    spin-lock choice): throughput climbs steeply from 1 to ~2-3 threads
    per core as blocking windows get filled with other threads' work,
    then flattens once cores are saturated -- while latency rises
    monotonically with queueing and switch overheads.

    Levels are independent, so they run through the batch executor
    (*workers* processes, optional result *cache*).
    """
    from ..runtime import RunSpec, execute_batch

    specs = [
        RunSpec.create(
            "oversubscription_point", config=config, threads_per_core=level
        )
        for level in levels
    ]
    return list(execute_batch(specs, workers=workers, cache=cache))


def saturation_level(points: Sequence[OversubscriptionPoint],
                     tolerance: float = 0.02) -> int:
    """Smallest threads-per-core within *tolerance* of peak throughput --
    the operating point a throughput-oriented operator would pick."""
    if not points:
        raise ParameterError("need at least one measured point")
    peak = max(point.throughput for point in points)
    for point in points:
        if point.throughput >= peak * (1.0 - tolerance):
            return point.threads_per_core
    raise AssertionError("unreachable")
