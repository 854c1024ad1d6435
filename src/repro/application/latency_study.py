"""Latency-under-load studies on the simulator.

The analytical model treats ``Q`` as a scalar input; the simulator can
*produce* it.  This study drives a service open-loop (Poisson arrivals)
at increasing offered load against a shared accelerator and reports mean
and tail latency plus the measured per-offload queue delay -- showing
where the paper's Q = 0 assumption stops holding and what that does to
the latency SLO.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from ..core.strategies import Placement, ThreadingDesign
from ..errors import ParameterError
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import (
    CPU,
    AcceleratorDevice,
    Engine,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    MetricSink,
    Microservice,
    OffloadConfig,
    OpenLoopDriver,
    RequestSpec,
    SegmentWork,
)


@dataclasses.dataclass(frozen=True)
class LoadPoint:
    """Measurements at one offered load."""

    offered_rate: float
    completed: int
    mean_latency_cycles: float
    p99_latency_cycles: float
    mean_queue_cycles: float
    device_utilization: float


@dataclasses.dataclass(frozen=True)
class LatencyStudyConfig:
    """A small service with one synchronous offloaded kernel."""

    plain_cycles: float = 20_000.0
    kernel_granularity: float = 10_000.0
    cycles_per_byte: float = 4.0
    peak_speedup: float = 2.0
    dispatch_cycles: float = 50.0
    transfer_cycles: float = 200.0
    num_cores: int = 4
    device_servers: int = 1
    window_cycles: float = 2.0e7
    seed: int = 33

    @property
    def request_cycles(self) -> float:
        return self.plain_cycles + self.cycles_per_byte * self.kernel_granularity

    @property
    def device_service_cycles(self) -> float:
        return (
            self.cycles_per_byte * self.kernel_granularity / self.peak_speedup
        )

    def bottleneck_capacity(self, unit_cycles: float = 1.0e9) -> float:
        """Sustainable request rate per time unit: the stricter of the
        shared device and the host cores (a Sync request holds its core
        through the whole offload path)."""
        device = self.device_servers * unit_cycles / self.device_service_cycles
        per_request_core_time = (
            self.plain_cycles
            + self.dispatch_cycles
            + self.transfer_cycles
            + self.device_service_cycles
        )
        host = self.num_cores * unit_cycles / per_request_core_time
        return min(device, host)


def run_load_point(
    config: LatencyStudyConfig, offered_rate_per_unit: float,
    unit_cycles: float = 1.0e9,
) -> LoadPoint:
    """Run one open-loop experiment at the given arrival rate."""
    if offered_rate_per_unit <= 0:
        raise ParameterError("offered rate must be positive")
    engine = Engine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, config.num_cores)
    device = AcceleratorDevice(
        engine, config.peak_speedup, servers=config.device_servers
    )
    interface = InterfaceModel(
        Placement.OFF_CHIP,
        dispatch_cycles=config.dispatch_cycles,
        transfer_base_cycles=config.transfer_cycles,
    )
    kernel = KernelSpec(
        "k", F.IO, L.SSL, cycles_per_byte=config.cycles_per_byte
    )
    offloads = {
        "k": OffloadConfig(
            device=device, interface=interface, design=ThreadingDesign.SYNC
        )
    }
    service = Microservice(engine, cpu, metrics, offloads=offloads)

    # The spec is immutable, so every request shares one.
    spec = RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC, plain_cycles=config.plain_cycles,
                        leaf_mix={L.C_LIBRARIES: 1.0}),
            SegmentWork(F.IO, invocations=(
                KernelInvocation(kernel, config.kernel_granularity),
            )),
        )
    )

    def factory() -> RequestSpec:
        return spec

    driver = OpenLoopDriver(
        engine, service, factory, arrivals_per_unit=offered_rate_per_unit,
        rng=np.random.default_rng(config.seed), unit_cycles=unit_cycles,
    )
    driver.start()
    engine.run_until(config.window_cycles)
    driver.stop()
    cpu.finalize(config.window_cycles)
    completed = metrics.completed_requests()
    if not completed:
        raise ParameterError(
            f"no requests completed at rate {offered_rate_per_unit}"
        )
    return LoadPoint(
        offered_rate=offered_rate_per_unit,
        completed=len(completed),
        mean_latency_cycles=metrics.mean_latency(),
        p99_latency_cycles=metrics.latency_percentile(99),
        mean_queue_cycles=metrics.mean_queue_cycles(),
        device_utilization=device.utilization(config.window_cycles),
    )


def latency_vs_load(
    config: LatencyStudyConfig = LatencyStudyConfig(),
    utilization_targets: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.85),
) -> List[LoadPoint]:
    """Sweep offered load as a fraction of the shared device's capacity.

    The device saturates at ``servers * unit / service_cycles`` offloads
    per unit; each target drives the system at that fraction of device
    capacity (one offload per request).
    """
    capacity = config.bottleneck_capacity()
    points = []
    for target in utilization_targets:
        if not 0.0 < target < 1.0:
            raise ParameterError("utilization targets must be in (0, 1)")
        points.append(run_load_point(config, target * capacity))
    return points
