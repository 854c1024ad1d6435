"""Shared-device contention study: multi-tenant devices, QoS, batching.

The paper's Table-6 case studies give each service a private accelerator.
At hyperscale the tax kernels are served by *shared* devices (SmartNIC /
DPU offload of the data-center tax), so the operative questions become:

* How much of a private-device speedup survives when several services
  contend for one device?  (:func:`contention_case_study`)
* Do the weighted fair-queueing and doorbell-batching closed forms in
  :mod:`repro.core.queueing` / :mod:`repro.core.resilience` describe the
  simulated shared world to the repository's ≤2% contract?
  (:func:`run_shared_device_point` / :func:`shared_device_grid`)
* How do per-tenant waits move when tenants join or weights change?
  (:func:`shared_wait_profile` -- the instrument behind the metamorphic
  monotonicity suite.)

The synthetic service is the validation matrix's (3 kernel calls of 400
bytes at 5 cycles/byte per request), so single-tenant, unbatched,
fault-free cells land on validated territory.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..core.resilience import degraded_batched_async_speedup
from ..core.strategies import Placement, ThreadingDesign
from ..errors import ParameterError
from ..faults import FaultInjector, FaultPolicy
from ..runtime import RunSpec, execute_batch
from ..runtime.batch import BatchReport, CacheArg
from ..simulator import (
    CPU,
    AcceleratorDevice,
    DeviceConfig,
    Engine,
    InterfaceModel,
    MetricSink,
    Microservice,
    OffloadConfig,
    SimulationConfig,
    request_stream,
    run_simulation,
)
from ..validation.matrix import KERNEL_CALLS, KERNEL_CYCLES, synthetic_request

_DISPATCH_CYCLES = 30.0


def _tenant_weights(tenants: int, weights: Sequence[float]) -> List[float]:
    if tenants < 1:
        raise ParameterError("tenants must be >= 1")
    resolved = list(weights) if weights else [1.0] * tenants
    if len(resolved) != tenants:
        raise ParameterError("weights must have one entry per tenant")
    return resolved


@dataclasses.dataclass(frozen=True)
class TenantRun:
    """One tenant's measurements from a shared-device window."""

    tenant: str
    weight: float
    completed_requests: int
    throughput: float
    offloads_served: int
    busy_cycles: float
    mean_queue_cycles: float
    attempts: int
    drops: int
    fallbacks: int


@dataclasses.dataclass(frozen=True)
class SharedDeviceRun:
    """All tenants' measurements plus device-level aggregates."""

    tenants: Tuple[TenantRun, ...]
    device_offloads_served: int
    device_busy_cycles: float
    device_utilization: float
    window_cycles: float


def _run_shared(
    tenants: int,
    weights: Sequence[float],
    batch_size: int,
    policy: Optional[FaultPolicy],
    seed: int,
    alpha: float,
    accel_speedup: float,
    num_cores: int,
    servers: int,
    window_cycles: float,
    quantum_cycles: float = 1_000.0,
    pipelined: bool = False,
    max_events: int = 20_000_000,
) -> SharedDeviceRun:
    """One measurement window with *tenants* services sharing one device.

    Every tenant runs the same synthetic workload on its own CPU and
    metric sink (they model independent hosts), attached to one shared
    :class:`~repro.simulator.AcceleratorDevice` through per-tenant ports.
    ``always_shared`` forces the fair-queueing scheduler even at
    ``tenants = 1`` so every cell of a sweep runs the same discipline.
    Per-tenant fault injectors are seeded ``seed + index`` so tenant
    streams are independent but reproducible.
    """
    tenant_weights = _tenant_weights(tenants, weights)
    factory, _ = synthetic_request(alpha)
    engine = Engine()
    device = AcceleratorDevice(
        engine, accel_speedup, servers=servers,
        config=DeviceConfig(
            quantum_cycles=quantum_cycles,
            pipelined=pipelined,
            always_shared=True,
        ),
    )
    sinks: List[MetricSink] = []
    cpus: List[CPU] = []
    ports = []
    for index in range(tenants):
        metrics = MetricSink()
        cpu = CPU(engine, metrics, num_cores)
        port = device.attach(f"tenant-{index}", weight=tenant_weights[index])
        faults = None
        if policy is not None:
            faults = FaultInjector(policy, seed=seed + index)
        offloads = {"k": OffloadConfig(
            device=port,
            interface=InterfaceModel(
                Placement.OFF_CHIP, dispatch_cycles=_DISPATCH_CYCLES
            ),
            design=ThreadingDesign.ASYNC,
            batch_size=batch_size,
            faults=faults,
        )}
        service = Microservice(
            engine, cpu, metrics, name=f"tenant-{index}", offloads=offloads
        )
        for worker in range(num_cores):
            service.spawn_worker(
                request_stream(factory), name=f"tenant-{index}-worker-{worker}"
            )
        sinks.append(metrics)
        cpus.append(cpu)
        ports.append(port)
    engine.run_until(window_cycles, max_events=max_events)
    for cpu in cpus:
        cpu.finalize(window_cycles)
    runs = []
    for index in range(tenants):
        metrics = sinks[index]
        port = ports[index]
        totals = metrics.fault_totals()
        completed = len(metrics.completed_requests())
        runs.append(TenantRun(
            tenant=port.tenant,
            weight=tenant_weights[index],
            completed_requests=completed,
            throughput=completed / window_cycles,
            offloads_served=port.stats.offloads_served,
            busy_cycles=port.stats.busy_cycles,
            mean_queue_cycles=port.stats.mean_queue_cycles(),
            attempts=totals.attempts,
            drops=totals.drops,
            fallbacks=totals.fallbacks,
        ))
    return SharedDeviceRun(
        tenants=tuple(runs),
        device_offloads_served=device.stats.offloads_served,
        device_busy_cycles=device.stats.busy_cycles,
        device_utilization=device.utilization(window_cycles),
        window_cycles=window_cycles,
    )


# ---------------------------------------------------------------------------
# Sim-vs-model grid cells
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SharedDevicePoint:
    """One (tenants, weight, batch, drop-rate) cell: simulated vs model."""

    tenants: int
    weight: float
    batch_size: int
    drop_probability: float
    model_speedup: float
    simulated_speedup: float
    attempts: int
    drops: int
    device_utilization: float

    @property
    def error_pct(self) -> float:
        """Relative model-vs-simulation error of the speedup factor."""
        return abs(self.model_speedup - self.simulated_speedup) / self.model_speedup * 100.0

    @property
    def model_speedup_pct(self) -> float:
        return (self.model_speedup - 1.0) * 100.0

    @property
    def simulated_speedup_pct(self) -> float:
        return (self.simulated_speedup - 1.0) * 100.0


def run_shared_device_point(
    tenants: int = 2,
    weight: float = 1.0,
    batch_size: int = 1,
    drop_probability: float = 0.0,
    timeout_cycles: float = 4_000.0,
    max_retries: int = 2,
    alpha: float = 0.3,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 1.6e7,
    seed: int = 0,
) -> SharedDevicePoint:
    """A/B-simulate one shared-device cell and compare to the closed form.

    *weight* is tenant 0's fair-queueing weight (the rest stay at 1.0);
    the compared speedup is tenant 0's.  The device is provisioned with
    one engine per tenant core, so queueing is negligible by construction
    (``Q = 0`` on the model side) and the cell isolates the batching and
    doorbell-fault algebra of
    :func:`~repro.core.resilience.degraded_batched_async_speedup`.
    """
    policy = None
    if drop_probability > 0.0:
        policy = FaultPolicy(
            drop_probability=drop_probability,
            timeout_cycles=timeout_cycles,
            max_retries=max_retries,
        )
    weights = [weight] + [1.0] * (tenants - 1)
    baseline = run_simulation(
        lambda engine, cpu, metrics: (
            Microservice(engine, cpu, metrics),
            synthetic_request(alpha)[0],
        ),
        SimulationConfig(num_cores=num_cores, window_cycles=window_cycles),
    )
    shared = _run_shared(
        tenants=tenants,
        weights=weights,
        batch_size=batch_size,
        policy=policy,
        seed=seed,
        alpha=alpha,
        accel_speedup=accel_speedup,
        num_cores=num_cores,
        servers=tenants * num_cores,
        window_cycles=window_cycles,
    )
    tenant0 = shared.tenants[0]
    request = KERNEL_CYCLES * (1.0 - alpha) / alpha + KERNEL_CYCLES
    model = degraded_batched_async_speedup(
        c=request, alpha=KERNEL_CYCLES / request, n=float(KERNEL_CALLS),
        o0=_DISPATCH_CYCLES, l=0.0, q=0.0,
        policy=policy or FaultPolicy(),
        batch_size=batch_size,
    )
    return SharedDevicePoint(
        tenants=tenants,
        weight=weight,
        batch_size=batch_size,
        drop_probability=drop_probability,
        model_speedup=model,
        simulated_speedup=tenant0.throughput / baseline.throughput,
        attempts=tenant0.attempts,
        drops=tenant0.drops,
        device_utilization=shared.device_utilization,
    )


@dataclasses.dataclass(frozen=True)
class SharedDeviceGrid:
    """All cells of a tenants x weights x batch x drop-rate sweep."""

    points: Tuple[SharedDevicePoint, ...]

    @property
    def max_error_pct(self) -> float:
        return max(point.error_pct for point in self.points)

    @property
    def mean_error_pct(self) -> float:
        return sum(point.error_pct for point in self.points) / len(self.points)

    def worst_point(self) -> SharedDevicePoint:
        return max(self.points, key=lambda point: point.error_pct)


def shared_device_grid(
    tenant_counts: Sequence[int] = (1, 2, 3),
    weights: Sequence[float] = (1.0, 2.0),
    batch_sizes: Sequence[int] = (1, 4),
    drop_probabilities: Sequence[float] = (0.0, 0.1),
    seed: int = 0,
    workers: int = 1,
    cache: CacheArg = None,
    report: BatchReport = None,
    **point_kwargs,
) -> SharedDeviceGrid:
    """Sweep the shared-device grid through the batch executor.

    Cells are independent ``shared_device_point`` run specs, so they run
    in parallel workers and replay from the result cache like every other
    study in the repository.
    """
    if not tenant_counts or not weights or not batch_sizes or not drop_probabilities:
        raise ParameterError("shared-device grid axes must be non-empty")
    specs: List[RunSpec] = [
        RunSpec.create(
            "shared_device_point",
            seed=seed,
            tenants=tenants,
            weight=weight,
            batch_size=batch,
            drop_probability=p,
            **point_kwargs,
        )
        for tenants in tenant_counts
        for weight in weights
        for batch in batch_sizes
        for p in drop_probabilities
    ]
    points = execute_batch(specs, workers=workers, cache=cache, report=report)
    return SharedDeviceGrid(points=tuple(points))


# ---------------------------------------------------------------------------
# Wait-profile instrument (metamorphic monotonicity evidence)
# ---------------------------------------------------------------------------


def shared_wait_profile(
    tenants: int = 2,
    weights: Sequence[float] = (),
    batch_size: int = 1,
    alpha: float = 0.3,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    servers: int = 1,
    window_cycles: float = 8.0e6,
    quantum_cycles: float = 1_000.0,
    seed: int = 0,
) -> SharedDeviceRun:
    """Run a *contended* shared window (one engine by default) and return
    the per-tenant wait/throughput profile.

    This is the measurement behind the metamorphic suite: adding a tenant
    must not decrease another tenant's mean wait, raising a tenant's
    weight must not hurt that tenant, and the per-tenant busy cycles must
    sum exactly to the device's.
    """
    return _run_shared(
        tenants=tenants,
        weights=weights,
        batch_size=batch_size,
        policy=None,
        seed=seed,
        alpha=alpha,
        accel_speedup=accel_speedup,
        num_cores=num_cores,
        servers=servers,
        window_cycles=window_cycles,
        quantum_cycles=quantum_cycles,
    )


# ---------------------------------------------------------------------------
# Contention case study (Table-6 erosion under sharing)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ContentionRow:
    """Speedup erosion at one tenant count on a fixed-capacity device."""

    tenants: int
    private_speedup: float
    shared_speedup: float
    device_utilization: float
    mean_queue_cycles: float

    @property
    def erosion_pct(self) -> float:
        """Fraction of the private speedup *gain* lost to sharing."""
        private_gain = self.private_speedup - 1.0
        if private_gain <= 0:
            return 0.0
        return (self.private_speedup - self.shared_speedup) / private_gain * 100.0


def contention_case_study(
    tenant_counts: Sequence[int] = (1, 2, 4, 8),
    alpha: float = 0.3,
    accel_speedup: float = 4.0,
    num_cores: int = 2,
    servers: int = 1,
    window_cycles: float = 8.0e6,
    seed: int = 0,
) -> Tuple[ContentionRow, ...]:
    """How a private-device speedup erodes as tenants share the device.

    The device keeps *servers* engines while the tenant count grows, so
    per-tenant capacity shrinks and queueing climbs -- the shared-tax
    version of the paper's Table-6 question.  The default
    ``accel_speedup = 4`` sizes the single engine so the default tenant
    ladder crosses saturation (async offload hides device lag until the
    queue grows without bound, so an oversized engine would show no
    erosion at any tenant count).  Row 1 (a single tenant on
    the fair-queueing scheduler) measures the scheduling discipline's own
    cost: private and shared speedups coincide when the device is
    underutilized.  Rows are deterministic given *seed*, so the emitted
    artifact diffs byte-identical across runs and Python versions.
    """
    baseline = run_simulation(
        lambda engine, cpu, metrics: (
            Microservice(engine, cpu, metrics),
            synthetic_request(alpha)[0],
        ),
        SimulationConfig(num_cores=num_cores, window_cycles=window_cycles),
    )
    private = _run_shared(
        tenants=1, weights=(), batch_size=1, policy=None, seed=seed,
        alpha=alpha, accel_speedup=accel_speedup, num_cores=num_cores,
        servers=servers, window_cycles=window_cycles,
    )
    private_speedup = private.tenants[0].throughput / baseline.throughput
    rows = []
    for tenants in tenant_counts:
        shared = _run_shared(
            tenants=tenants, weights=(), batch_size=1, policy=None,
            seed=seed, alpha=alpha, accel_speedup=accel_speedup,
            num_cores=num_cores, servers=servers,
            window_cycles=window_cycles,
        )
        slowest = min(run.throughput for run in shared.tenants)
        waits = max(run.mean_queue_cycles for run in shared.tenants)
        rows.append(ContentionRow(
            tenants=tenants,
            private_speedup=private_speedup,
            shared_speedup=slowest / baseline.throughput,
            device_utilization=shared.device_utilization,
            mean_queue_cycles=waits,
        ))
    return tuple(rows)


def contention_report(rows: Sequence[ContentionRow]) -> dict:
    """JSON-ready report of a contention case study (the CI artifact)."""
    return {
        "study": "shared-device-contention",
        "rows": [
            {
                "tenants": row.tenants,
                "private_speedup": row.private_speedup,
                "shared_speedup": row.shared_speedup,
                "erosion_pct": row.erosion_pct,
                "device_utilization": row.device_utilization,
                "mean_queue_cycles": row.mean_queue_cycles,
            }
            for row in rows
        ],
    }
