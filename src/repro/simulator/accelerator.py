"""Accelerator device model for the simulator.

A device has one or more service engines behind a FIFO queue.  Work that
would take ``h`` host cycles executes in ``h / A`` accelerator cycles
(clocks are expressed in host-cycle units for comparability).  The queue
delay each offload experiences is measured and reported -- this is the
simulator's ground truth for the model parameter ``Q``.

Two scheduling regimes share one device class:

* **Private (legacy) mode** -- the device serves a single service.
  ``submit`` claims the earliest-free engine eagerly at submit time and
  returns the completion time immediately.  This is the exact machine
  every pre-shared-device study ran on, and it stays byte-for-byte on
  that code path: a device with zero or one attached tenant routes every
  port submission straight through :meth:`submit`, so single-tenant
  artifacts (fingerprints, traces, error strings) are bit-identical to
  the private-device era by construction.
* **Shared multi-tenant mode** -- several services attach via
  :meth:`attach`, each receiving a :class:`TenantPort` (duck-compatible
  with the device itself, so :class:`~repro.simulator.service.OffloadConfig`
  accepts either).  With two or more tenants (or
  ``DeviceConfig.always_shared``) dispatch turns event-driven: arrivals
  queue per tenant and a deficit-round-robin scheduler picks which
  tenant's head-of-line offload each freed engine serves next, giving
  weighted fair shares of device throughput (the SmartNIC/DPU shared-tax
  model).  Optionally (``DeviceConfig.pipelined``) a DMA stage overlaps
  one offload's transfer with another's compute.

Deficit round robin keeps the repo's determinism contract trivially:
tenant order is attach order, the quantum is deterministic, and no
entropy is consumed anywhere on the device.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque
from typing import TYPE_CHECKING, Callable, List, Optional

from ..core.strategies import Placement
from ..errors import ParameterError
from .engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.degradation import DegradationSchedule


@dataclasses.dataclass(frozen=True, slots=True)
class DeviceConfig:
    """Sharing/QoS knobs for one accelerator device.

    The defaults describe the legacy private device exactly: a freshly
    constructed device with no config behaves bit-identically to the
    pre-shared-device implementation.
    """

    #: Deficit-round-robin quantum in accelerator service cycles credited
    #: to a weight-1.0 tenant per scheduling round.  Smaller quanta
    #: interleave tenants more finely; the value never changes total
    #: work, only its order.
    quantum_cycles: float = 1_000.0

    #: Overlap the device-side DMA stage with engine compute: an
    #: offload's transfer (when the caller routes it through the port's
    #: ``transfer_cycles`` argument) occupies a dedicated transfer stage
    #: and the *next* transfer proceeds while engines compute.
    pipelined: bool = False

    #: Force the event-driven fair-queueing scheduler even with a single
    #: attached tenant.  Metamorphic sweeps use this so the tenants=1
    #: cell of a monotonicity grid runs the same discipline as the rest;
    #: production-style runs leave it off and get the legacy eager path
    #: (and its bit-identical artifacts) for free.
    always_shared: bool = False

    def __post_init__(self) -> None:
        if self.quantum_cycles <= 0:
            raise ParameterError("quantum_cycles must be > 0")


@dataclasses.dataclass(slots=True)
class AcceleratorStats:
    """Aggregate device statistics."""

    offloads_served: int = 0
    busy_cycles: float = 0.0
    total_queue_cycles: float = 0.0

    #: Offloads served while a degradation window was active, and the
    #: extra service cycles the degradation cost them.
    degraded_offloads: int = 0
    degraded_extra_cycles: float = 0.0

    def mean_queue_cycles(self) -> float:
        if self.offloads_served == 0:
            return 0.0
        return self.total_queue_cycles / self.offloads_served


@dataclasses.dataclass(slots=True)
class TenantStats:
    """Per-tenant share of a shared device's work.

    Only the shared (fair-queueing) scheduler fills these in; a
    single-tenant port rides the legacy eager path where the device-level
    :class:`AcceleratorStats` is the sole ledger.  Conservation is a
    pinned test contract: summed tenant ``busy_cycles`` equal the
    device's ``busy_cycles`` exactly.
    """

    offloads_served: int = 0
    busy_cycles: float = 0.0
    total_queue_cycles: float = 0.0

    def mean_queue_cycles(self) -> float:
        if self.offloads_served == 0:
            return 0.0
        return self.total_queue_cycles / self.offloads_served


class _TenantQueue:
    """Deficit-round-robin state for one attached tenant."""

    __slots__ = ("name", "weight", "quantum_cycles", "deficit_cycles",
                 "charged", "jobs", "stats")

    def __init__(self, name: str, weight: float, quantum_cycles: float) -> None:
        self.name = name
        self.weight = weight
        #: This tenant's per-round deficit credit (weight-scaled).
        self.quantum_cycles = quantum_cycles * weight
        self.deficit_cycles = 0.0
        #: Whether the tenant already received its quantum for the
        #: current scheduler visit (cleared when the round moves on).
        self.charged = False
        #: Pending jobs, FIFO per tenant: tuples of
        #: ``(service_cycles, arrival_time, on_accept, on_complete)``.
        self.jobs = deque()
        self.stats = TenantStats()


class TenantPort:
    """One tenant's handle onto a shared :class:`AcceleratorDevice`.

    Duck-compatible with the device itself (``service_cycles`` /
    ``submit``), so offload configs and the service runtime need not know
    whether they talk to a private device or a shared one.
    """

    __slots__ = ("_device", "_queue", "tenant", "weight")

    def __init__(self, device: "AcceleratorDevice", queue: _TenantQueue) -> None:
        self._device = device
        self._queue = queue
        self.tenant = queue.name
        self.weight = queue.weight

    @property
    def stats(self) -> TenantStats:
        return self._queue.stats

    @property
    def tenant_label(self) -> str:
        """Tenant name for span attribution.

        Empty on the legacy single-tenant path so that tenants=1 traces
        stay bit-identical to private-device traces.
        """
        if self._device._shared_mode():
            return self.tenant
        return ""

    @property
    def device(self) -> "AcceleratorDevice":
        return self._device

    def service_cycles(self, host_kernel_cycles: float) -> float:
        return self._device.service_cycles(host_kernel_cycles)

    def submit(
        self,
        host_kernel_cycles: float,
        arrival_time: float,
        on_accept: Optional[Callable[[float], None]] = None,
        on_complete: Optional[Callable[[float], None]] = None,
        transfer_cycles: float = 0.0,
    ) -> float:
        """Enqueue one offload for this tenant.

        In shared mode the completion time is a scheduling decision that
        has not happened yet, so the return value is ``nan`` and the
        callbacks are the contract; in single-tenant (legacy) mode this
        is exactly :meth:`AcceleratorDevice.submit`, return value
        included.
        """
        return self._device._submit_tenant(
            self._queue, host_kernel_cycles, arrival_time,
            on_accept, on_complete, transfer_cycles,
        )


#: ``submit`` return value in shared mode: completion is decided later.
_UNSCHEDULED = float("nan")


class AcceleratorDevice:
    """A FIFO-queued accelerator with *servers* parallel engines.

    Callbacks:

    * ``on_accept(queue_cycles)`` fires when an offload leaves the queue
      and begins service -- the moment an off-chip device acknowledges
      receipt (the Sync-OS driver-ack semantics).
    * ``on_complete()`` fires when service finishes.
    """

    __slots__ = ("_engine", "peak_speedup", "placement", "name", "_free_at",
                 "stats", "degradation", "config", "_tenants", "_rr_index",
                 "_dma_free_at")

    def __init__(
        self,
        engine: Engine,
        peak_speedup: float,
        placement: Placement = Placement.OFF_CHIP,
        servers: int = 1,
        name: Optional[str] = None,
        degradation: Optional["DegradationSchedule"] = None,
        config: Optional[DeviceConfig] = None,
    ) -> None:
        if peak_speedup <= 0:
            raise ParameterError("peak_speedup must be > 0")
        if servers < 1:
            raise ParameterError("servers must be >= 1")
        self._engine = engine
        self.peak_speedup = peak_speedup
        self.placement = placement
        self.name = name or f"accelerator-{placement.value}"
        #: Next-free time per engine, in host cycles.
        self._free_at: List[float] = [0.0] * servers
        self.stats = AcceleratorStats()
        #: Optional deterministic degradation timeline: finite-multiplier
        #: windows slow service down; outage windows are enforced by the
        #: fault injector as guaranteed drops before work reaches here.
        self.degradation = degradation
        self.config = config or DeviceConfig()
        #: Attached tenants in attach order (the DRR scan order).
        self._tenants: List[_TenantQueue] = []
        self._rr_index = 0
        #: Next-free time of the pipelined DMA stage.
        self._dma_free_at = 0.0

    # -- tenancy -----------------------------------------------------------

    def attach(self, tenant: str, weight: float = 1.0) -> TenantPort:
        """Attach one tenant; returns its :class:`TenantPort`.

        *weight* scales the tenant's deficit-round-robin quantum: a
        weight-2 tenant is credited twice the service cycles per round of
        a weight-1 tenant, receiving (under backlog) twice the share of
        device throughput.
        """
        if weight <= 0:
            raise ParameterError("tenant weight must be > 0")
        for queue in self._tenants:
            if queue.name == tenant:
                raise ParameterError(f"tenant {tenant!r} already attached")
        queue = _TenantQueue(tenant, weight, self.config.quantum_cycles)
        self._tenants.append(queue)
        return TenantPort(self, queue)

    @property
    def tenants(self) -> tuple:
        """Attached tenant names, in attach (scan) order."""
        return tuple(queue.name for queue in self._tenants)

    def tenant_stats(self, tenant: str) -> TenantStats:
        for queue in self._tenants:
            if queue.name == tenant:
                return queue.stats
        raise ParameterError(f"unknown tenant {tenant!r}")

    def _shared_mode(self) -> bool:
        return self.config.always_shared or len(self._tenants) >= 2

    # -- service model -----------------------------------------------------

    def service_cycles(self, host_kernel_cycles: float) -> float:
        """Accelerator time for work costing *host_kernel_cycles* on host."""
        if host_kernel_cycles < 0:
            raise ParameterError("host_kernel_cycles must be >= 0")
        return host_kernel_cycles / self.peak_speedup

    # -- legacy eager path (private device / single tenant) ----------------

    def submit(
        self,
        host_kernel_cycles: float,
        arrival_time: float,
        on_accept: Optional[Callable[[float], None]] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Enqueue an offload arriving at *arrival_time*.

        Returns the completion time.  ``on_accept`` receives the measured
        queue delay; ``on_complete`` receives the completion time.
        """
        if arrival_time < 0:
            raise ParameterError("arrival_time must be >= 0")
        service = self.service_cycles(host_kernel_cycles)
        # Pick the engine that frees up first (M/M/k-style dispatch); on
        # a tie, the lowest index.
        free_at = self._free_at
        earliest = min(free_at)
        engine_index = free_at.index(earliest)
        start = max(arrival_time, earliest)
        queue_cycles = start - arrival_time
        if self.degradation is not None:
            multiplier = self.degradation.multiplier_at(start)
            if multiplier != 1.0:
                degraded_service = service * multiplier
                self.stats.degraded_offloads += 1
                self.stats.degraded_extra_cycles += degraded_service - service
                service = degraded_service
        completion = start + service
        free_at[engine_index] = completion

        self.stats.offloads_served += 1
        self.stats.busy_cycles += service
        self.stats.total_queue_cycles += queue_cycles

        # Partials, not lambdas: a partial of a partial flattens, so an
        # accept that only stores a field runs no Python frame.
        if on_accept is not None:
            self._engine.at(start, functools.partial(on_accept, queue_cycles))
        if on_complete is not None:
            self._engine.at(
                completion, functools.partial(on_complete, completion)
            )
        return completion

    # -- shared fair-queueing path -----------------------------------------

    def _submit_tenant(
        self,
        queue: _TenantQueue,
        host_kernel_cycles: float,
        arrival_time: float,
        on_accept: Optional[Callable[[float], None]],
        on_complete: Optional[Callable[[float], None]],
        transfer_cycles: float,
    ) -> float:
        """Port-side submit: legacy passthrough or shared enqueue."""
        if not self._shared_mode():
            # Single tenant: the legacy eager machine, verbatim -- this
            # is the bit-identity guarantee the differential suite pins.
            return self.submit(
                host_kernel_cycles, arrival_time, on_accept, on_complete
            )
        if arrival_time < 0:
            raise ParameterError("arrival_time must be >= 0")
        if self.config.pipelined and transfer_cycles > 0:
            # The DMA stage serializes transfers but overlaps compute:
            # the offload reaches the engines once its transfer drains.
            transfer_start = max(arrival_time, self._dma_free_at)
            arrival_time = transfer_start + transfer_cycles
            self._dma_free_at = arrival_time
        service = self.service_cycles(host_kernel_cycles)
        queue.jobs.append((service, arrival_time, on_accept, on_complete))
        self._engine.at(arrival_time, self._dispatch)
        return _UNSCHEDULED

    def _select_tenant(self, now: float) -> Optional[_TenantQueue]:
        """Deficit-round-robin pick among tenants with an arrived job.

        Visits tenants in attach order from the round pointer.  A tenant
        is credited its quantum once per visit (``charged``); while its
        deficit covers the head-of-line job it keeps being selected
        (classic DRR burst), then the round moves on and the next tenant
        is charged.  Empty (or not-yet-arrived) queues forfeit their
        deficit, the standard DRR idle rule.
        """
        tenants = self._tenants
        count = len(tenants)
        eligible = 0
        for queue in tenants:
            jobs = queue.jobs
            if jobs and jobs[0][1] <= now:
                eligible += 1
        if eligible == 0:
            return None
        index = self._rr_index
        while True:
            queue = tenants[index]
            jobs = queue.jobs
            if jobs and jobs[0][1] <= now:
                if not queue.charged:
                    queue.deficit_cycles += queue.quantum_cycles
                    queue.charged = True
                if queue.deficit_cycles >= jobs[0][0]:
                    self._rr_index = index
                    return queue
            else:
                queue.deficit_cycles = 0.0
            queue.charged = False
            index += 1
            if index == count:
                index = 0

    def _dispatch(self) -> None:
        """Serve arrived offloads onto free engines (shared mode).

        Runs at every arrival and every engine-completion instant; each
        iteration binds one free engine to the DRR-selected tenant's
        head-of-line job.  This is the device's event-drain loop, so it
        is held to the same hot-path hygiene rule (PERF001) as the
        engine's: no per-event container allocation.
        """
        now = self._engine.now
        free_at = self._free_at
        servers = len(free_at)
        while True:
            engine_index = -1
            for index in range(servers):
                if free_at[index] <= now:
                    engine_index = index
                    break
            if engine_index < 0:
                return
            queue = self._select_tenant(now)
            if queue is None:
                return
            service, arrival, on_accept, on_complete = queue.jobs.popleft()
            queue.deficit_cycles -= service
            if not queue.jobs:
                queue.deficit_cycles = 0.0
                queue.charged = False
            queue_cycles = now - arrival
            if self.degradation is not None:
                multiplier = self.degradation.multiplier_at(now)
                if multiplier != 1.0:
                    degraded_service = service * multiplier
                    self.stats.degraded_offloads += 1
                    self.stats.degraded_extra_cycles += degraded_service - service
                    service = degraded_service
            completion = now + service
            free_at[engine_index] = completion

            self.stats.offloads_served += 1
            self.stats.busy_cycles += service
            self.stats.total_queue_cycles += queue_cycles
            stats = queue.stats
            stats.offloads_served += 1
            stats.busy_cycles += service
            stats.total_queue_cycles += queue_cycles

            if on_accept is not None:
                on_accept(queue_cycles)
            if on_complete is not None:
                # Bind the per-job value now: the loop rebinds these
                # locals every iteration, so a bare closure would deliver
                # every completion to the last job dispatched.
                self._engine.at(
                    completion, functools.partial(on_complete, completion)
                )
            self._engine.at(completion, self._dispatch)

    def pending_offloads(self) -> int:
        """Offloads enqueued behind the shared scheduler (not yet serving)."""
        total = 0
        for queue in self._tenants:
            total += len(queue.jobs)
        return total

    def utilization(self, window_cycles: float) -> float:
        """Fraction of the window the device's engines were busy."""
        if window_cycles <= 0:
            raise ParameterError("window_cycles must be > 0")
        return self.stats.busy_cycles / (window_cycles * len(self._free_at))
