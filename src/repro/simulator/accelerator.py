"""Accelerator device model for the simulator.

A device has one or more service engines behind a FIFO queue.  Work that
would take ``h`` host cycles executes in ``h / A`` accelerator cycles
(clocks are expressed in host-cycle units for comparability).  The queue
delay each offload experiences is measured and reported -- this is the
simulator's ground truth for the model parameter ``Q``.

The device's tenancy picks its scheduling, with no other knob:

* **No tenants: the private device.**  The device serves one service,
  which submits to it directly.  ``submit`` claims the earliest-free
  engine eagerly at submit time and returns the completion time
  immediately.
* **Any attached tenant: deficit round robin (DRR).**  Services attach
  via :meth:`attach`, each receiving a :class:`TenantPort`
  (duck-compatible with the device itself, so
  :class:`~repro.simulator.service.OffloadConfig` accepts either).  Port
  submissions queue per tenant, and each arrival and each engine
  completion runs a dispatch event in which a DRR scheduler picks which
  tenant's head-of-line offload each free engine serves next, giving
  weighted fair shares of device throughput (the SmartNIC/DPU shared-tax
  model).  A single tenant runs the same scheduler, so a sweep's
  tenants=1 cell and its larger cells share one discipline.

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


#: DRR credit per round for a weight-1 tenant, in accelerator cycles:
#: it orders work between tenants and never changes its total.
_QUANTUM_CYCLES = 1_000.0


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

    The DRR scheduler fills these in for every attached tenant.
    Conservation is a pinned test contract: summed tenant
    ``busy_cycles`` equal the device's ``busy_cycles`` exactly.
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

    __slots__ = ("name", "quantum_cycles", "deficit_cycles", "charged",
                 "jobs", "stats")

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        #: This tenant's per-round deficit credit (weight-scaled).
        self.quantum_cycles = _QUANTUM_CYCLES * weight
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
    whether they talk to a private device or a shared one.  ``tenant``
    names the tenant on its offload spans.
    """

    __slots__ = ("_device", "_queue", "tenant")

    def __init__(self, device: "AcceleratorDevice", queue: _TenantQueue) -> None:
        self._device = device
        self._queue = queue
        self.tenant = queue.name

    @property
    def stats(self) -> TenantStats:
        return self._queue.stats

    def service_cycles(self, host_kernel_cycles: float) -> float:
        return self._device.service_cycles(host_kernel_cycles)

    def submit(
        self,
        host_kernel_cycles: float,
        arrival_time: float,
        on_accept: Optional[Callable[[float], None]] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Enqueue one offload on this tenant's DRR queue.

        The completion time is a scheduling decision that has not
        happened yet, so the return value is ``nan`` and the callbacks
        are the contract.
        """
        if arrival_time < 0:
            raise ParameterError("arrival_time must be >= 0")
        device = self._device
        self._queue.jobs.append((
            device.service_cycles(host_kernel_cycles), arrival_time,
            on_accept, on_complete,
        ))
        device._engine.at(arrival_time, device._dispatch)
        return _UNSCHEDULED


#: A port's ``submit`` return value: completion is decided later.
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
                 "stats", "degradation", "_tenants", "_rr_index")

    def __init__(
        self,
        engine: Engine,
        peak_speedup: float,
        placement: Placement = Placement.OFF_CHIP,
        servers: int = 1,
        name: Optional[str] = None,
        degradation: Optional["DegradationSchedule"] = None,
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
        #: Attached tenants in attach order (the DRR scan order).
        self._tenants: List[_TenantQueue] = []
        self._rr_index = 0

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
        queue = _TenantQueue(tenant, weight)
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

    # -- service model -----------------------------------------------------

    def service_cycles(self, host_kernel_cycles: float) -> float:
        """Accelerator time for work costing *host_kernel_cycles* on host."""
        if host_kernel_cycles < 0:
            raise ParameterError("host_kernel_cycles must be >= 0")
        return host_kernel_cycles / self.peak_speedup

    # -- private eager path (no tenants) -----------------------------------

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

    # -- shared DRR path (any attached tenant) -----------------------------

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
        """Serve arrived offloads onto free engines (DRR).

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
