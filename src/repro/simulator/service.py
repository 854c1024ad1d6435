"""Microservice runtime: requests, kernels, and offload execution.

A request is a sequence of :class:`SegmentWork` items -- cycles attributed
to one functionality category, optionally containing kernel invocations
(compression calls, encryptions, memory copies ...) that can either run on
the host or be offloaded to an accelerator under a configured threading
design.  The offload state machines here implement, cycle for cycle, the
cost structures of the paper's Sync, Sync-OS, and Async designs (Figs.
12-14).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from ..core.strategies import Placement, ThreadingDesign
from ..errors import SimulationError
from ..faults.policy import AttemptOutcome
from ..paperdata.categories import FunctionalityCategory, LeafCategory
from .accelerator import AcceleratorDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
from .cpu import (
    CPU,
    Compute,
    HoldCore,
    ReleaseCore,
    SimThread,
    ThreadState,
    YieldCore,
)
from .engine import Engine
from .interface import InterfaceModel
from .metrics import CycleKind, MetricSink, OffloadRecord

# ---------------------------------------------------------------------------
# Workload specification types.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class KernelSpec:
    """A named, offloadable kernel (e.g. "compression")."""

    name: str
    functionality: FunctionalityCategory
    leaf: LeafCategory
    cycles_per_byte: float
    complexity_exponent: float = 1.0

    def host_cycles(self, granularity_bytes: float) -> float:
        """Host cost of one invocation: ``Cb * g**beta``."""
        if granularity_bytes < 0:
            raise SimulationError("granularity must be >= 0")
        return self.cycles_per_byte * granularity_bytes**self.complexity_exponent


@dataclasses.dataclass(frozen=True, slots=True)
class KernelInvocation:
    """One kernel call within a request.

    The host cost ``Cb * g**beta`` and the :class:`Compute` op that runs
    the call on the host are computed once, at construction.  Request
    generators share one invocation per distinct size (see
    :meth:`~repro.workloads.base.ServiceWorkload.request_factory`), so a
    host-run call costs the segment loop a charge and a yield, nothing
    more.
    """

    kernel: KernelSpec
    granularity: float
    #: ``kernel.host_cycles(granularity)``.
    host_cycles: float = dataclasses.field(
        init=False, compare=False, repr=False
    )
    #: The op that runs this call on the host; None when it costs nothing.
    host_op: Optional[Compute] = dataclasses.field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        kernel = self.kernel
        host_cycles = kernel.host_cycles(self.granularity)
        object.__setattr__(self, "host_cycles", host_cycles)
        object.__setattr__(
            self,
            "host_op",
            Compute(host_cycles, kernel.functionality, kernel.leaf)
            if host_cycles > 0
            else None,
        )


def _miscellaneous_leaf_mix() -> Mapping[LeafCategory, float]:
    """Default leaf attribution: all plain cycles are miscellaneous."""
    return {LeafCategory.MISCELLANEOUS: 1.0}


@dataclasses.dataclass(frozen=True, slots=True)
class SegmentWork:
    """Work in one functionality category within a request."""

    functionality: FunctionalityCategory
    #: Non-kernel host cycles in this segment.
    plain_cycles: float = 0.0
    #: Shares of *plain_cycles* per leaf category (normalized internally).
    leaf_mix: Mapping[LeafCategory, float] = dataclasses.field(
        default_factory=_miscellaneous_leaf_mix
    )
    invocations: Tuple[KernelInvocation, ...] = ()


@dataclasses.dataclass(frozen=True, slots=True)
class RequestSpec:
    """A full request: ordered functionality segments."""

    segments: Tuple[SegmentWork, ...]

    def total_host_cycles(self) -> float:
        """Cycles the request costs when nothing is offloaded."""
        total = 0.0
        for segment in self.segments:
            total += segment.plain_cycles
            for invocation in segment.invocations:
                total += invocation.host_cycles
        return total


# ---------------------------------------------------------------------------
# Offload configuration.
# ---------------------------------------------------------------------------


def _tenant_label(device) -> str:
    """Span attribution label for *device* (a device or a tenant port).

    Private devices have no label; a :class:`~repro.simulator.accelerator.
    TenantPort` reports its tenant name only in shared mode, keeping
    single-tenant traces bit-identical to private-device traces.
    """
    return getattr(device, "tenant_label", "")


@dataclasses.dataclass(slots=True)
class _BatchState:
    """Accumulated invocations awaiting a batched dispatch."""

    pending_host_cycles: float = 0.0
    pending_bytes: float = 0.0
    pending_count: int = 0
    gates: list = dataclasses.field(default_factory=list)
    #: Every request context covered by the pending batch (gating or
    #: not), so a whole-batch fallback can mark each one degraded.
    contexts: list = dataclasses.field(default_factory=list)

    def reset(self) -> Tuple[float, float, int, list, list]:
        summary = (
            self.pending_host_cycles,
            self.pending_bytes,
            self.pending_count,
            self.gates,
            self.contexts,
        )
        self.pending_host_cycles = 0.0
        self.pending_bytes = 0.0
        self.pending_count = 0
        self.gates = []
        self.contexts = []
        return summary


@dataclasses.dataclass(slots=True)
class OffloadConfig:
    """How one kernel is offloaded."""

    device: AcceleratorDevice
    interface: InterfaceModel
    design: ThreadingDesign

    #: Only invocations with granularity >= this are offloaded; smaller
    #: ones run on the host (the paper's selective-offload assumption).
    min_granularity: float = 0.0

    #: Sync-OS only: whether the device driver waits for the accelerator's
    #: acknowledgement (transfer + queue) before switching threads.
    driver_awaits_ack: bool = True

    #: ``o1`` in cycles, used by Sync-OS and async-distinct-thread.
    thread_switch_cycles: float = 0.0

    #: Async-distinct-thread response consumer (one per service).
    response_handler: Optional["ResponseHandler"] = None

    #: Async designs only: accumulate this many invocations into one
    #: offload, paying the dispatch overheads once per batch (the
    #: remote-inference case study's batching strategy).  A partial batch
    #: left at the end of a measurement window is never flushed, matching
    #: a size-triggered production batcher.
    batch_size: int = 1

    #: Optional seeded fault injector.  When active, every dispatch of
    #: this kernel runs through the retry / exponential-backoff /
    #: fallback-to-CPU state machine in
    #: :meth:`Microservice._adjudicate_faults`.  Batched offloads
    #: adjudicate per *doorbell* instead
    #: (:meth:`Microservice._adjudicate_batch_faults`): each attempt
    #: draws one outcome per buffered invocation -- the same entropy
    #: budget as ``batch_size`` unbatched dispatches -- and a single
    #: dropped doorbell fails the whole batch while per-item latency
    #: spikes accrue per item.
    faults: Optional["FaultInjector"] = None

    _batch_state: _BatchState = dataclasses.field(default_factory=_BatchState)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SimulationError("batch_size must be >= 1")
        if self.batch_size > 1 and self.design in (
            ThreadingDesign.SYNC,
            ThreadingDesign.SYNC_OS,
        ):
            raise SimulationError(
                "batched offload requires an async design: a blocking "
                "thread cannot wait on a batch it has not filled"
            )
    def gates_request(self) -> bool:
        """Whether a request must wait for this kernel's response.

        Fire-and-forget offloads to a *remote* device do not gate the
        issuing microservice's request latency (the paper: remote
        accelerator latency "will instead show up in the overall
        application's end-to-end latency").
        """
        if self.design is ThreadingDesign.ASYNC_NO_RESPONSE:
            return self.interface.placement is not Placement.REMOTE
        return True


class ResponseHandler:
    """A dedicated thread that picks up async accelerator responses.

    Each delivered response costs one thread switch ``o1`` of core time
    (the paper's async-distinct-thread design: "the speedup equation is
    the same as (3) with only one thread switching overhead").
    """

    __slots__ = ("_cpu", "_o1", "_pending", "_parked", "_thread")

    def __init__(self, cpu: CPU, thread_switch_cycles: float) -> None:
        if thread_switch_cycles < 0:
            raise SimulationError("thread_switch_cycles must be >= 0")
        self._cpu = cpu
        self._o1 = thread_switch_cycles
        self._pending: Deque[Callable[[], None]] = deque()
        self._parked = False
        self._thread = cpu.spawn(self._body, name="response-handler")

    @property
    def pending_responses(self) -> int:
        return len(self._pending)

    def deliver(self, callback: Callable[[], None]) -> None:
        """Queue a response; wakes the handler if it is parked."""
        self._pending.append(callback)
        if self._parked:
            self._parked = False
            self._cpu.resume(self._thread)

    def _body(self, thread: SimThread):
        while True:
            if self._pending:
                callback = self._pending.popleft()
                if self._o1 > 0:
                    yield Compute(
                        self._o1,
                        FunctionalityCategory.THREAD_POOL,
                        LeafCategory.KERNEL,
                        CycleKind.THREAD_SWITCH,
                    )
                callback()
            else:
                self._parked = True
                yield ReleaseCore()


# ---------------------------------------------------------------------------
# Request lifecycle.
# ---------------------------------------------------------------------------


class _RequestContext:
    """Tracks outstanding gating offloads for one in-flight request."""

    __slots__ = ("_engine", "_record", "_outstanding", "_body_done", "trace")

    def __init__(self, engine: Engine, record) -> None:
        self._engine = engine
        self._record = record
        self._outstanding = 0
        self._body_done = False
        #: Per-request :class:`~repro.observability.TraceContext` when the
        #: service carries a tracer; None on untraced runs.
        self.trace = None

    def add_gate(self) -> None:
        self._outstanding += 1

    def release_gate(self) -> None:
        if self._outstanding <= 0:
            raise SimulationError("released more gates than were taken")
        self._outstanding -= 1
        self._maybe_complete()

    def body_finished(self) -> None:
        self._body_done = True
        self._maybe_complete()

    def mark_degraded(self) -> None:
        """Record that a fault degraded this request (fallback or loss)."""
        self._record.degraded = True

    def _maybe_complete(self) -> None:
        if (
            self._body_done
            and self._outstanding == 0
            and self._record.completed_at is None
        ):
            self._record.completed_at = self._engine.now


class Microservice:
    """Executes request streams on a :class:`CPU` with optional offloads."""

    __slots__ = ("engine", "cpu", "metrics", "name", "offloads",
                 "_request_counter", "tracer")

    def __init__(
        self,
        engine: Engine,
        cpu: CPU,
        metrics: MetricSink,
        name: str = "service",
        offloads: Optional[Dict[str, OffloadConfig]] = None,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.cpu = cpu
        self.metrics = metrics
        self.name = name
        self.offloads = dict(offloads or {})
        self._request_counter = 0
        #: Optional :class:`~repro.observability.SpanTracer`.  Every span
        #: emission below is gated on ``is not None`` (lint rule OBS001),
        #: so untraced runs allocate nothing on the request path.
        self.tracer = tracer

    # -- workers --------------------------------------------------------------

    def spawn_worker(
        self,
        requests: Iterator[RequestSpec],
        name: str = "",
        arrival_time: Optional[float] = None,
    ) -> SimThread:
        """Start a closed-loop worker thread consuming *requests*.

        *arrival_time* timestamps the first request's arrival (open-loop
        drivers pass the arrival instant so measured latency includes any
        run-queue wait before a core picks the work up).
        """

        def factory(thread: SimThread):
            return self._worker_body(thread, requests, arrival_time)

        return self.cpu.spawn(factory, name=name or f"{self.name}-worker")

    def _worker_body(
        self,
        thread: SimThread,
        requests: Iterator[RequestSpec],
        arrival_time: Optional[float] = None,
    ):
        for spec in requests:
            self._request_counter += 1
            opened_at = self.engine.now if arrival_time is None else arrival_time
            arrival_time = None  # only the first request pre-dates scheduling
            record = self.metrics.open_request(self._request_counter, opened_at)
            context = _RequestContext(self.engine, record)
            tracer = self.tracer
            if tracer is not None:
                context.trace = tracer.begin_request(self.name, record)
                thread.trace_ctx = context.trace
            for segment in spec.segments:
                yield from self._run_segment(thread, segment, context)
            context.body_finished()
            if tracer is not None:
                tracer.end_body(context.trace, self.engine.now)
                thread.trace_ctx = None
            # Hand the core to any waiting thread (e.g. a response
            # handler) before starting the next request.
            yield YieldCore()

    # -- segment execution ------------------------------------------------------

    def _run_segment(self, thread: SimThread, segment: SegmentWork, context):
        tracer = self.tracer
        span = None
        if tracer is not None and context.trace is not None:
            span = tracer.begin_segment(
                context.trace, segment.functionality, self.engine.now
            )
        if segment.plain_cycles > 0:
            total_share = sum(segment.leaf_mix.values())
            if total_share <= 0:
                raise SimulationError("segment leaf_mix must have positive mass")
            for leaf, share in segment.leaf_mix.items():
                cycles = segment.plain_cycles * share / total_share
                if cycles > 0:
                    yield Compute(cycles, segment.functionality, leaf)
        offloads = self.offloads
        for invocation in segment.invocations:
            kernel = invocation.kernel
            config = offloads.get(kernel.name)
            if (
                config is not None
                and invocation.granularity >= config.min_granularity
            ):
                yield from self._run_offload(thread, invocation, config, context)
                continue
            # Run on the host.
            self.metrics.charge_kernel(
                kernel.name, invocation.host_cycles, origin=kernel.functionality
            )
            if invocation.host_op is not None:
                yield invocation.host_op
        if tracer is not None and span is not None:
            tracer.end_segment(context.trace, span, self.engine.now)

    # -- offload state machines ---------------------------------------------------

    def _run_offload(
        self,
        thread: SimThread,
        invocation: KernelInvocation,
        config: OffloadConfig,
        context: _RequestContext,
    ):
        kernel = invocation.kernel
        host_cycles = invocation.host_cycles
        transfer = config.interface.transfer_cycles(invocation.granularity)
        dispatch = config.interface.dispatch_cycles
        o1 = config.thread_switch_cycles
        extra_delay = 0.0
        injector = config.faults
        if injector is not None and injector.active and config.batch_size == 1:
            # Batched kernels adjudicate per doorbell at flush time
            # (:meth:`_adjudicate_batch_faults`), not per invocation.
            extra_delay = yield from self._adjudicate_faults(
                thread, kernel, host_cycles, transfer, dispatch, o1, config,
                context,
            )
            if extra_delay is None:
                # Retries exhausted: the kernel ran on the host (fallback)
                # or its work was lost.  Nothing reaches the device.
                return
        record = OffloadRecord(
            kernel=kernel.name,
            granularity=invocation.granularity,
            dispatched_at=self.engine.now,
            service_cycles=config.device.service_cycles(host_cycles),
        )
        design = config.design
        tracer = self.tracer
        if (
            tracer is not None
            and context.trace is not None
            and config.batch_size == 1
        ):
            # Batched dispatches are spanned at flush time instead, where
            # the batch record covering every buffered invocation exists.
            tracer.begin_offload(
                context.trace, record, design,
                tenant=_tenant_label(config.device),
            )

        if design is ThreadingDesign.SYNC:
            yield from self._offload_sync(
                thread, kernel, host_cycles, transfer, dispatch, config, record,
                extra_delay,
            )
        elif design is ThreadingDesign.SYNC_OS:
            yield from self._offload_sync_os(
                thread, kernel, host_cycles, transfer, dispatch, o1, config,
                record, extra_delay,
            )
        elif design in (
            ThreadingDesign.ASYNC,
            ThreadingDesign.ASYNC_DISTINCT_THREAD,
            ThreadingDesign.ASYNC_NO_RESPONSE,
        ):
            yield from self._offload_async(
                kernel, host_cycles, transfer, dispatch, config, record,
                context, extra_delay,
            )
        else:
            raise SimulationError(f"unsupported threading design {design!r}")

    # -- fault handling ---------------------------------------------------------

    def _adjudicate_faults(
        self,
        thread: SimThread,
        kernel: KernelSpec,
        host_cycles: float,
        transfer: float,
        dispatch: float,
        o1: float,
        config: OffloadConfig,
        context: _RequestContext,
    ):
        """Retry loop for one offload under ``config.faults``.

        Returns the response-delay shift of the final successful dispatch
        (accumulated async timeouts plus any latency spike), or ``None``
        when the offload exhausted its retries -- in which case the
        fallback (or the loss) has already been accounted for.
        """
        injector = config.faults
        policy = injector.policy
        counters = self.metrics.fault_counters(kernel.name)
        blocking = config.design in (
            ThreadingDesign.SYNC,
            ThreadingDesign.SYNC_OS,
        )
        tracer = self.tracer
        trace_ctx = context.trace if tracer is not None else None
        if tracer is not None and trace_ctx is not None:
            tracer.note_degradations(kernel.name, injector.schedule)
        waited = 0.0
        failures = 0
        while True:
            attempt_started = self.engine.now
            outcome = injector.outcome(self.engine.now)
            counters.attempts += 1
            if outcome is AttemptOutcome.OK:
                if tracer is not None and trace_ctx is not None:
                    tracer.record_attempt(
                        trace_ctx, kernel.name, failures, "ok",
                        attempt_started, attempt_started,
                    )
                return waited
            if outcome is AttemptOutcome.SPIKE:
                counters.latency_spikes += 1
                counters.spike_cycles += policy.spike_cycles
                if tracer is not None and trace_ctx is not None:
                    tracer.record_attempt(
                        trace_ctx, kernel.name, failures, "spike",
                        attempt_started, attempt_started,
                        spike_cycles=policy.spike_cycles,
                    )
                return waited + policy.spike_cycles
            # DROP: the attempt never completes; the host pays its share
            # of the dispatch cost and notices only via the timeout.
            failures += 1
            counters.drops += 1
            counters.timeouts += 1
            counters.timeout_cycles += policy.timeout_cycles
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = "fault-timeout"
            yield from self._failed_attempt(
                thread, kernel, transfer, dispatch, o1, config
            )
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = None
                tracer.record_attempt(
                    trace_ctx, kernel.name, failures - 1, "drop",
                    attempt_started, self.engine.now,
                )
            if not blocking:
                # Async hosts compute through the wait; the lost time
                # surfaces as response delay instead of core time.
                waited += policy.timeout_cycles
            if failures > policy.max_retries:
                fallback_started = self.engine.now
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = "fallback"
                yield from self._fall_back(
                    kernel, host_cycles, counters, policy, context
                )
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = None
                    tracer.record_fallback(
                        trace_ctx, kernel.name, fallback_started,
                        self.engine.now, policy.fallback_to_cpu,
                    )
                return None
            backoff = policy.backoff_cycles(failures - 1)
            if backoff > 0:
                counters.backoff_cycles += backoff
                backoff_started = self.engine.now
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = "backoff"
                    tracer.record_backoff(
                        trace_ctx, kernel.name, backoff_started,
                        backoff_started + backoff,
                    )
                yield Compute(
                    backoff, kernel.functionality, kernel.leaf, CycleKind.BLOCKED
                )
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = None
            counters.retries += 1

    def _failed_attempt(
        self,
        thread: SimThread,
        kernel: KernelSpec,
        transfer: float,
        dispatch: float,
        o1: float,
        config: OffloadConfig,
    ):
        """Charge one dropped attempt's host-side cost for the design.

        Sync: ``o0`` busy plus the timeout blocked on-core.  Sync-OS:
        ``o0 + 2*o1`` busy with the timeout spent off-core.  Async family:
        ``o0 + L`` busy (the bytes were sent), timeout off the host.
        """
        design = config.design
        timeout = config.faults.policy.timeout_cycles
        if design is ThreadingDesign.SYNC:
            if dispatch > 0:
                yield Compute(
                    dispatch, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD,
                )
            if timeout > 0:
                self.engine.after(timeout, lambda: self.cpu.resume(thread))
                yield HoldCore(kernel.functionality, kernel.leaf)
        elif design is ThreadingDesign.SYNC_OS:
            if dispatch > 0:
                yield Compute(
                    dispatch, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD,
                )
            if timeout > 0:
                if o1 > 0:
                    yield Compute(
                        o1,
                        FunctionalityCategory.THREAD_POOL,
                        LeafCategory.KERNEL,
                        CycleKind.THREAD_SWITCH,
                    )
                self.engine.after(timeout, lambda: self.cpu.resume(thread))
                yield ReleaseCore(resume_charge=o1)
            elif o1 > 0:
                # Immediate detection still pays the pair of switches,
                # keeping cost parity with eqn. (3)'s 2 * o1.
                yield Compute(
                    2.0 * o1,
                    FunctionalityCategory.THREAD_POOL,
                    LeafCategory.KERNEL,
                    CycleKind.THREAD_SWITCH,
                )
        else:
            overhead = dispatch + transfer
            if overhead > 0:
                yield Compute(
                    overhead, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD,
                )

    def _fall_back(
        self,
        kernel: KernelSpec,
        host_cycles: float,
        counters,
        policy,
        context: _RequestContext,
    ):
        """Retries exhausted: run on the host CPU, or lose the work."""
        context.mark_degraded()
        if policy.fallback_to_cpu:
            counters.fallbacks += 1
            counters.fallback_cycles += host_cycles
            self.metrics.charge_kernel(
                kernel.name, host_cycles, origin=kernel.functionality
            )
            if host_cycles > 0:
                yield Compute(host_cycles, kernel.functionality, kernel.leaf)
        else:
            counters.lost_offloads += 1

    def _adjudicate_batch_faults(
        self,
        kernel: KernelSpec,
        batch_cycles: float,
        transfer: float,
        dispatch: float,
        config: OffloadConfig,
        batch_count: int,
        batch_gates: list,
        batch_contexts: list,
        context: _RequestContext,
    ):
        """Doorbell-level retry loop for one batched (async) dispatch.

        Each attempt adjudicates every buffered invocation -- consuming
        exactly *batch_count* entropy draws, the same budget as that many
        unbatched dispatches -- so seeded fault streams stay aligned
        across batch sizes.  Any DROP fails the whole doorbell (the
        device never saw the batch); per-item SPIKEs accrue into the
        batch's response delay.  Returns the response-delay shift of the
        final successful doorbell, or ``None`` when retries were
        exhausted and the whole batch fell back (or was lost).
        """
        injector = config.faults
        policy = injector.policy
        counters = self.metrics.fault_counters(kernel.name)
        tracer = self.tracer
        trace_ctx = context.trace if tracer is not None else None
        if tracer is not None and trace_ctx is not None:
            tracer.note_degradations(kernel.name, injector.schedule)
        waited = 0.0
        failures = 0
        while True:
            attempt_started = self.engine.now
            dropped = 0
            spikes = 0
            for _ in range(batch_count):
                outcome = injector.outcome(self.engine.now)
                if outcome is AttemptOutcome.DROP:
                    dropped += 1
                elif outcome is AttemptOutcome.SPIKE:
                    spikes += 1
            counters.attempts += 1
            if dropped == 0:
                if spikes:
                    spike_cycles = spikes * policy.spike_cycles
                    counters.latency_spikes += spikes
                    counters.spike_cycles += spike_cycles
                    if tracer is not None and trace_ctx is not None:
                        tracer.record_attempt(
                            trace_ctx, kernel.name, failures, "spike",
                            attempt_started, attempt_started,
                            spike_cycles=spike_cycles,
                        )
                    return waited + spike_cycles
                if tracer is not None and trace_ctx is not None:
                    tracer.record_attempt(
                        trace_ctx, kernel.name, failures, "ok",
                        attempt_started, attempt_started,
                    )
                return waited
            # A dropped doorbell loses the whole dispatch: the host paid
            # the batch's dispatch + transfer and notices via one timeout.
            failures += 1
            counters.drops += dropped
            counters.timeouts += 1
            counters.timeout_cycles += policy.timeout_cycles
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = "fault-timeout"
            overhead = dispatch + transfer
            if overhead > 0:
                yield Compute(
                    overhead, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD,
                )
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = None
                tracer.record_attempt(
                    trace_ctx, kernel.name, failures - 1, "drop",
                    attempt_started, self.engine.now,
                )
            # Async hosts compute through the wait; the lost time surfaces
            # as response delay instead of core time.
            waited += policy.timeout_cycles
            if failures > policy.max_retries:
                fallback_started = self.engine.now
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = "fallback"
                yield from self._fall_back_batch(
                    kernel, batch_cycles, batch_count, batch_gates,
                    batch_contexts, counters, policy,
                )
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = None
                    tracer.record_fallback(
                        trace_ctx, kernel.name, fallback_started,
                        self.engine.now, policy.fallback_to_cpu,
                    )
                return None
            backoff = policy.backoff_cycles(failures - 1)
            if backoff > 0:
                counters.backoff_cycles += backoff
                backoff_started = self.engine.now
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = "backoff"
                    tracer.record_backoff(
                        trace_ctx, kernel.name, backoff_started,
                        backoff_started + backoff,
                    )
                yield Compute(
                    backoff, kernel.functionality, kernel.leaf, CycleKind.BLOCKED
                )
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = None
            counters.retries += 1

    def _fall_back_batch(
        self,
        kernel: KernelSpec,
        batch_cycles: float,
        batch_count: int,
        batch_gates: list,
        batch_contexts: list,
        counters,
        policy,
    ):
        """Doorbell retries exhausted: the whole batch runs on the host
        CPU (or its work is lost), and every gated request is released."""
        for covered_context in batch_contexts:
            covered_context.mark_degraded()
        if policy.fallback_to_cpu:
            counters.fallbacks += batch_count
            counters.fallback_cycles += batch_cycles
            self.metrics.charge_kernel(
                kernel.name, batch_cycles, origin=kernel.functionality
            )
            if batch_cycles > 0:
                yield Compute(batch_cycles, kernel.functionality, kernel.leaf)
        else:
            counters.lost_offloads += batch_count
        for gated_context in batch_gates:
            gated_context.release_gate()

    def _offload_sync(
        self, thread, kernel, host_cycles, transfer, dispatch, config, record,
        extra_delay=0.0,
    ):
        """Sync (Fig. 12): the core blocks through transfer, queue, and
        accelerator service (plus any fault-induced *extra_delay*)."""
        if dispatch > 0:
            yield Compute(
                dispatch, kernel.functionality, kernel.leaf, CycleKind.OFFLOAD_OVERHEAD
            )

        def on_accept(queue_cycles: float) -> None:
            record.queued_cycles = queue_cycles

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            self.cpu.resume(thread)

        arrival_time = self.engine.now + transfer
        if extra_delay:
            arrival_time += extra_delay
        config.device.submit(
            host_cycles,
            arrival_time=arrival_time,
            on_accept=on_accept,
            on_complete=on_complete,
        )
        yield HoldCore(kernel.functionality, kernel.leaf)
        self.metrics.record_offload(record)

    def _offload_sync_os(
        self, thread, kernel, host_cycles, transfer, dispatch, o1, config,
        record, extra_delay=0.0,
    ):
        """Sync-OS (Fig. 13): block through the driver ack (if any), then
        switch to another thread; switch back on completion (2 x o1)."""
        if dispatch > 0:
            yield Compute(
                dispatch, kernel.functionality, kernel.leaf, CycleKind.OFFLOAD_OVERHEAD
            )
        completed_early = {"flag": False}

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            if thread.state is ThreadState.BLOCKED_RELEASED:
                self.cpu.resume(thread)
            else:
                completed_early["flag"] = True

        arrival_time = self.engine.now + transfer
        if extra_delay:
            arrival_time += extra_delay
        awaits_ack = (
            config.driver_awaits_ack
            and config.interface.placement is not Placement.REMOTE
        )
        if awaits_ack:
            # Host stays on-core until the device acknowledges (L + Q).
            def on_accept(queue_cycles: float) -> None:
                record.queued_cycles = queue_cycles
                self.cpu.resume(thread)

            config.device.submit(
                host_cycles,
                arrival_time=arrival_time,
                on_accept=on_accept,
                on_complete=on_complete,
            )
            yield HoldCore(kernel.functionality, kernel.leaf)
        else:

            def on_accept(queue_cycles: float) -> None:
                record.queued_cycles = queue_cycles

            config.device.submit(
                host_cycles,
                arrival_time=arrival_time,
                on_accept=on_accept,
                on_complete=on_complete,
            )
        # Switch away...
        if o1 > 0:
            yield Compute(
                o1,
                FunctionalityCategory.THREAD_POOL,
                LeafCategory.KERNEL,
                CycleKind.THREAD_SWITCH,
            )
        if completed_early["flag"]:
            # Response beat the switch; pay the switch-back inline to keep
            # cost parity with eqn. (3)'s 2 * o1.
            if o1 > 0:
                yield Compute(
                    o1,
                    FunctionalityCategory.THREAD_POOL,
                    LeafCategory.KERNEL,
                    CycleKind.THREAD_SWITCH,
                )
        else:
            yield ReleaseCore(resume_charge=o1)
        self.metrics.record_offload(record)

    def _offload_async(
        self, kernel, host_cycles, transfer, dispatch, config, record, context,
        extra_delay=0.0,
    ):
        """Async (Fig. 14): the host pays dispatch + transfer cycles and
        keeps running; responses gate request completion (except remote
        fire-and-forget) and may be consumed by a dedicated thread.
        Fault-induced *extra_delay* (timeouts waited out off the host,
        latency spikes) pushes the device arrival into the future."""
        if config.batch_size > 1:
            yield from self._offload_async_batched(
                kernel, host_cycles, config, record, context
            )
            return
        overhead = dispatch + transfer
        if overhead > 0:
            yield Compute(
                overhead, kernel.functionality, kernel.leaf, CycleKind.OFFLOAD_OVERHEAD
            )
        gates = config.gates_request()
        if gates:
            context.add_gate()
        design = config.design
        handler = config.response_handler

        def on_accept(queue_cycles: float) -> None:
            record.queued_cycles = queue_cycles

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD:
                if handler is None:
                    raise SimulationError(
                        "async-distinct-thread offload needs a response handler"
                    )
                if gates:
                    handler.deliver(context.release_gate)
                else:
                    handler.deliver(lambda: None)
            elif gates:
                context.release_gate()

        arrival_time = self.engine.now
        if extra_delay:
            arrival_time += extra_delay
        config.device.submit(
            host_cycles,
            arrival_time=arrival_time,
            on_accept=on_accept,
            on_complete=on_complete,
        )
        self.metrics.record_offload(record)

    def _offload_async_batched(
        self, kernel, host_cycles, config, record, context
    ):
        """Append one invocation to the kernel's batch; the invocation
        that fills the batch pays the (single) dispatch overhead and
        triggers the offload covering every buffered invocation."""
        state = config._batch_state
        state.pending_host_cycles += host_cycles
        state.pending_bytes += record.granularity
        state.pending_count += 1
        state.contexts.append(context)
        gates = config.gates_request()
        if gates:
            context.add_gate()
            state.gates.append(context)
        if state.pending_count < config.batch_size:
            return
        batch = state.reset()
        batch_cycles, batch_bytes, batch_count, batch_gates, batch_contexts = batch
        transfer = config.interface.transfer_cycles(batch_bytes)
        dispatch = config.interface.dispatch_cycles
        extra_delay = 0.0
        injector = config.faults
        if injector is not None and injector.active:
            extra_delay = yield from self._adjudicate_batch_faults(
                kernel, batch_cycles, transfer, dispatch, config,
                batch_count, batch_gates, batch_contexts, context,
            )
            if extra_delay is None:
                # Doorbell retries exhausted: the whole batch fell back
                # to the host (or was lost); nothing reaches the device.
                return
        overhead = dispatch + transfer
        if overhead > 0:
            yield Compute(
                overhead, kernel.functionality, kernel.leaf,
                CycleKind.OFFLOAD_OVERHEAD,
            )
        batch_record = OffloadRecord(
            kernel=kernel.name,
            granularity=batch_bytes,
            dispatched_at=self.engine.now,
            service_cycles=config.device.service_cycles(batch_cycles),
        )
        design = config.design
        handler = config.response_handler
        tracer = self.tracer
        if tracer is not None and context.trace is not None:
            # Parented by the flushing request; the batch covers every
            # buffered invocation (batched_invocations attribute).
            tracer.begin_offload(
                context.trace, batch_record, design, batched=batch_count,
                tenant=_tenant_label(config.device),
            )

        def release_all() -> None:
            for gated_context in batch_gates:
                gated_context.release_gate()

        def on_accept(queue_cycles: float) -> None:
            batch_record.queued_cycles = queue_cycles

        def on_complete(completion: float) -> None:
            batch_record.completed_at = completion
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD:
                if handler is None:
                    raise SimulationError(
                        "async-distinct-thread offload needs a response handler"
                    )
                handler.deliver(release_all)
            else:
                release_all()

        arrival_time = self.engine.now
        if extra_delay:
            arrival_time += extra_delay
        config.device.submit(
            batch_cycles,
            arrival_time=arrival_time,
            on_accept=on_accept,
            on_complete=on_complete,
        )
        self.metrics.record_offload(batch_record)
