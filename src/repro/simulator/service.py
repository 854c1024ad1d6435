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
import functools
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
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
    """Work in one functionality category within a request.

    The split of *plain_cycles* over *leaf_mix* is computed once, at
    construction, into :attr:`plain_ops`, so a segment shared by many
    requests costs the segment loop only its yields.  Request factories
    build one such segment per functionality as a template and stamp
    each request's kernel calls onto it with :meth:`with_invocations`,
    so the split runs once per functionality, not once per request.
    """

    functionality: FunctionalityCategory
    #: Non-kernel host cycles in this segment.
    plain_cycles: float = 0.0
    #: Shares of *plain_cycles* per leaf category (normalized internally).
    leaf_mix: Mapping[LeafCategory, float] = dataclasses.field(
        default_factory=_miscellaneous_leaf_mix
    )
    invocations: Tuple[KernelInvocation, ...] = ()
    #: The ops that run *plain_cycles*: one per leaf with positive
    #: cycles, in *leaf_mix* order.  None when *plain_cycles* is positive
    #: but *leaf_mix* has no mass, an error reported when the segment runs.
    plain_ops: Optional[Tuple[Compute, ...]] = dataclasses.field(
        init=False, compare=False, repr=False
    )
    #: A segment with the same plain fields whose :attr:`plain_ops` this
    #: one shares instead of re-splitting (see :meth:`with_invocations`).
    template: dataclasses.InitVar[Optional["SegmentWork"]] = None

    def __post_init__(self, template: Optional["SegmentWork"]) -> None:
        if template is not None:
            object.__setattr__(self, "plain_ops", template.plain_ops)
            return
        plain_ops: Optional[Tuple[Compute, ...]] = ()
        plain_cycles = self.plain_cycles
        if plain_cycles > 0:
            total_share = sum(self.leaf_mix.values())
            if total_share <= 0:
                plain_ops = None
            else:
                functionality = self.functionality
                ops = []
                for leaf, share in self.leaf_mix.items():
                    cycles = plain_cycles * share / total_share
                    if cycles > 0:
                        ops.append(Compute(cycles, functionality, leaf))
                plain_ops = tuple(ops)
        object.__setattr__(self, "plain_ops", plain_ops)

    def with_invocations(
        self, invocations: Tuple[KernelInvocation, ...]
    ) -> "SegmentWork":
        """This segment carrying *invocations* instead of its own.

        The copy takes this segment's :attr:`plain_ops` tuple rather than
        re-splitting *leaf_mix*, so it equals a freshly constructed
        segment with the same fields, and a zero-mass *leaf_mix* still
        raises only when the copy runs.
        """
        return SegmentWork(
            self.functionality, self.plain_cycles, self.leaf_mix,
            invocations, self,
        )


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
    TenantPort` reports its tenant name whatever the tenant count, so a
    one-tenant trace names its tenant just as a many-tenant one does.
    """
    return getattr(device, "tenant", "")


@dataclasses.dataclass(slots=True)
class _BatchState:
    """Accumulated invocations awaiting a batched dispatch."""

    pending_host_cycles: float = 0.0
    pending_bytes: float = 0.0
    gates: list = dataclasses.field(default_factory=list)
    #: One request context per pending invocation (gating or not), so a
    #: whole-batch fallback can mark each one degraded.
    contexts: list = dataclasses.field(default_factory=list)

    def reset(self) -> Tuple[float, float, list, list]:
        summary = (
            self.pending_host_cycles,
            self.pending_bytes,
            self.gates,
            self.contexts,
        )
        self.pending_host_cycles = 0.0
        self.pending_bytes = 0.0
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
    #: :meth:`Microservice._adjudicate_faults`, once per *doorbell*: a
    #: batch's doorbell covers ``batch_size`` invocations, an unbatched
    #: dispatch is a doorbell of one.  Each attempt draws one outcome per
    #: covered invocation, a single drop fails the whole doorbell, and
    #: per-item latency spikes accrue per item.
    faults: Optional["FaultInjector"] = None

    _batch_state: _BatchState = dataclasses.field(default_factory=_BatchState)

    #: The :class:`Microservice` generator method that runs each offload:
    #: the batched state machine when ``batch_size > 1``, else
    #: :meth:`Microservice._run_offload` when the fault injector is
    #: active, else the design's state machine.  An injector's ``active``
    #: is fixed at construction, so this is chosen once.
    _handler: Callable = dataclasses.field(
        init=False, repr=False, compare=False
    )

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
        handler = _DESIGN_HANDLERS.get(self.design)
        if handler is None:
            raise SimulationError(
                f"unsupported threading design {self.design!r}"
            )
        injector = self.faults
        if self.batch_size > 1:
            # Batches adjudicate faults per doorbell, at flush time.
            handler = Microservice._offload_async_batched
        elif injector is not None and injector.active:
            handler = Microservice._run_offload
        self._handler = handler

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


# ---------------------------------------------------------------------------
# Shared ops.  Ops are frozen values, so the offload path yields objects
# built once instead of fresh ones per offload.
# ---------------------------------------------------------------------------

#: Park a thread without a switch-back charge.
_RELEASE = ReleaseCore()

#: Hand the core to the next runnable thread.
_YIELD = YieldCore()


def _thread_switch(cycles: float) -> Compute:
    """``o1`` of core time: one thread switch."""
    return Compute(
        cycles,
        FunctionalityCategory.THREAD_POOL,
        LeafCategory.KERNEL,
        CycleKind.THREAD_SWITCH,
    )


class _OffloadOps:
    """One kernel's offload ops under one :class:`OffloadConfig`.

    Built on the kernel's first offload and kept by the
    :class:`Microservice` (runtime state: the config is a spec and stays
    unwritten).  Per-size constants are cached by granularity; request
    generators share a few sizes per kernel.
    """

    __slots__ = ("kernel", "config", "dispatch", "hold", "switch",
                 "release", "awaits_ack", "gates", "sizes")

    def __init__(self, kernel: KernelSpec, config: OffloadConfig) -> None:
        self.kernel = kernel
        self.config = config
        dispatch = config.interface.dispatch_cycles
        o1 = config.thread_switch_cycles
        #: The ``o0`` dispatch charge; None when it costs nothing.
        self.dispatch = (
            Compute(dispatch, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD)
            if dispatch > 0
            else None
        )
        #: Sync: block on-core until the device responds.
        self.hold = HoldCore(kernel.functionality, kernel.leaf)
        #: One ``o1`` switch; None when it costs nothing.
        self.switch = _thread_switch(o1) if o1 > 0 else None
        #: Sync-OS: park off-core, paying ``o1`` again on the way back.
        self.release = ReleaseCore(resume_charge=o1)
        #: Sync-OS: the host stays on-core until the device acknowledges.
        self.awaits_ack = (
            config.driver_awaits_ack
            and config.interface.placement is not Placement.REMOTE
        )
        self.gates = config.gates_request()
        #: granularity -> (transfer ``L``, device service cycles, the
        #: async ``o0 + L`` charge or None when it costs nothing).
        self.sizes: Dict[float, Tuple[float, float, Optional[Compute]]] = {}

    def sized(
        self, invocation: KernelInvocation
    ) -> Tuple[float, float, Optional[Compute]]:
        """The per-size constants of one call of this kernel."""
        entry = self.sizes.get(invocation.granularity)
        if entry is None:
            config = self.config
            kernel = self.kernel
            transfer = config.interface.transfer_cycles(invocation.granularity)
            overhead = config.interface.dispatch_cycles + transfer
            entry = self.sizes[invocation.granularity] = (
                transfer,
                config.device.service_cycles(invocation.host_cycles),
                Compute(overhead, kernel.functionality, kernel.leaf,
                        CycleKind.OFFLOAD_OVERHEAD)
                if overhead > 0
                else None,
            )
        return entry


class ResponseHandler:
    """A dedicated thread that picks up async accelerator responses.

    Each delivered response costs one thread switch ``o1`` of core time
    (the paper's async-distinct-thread design: "the speedup equation is
    the same as (3) with only one thread switching overhead").
    """

    __slots__ = ("_cpu", "_switch", "_pending", "_parked", "_thread")

    def __init__(self, cpu: CPU, thread_switch_cycles: float) -> None:
        if thread_switch_cycles < 0:
            raise SimulationError("thread_switch_cycles must be >= 0")
        self._cpu = cpu
        #: The ``o1`` op each delivered response costs; None when free.
        self._switch = (
            _thread_switch(thread_switch_cycles)
            if thread_switch_cycles > 0
            else None
        )
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
                if self._switch is not None:
                    yield self._switch
                callback()
            else:
                self._parked = True
                yield _RELEASE


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
                 "_request_counter", "tracer", "_offload_ops")

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
        #: ``id(kernel)`` -> that kernel's :class:`_OffloadOps`.  Keyed by
        #: identity because calibrated workloads give one kernel name a
        #: spec per origin; each entry holds its kernel, so the id cannot
        #: be reused while the entry lives.
        self._offload_ops: Dict[int, _OffloadOps] = {}
        #: Optional :class:`~repro.observability.SpanTracer`.  Every span
        #: emission below is gated on ``is not None`` (lint rule OBS001),
        #: so untraced runs allocate nothing on the request path.
        self.tracer = tracer

    # -- workers --------------------------------------------------------------

    def spawn_worker(
        self, requests: Iterator[RequestSpec], name: str = ""
    ) -> SimThread:
        """Start a closed-loop worker thread consuming *requests*."""

        def factory(thread: SimThread):
            return self._worker_body(thread, requests)

        return self.cpu.spawn(factory, name=name or f"{self.name}-worker")

    def _worker_body(self, thread: SimThread, requests: Iterator[RequestSpec]):
        """Run each request's segments in order, then yield the core.

        Segments run inline, not in a nested generator: every host
        Compute costs the CPU one resume of this frame.
        """
        engine = self.engine
        metrics = self.metrics
        tracer = self.tracer
        offloads = self.offloads
        offload_ops = self._offload_ops
        invocation_counts = metrics.kernel_invocations
        kernel_cycles = metrics.kernel_cycles
        kernel_cycles_by_origin = metrics.kernel_cycles_by_origin
        for spec in requests:
            self._request_counter += 1
            record = metrics.open_request(self._request_counter, engine.now)
            context = _RequestContext(engine, record)
            if tracer is not None:
                context.trace = tracer.begin_request(self.name, record)
                thread.trace_ctx = context.trace
            for segment in spec.segments:
                span = None
                if tracer is not None and context.trace is not None:
                    span = tracer.begin_segment(
                        context.trace, segment.functionality, engine.now
                    )
                plain_ops = segment.plain_ops
                if plain_ops is None:
                    raise SimulationError(
                        "segment leaf_mix must have positive mass"
                    )
                yield from plain_ops
                for invocation in segment.invocations:
                    kernel = invocation.kernel
                    if offloads:
                        config = offloads.get(kernel.name)
                        if (
                            config is not None
                            and invocation.granularity >= config.min_granularity
                        ):
                            ops = offload_ops.get(id(kernel))
                            if ops is None or ops.config is not config:
                                ops = offload_ops[id(kernel)] = _OffloadOps(
                                    kernel, config
                                )
                            yield from config._handler(
                                self, thread, invocation, config, ops, context
                            )
                            continue
                    # Run on the host: MetricSink.charge_kernel, inlined.
                    name = kernel.name
                    host_cycles = invocation.host_cycles
                    invocation_counts[name] += 1
                    kernel_cycles[name] += host_cycles
                    kernel_cycles_by_origin[
                        (name, kernel.functionality)
                    ] += host_cycles
                    if invocation.host_op is not None:
                        yield invocation.host_op
                if tracer is not None and span is not None:
                    tracer.end_segment(context.trace, span, engine.now)
            context.body_finished()
            if tracer is not None:
                tracer.end_body(context.trace, engine.now)
                thread.trace_ctx = None
            # Hand the core to any waiting thread (e.g. a response
            # handler) before starting the next request.
            yield _YIELD

    # -- offload state machines ---------------------------------------------------

    def _run_offload(
        self,
        thread: SimThread,
        invocation: KernelInvocation,
        config: OffloadConfig,
        ops: _OffloadOps,
        context: _RequestContext,
    ):
        """The handler of an unbatched kernel with an active fault
        injector: adjudicate the call's faults as a doorbell of one, then
        run the design's state machine."""
        extra_delay = yield from self._adjudicate_faults(
            thread, config, ops, context, ops.sized(invocation)[2],
            invocation.host_cycles, (context,),
        )
        if extra_delay is None:
            # Retries exhausted: the kernel ran on the host (fallback)
            # or its work was lost.  Nothing reaches the device.
            return
        yield from _DESIGN_HANDLERS[config.design](
            self, thread, invocation, config, ops, context, extra_delay
        )

    def _open_offload(
        self,
        invocation: KernelInvocation,
        config: OffloadConfig,
        service_cycles: float,
        context: _RequestContext,
    ) -> OffloadRecord:
        """The record of one unbatched offload dispatched now, spanned
        when the request is traced."""
        record = OffloadRecord(
            kernel=invocation.kernel.name,
            granularity=invocation.granularity,
            dispatched_at=self.engine.now,
            service_cycles=service_cycles,
        )
        tracer = self.tracer
        if tracer is not None and context.trace is not None:
            tracer.begin_offload(
                context.trace, record, config.design,
                tenant=_tenant_label(config.device),
            )
        return record

    # -- fault handling ---------------------------------------------------------

    def _adjudicate_faults(
        self,
        thread: SimThread,
        config: OffloadConfig,
        ops: _OffloadOps,
        context: _RequestContext,
        overhead: Optional[Compute],
        host_cycles: float,
        covered: Sequence[_RequestContext],
        gates: Sequence[_RequestContext] = (),
    ):
        """Retry loop for one doorbell under ``config.faults``.

        The doorbell covers one invocation per entry of *covered* (their
        request contexts); an unbatched offload is a doorbell of one.
        Each attempt adjudicates every covered invocation -- one entropy
        draw each, the same budget as that many unbatched dispatches --
        so seeded fault streams stay aligned across batch sizes.  Any
        DROP fails the whole doorbell (the device never saw it); per-item
        SPIKEs accrue into its response delay.  *overhead* is the async
        ``o0 + L`` op a failed attempt pays (:meth:`_failed_attempt`);
        *host_cycles* and *gates* are what a fallback runs and releases.

        Returns the response-delay shift of the final successful attempt
        (accumulated async timeouts plus any latency spikes), or ``None``
        when the doorbell exhausted its retries -- in which case the
        fallback (or the loss) has already been accounted for.
        """
        kernel = ops.kernel
        injector = config.faults
        policy = injector.policy
        counters = self.metrics.fault_counters(kernel.name)
        blocking = config.design in (
            ThreadingDesign.SYNC,
            ThreadingDesign.SYNC_OS,
        )
        count = len(covered)
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
            for _ in range(count):
                outcome = injector.outcome(attempt_started)
                if outcome is AttemptOutcome.DROP:
                    dropped += 1
                elif outcome is AttemptOutcome.SPIKE:
                    spikes += 1
            counters.attempts += 1
            if not dropped:
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
            # A dropped doorbell never completes; the host pays its share
            # of the dispatch cost and notices only via one timeout.
            failures += 1
            counters.drops += dropped
            counters.timeouts += 1
            counters.timeout_cycles += policy.timeout_cycles
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = "fault-timeout"
            yield from self._failed_attempt(thread, config, ops, overhead)
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
                    kernel, host_cycles, covered, gates, counters, policy
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
        config: OffloadConfig,
        ops: _OffloadOps,
        overhead: Optional[Compute],
    ):
        """Charge one dropped attempt's host-side cost for the design.

        Sync: ``o0`` busy plus the timeout blocked on-core.  Sync-OS:
        ``o0 + 2*o1`` busy with the timeout spent off-core.  Async family:
        the *overhead* ``o0 + L`` busy (the bytes were sent), timeout off
        the host.
        """
        design = config.design
        timeout = config.faults.policy.timeout_cycles
        if design is ThreadingDesign.SYNC:
            if ops.dispatch is not None:
                yield ops.dispatch
            if timeout > 0:
                self.engine.after(
                    timeout, functools.partial(self.cpu.resume, thread)
                )
                yield ops.hold
        elif design is ThreadingDesign.SYNC_OS:
            if ops.dispatch is not None:
                yield ops.dispatch
            if timeout > 0:
                if ops.switch is not None:
                    yield ops.switch
                self.engine.after(
                    timeout, functools.partial(self.cpu.resume, thread)
                )
                yield ops.release
            elif ops.switch is not None:
                # Immediate detection still pays the pair of switches,
                # keeping cost parity with eqn. (3)'s 2 * o1.
                yield _thread_switch(2.0 * config.thread_switch_cycles)
        elif overhead is not None:
            yield overhead

    def _fall_back(
        self,
        kernel: KernelSpec,
        host_cycles: float,
        covered: Sequence[_RequestContext],
        gates: Sequence[_RequestContext],
        counters,
        policy,
    ):
        """Retries exhausted: every covered invocation runs on the host
        CPU (or its work is lost), and every gated request is released."""
        for covered_context in covered:
            covered_context.mark_degraded()
        if policy.fallback_to_cpu:
            counters.fallbacks += len(covered)
            counters.fallback_cycles += host_cycles
            self.metrics.charge_kernel(
                kernel.name, host_cycles, origin=kernel.functionality
            )
            if host_cycles > 0:
                yield Compute(host_cycles, kernel.functionality, kernel.leaf)
        else:
            counters.lost_offloads += len(covered)
        for gated_context in gates:
            gated_context.release_gate()

    def _offload_sync(
        self,
        thread: SimThread,
        invocation: KernelInvocation,
        config: OffloadConfig,
        ops: _OffloadOps,
        context: _RequestContext,
        extra_delay: float = 0.0,
    ):
        """Sync (Fig. 12): the core blocks through transfer, queue, and
        accelerator service (plus any fault-induced *extra_delay*)."""
        transfer, service, _ = ops.sized(invocation)
        record = self._open_offload(invocation, config, service, context)
        if ops.dispatch is not None:
            yield ops.dispatch

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            self.cpu.resume(thread)

        arrival_time = self.engine.now + transfer
        if extra_delay:
            arrival_time += extra_delay
        config.device.submit(
            invocation.host_cycles,
            arrival_time=arrival_time,
            on_accept=functools.partial(setattr, record, "queued_cycles"),
            on_complete=on_complete,
        )
        yield ops.hold
        self.metrics.record_offload(record)

    def _offload_sync_os(
        self,
        thread: SimThread,
        invocation: KernelInvocation,
        config: OffloadConfig,
        ops: _OffloadOps,
        context: _RequestContext,
        extra_delay: float = 0.0,
    ):
        """Sync-OS (Fig. 13): block through the driver ack (if any), then
        switch to another thread; switch back on completion (2 x o1)."""
        transfer, service, _ = ops.sized(invocation)
        record = self._open_offload(invocation, config, service, context)
        if ops.dispatch is not None:
            yield ops.dispatch
        completed_early = False

        def on_complete(completion: float) -> None:
            nonlocal completed_early
            record.completed_at = completion
            if thread.state is ThreadState.BLOCKED_RELEASED:
                self.cpu.resume(thread)
            else:
                completed_early = True

        arrival_time = self.engine.now + transfer
        if extra_delay:
            arrival_time += extra_delay
        if ops.awaits_ack:
            # Host stays on-core until the device acknowledges (L + Q).
            def on_accept(queue_cycles: float) -> None:
                record.queued_cycles = queue_cycles
                self.cpu.resume(thread)

            config.device.submit(
                invocation.host_cycles,
                arrival_time=arrival_time,
                on_accept=on_accept,
                on_complete=on_complete,
            )
            yield ops.hold
        else:
            config.device.submit(
                invocation.host_cycles,
                arrival_time=arrival_time,
                on_accept=functools.partial(setattr, record, "queued_cycles"),
                on_complete=on_complete,
            )
        # Switch away...
        if ops.switch is not None:
            yield ops.switch
        if completed_early:
            # Response beat the switch; pay the switch-back inline to keep
            # cost parity with eqn. (3)'s 2 * o1.
            if ops.switch is not None:
                yield ops.switch
        else:
            yield ops.release
        self.metrics.record_offload(record)

    def _offload_async(
        self,
        thread: SimThread,
        invocation: KernelInvocation,
        config: OffloadConfig,
        ops: _OffloadOps,
        context: _RequestContext,
        extra_delay: float = 0.0,
    ):
        """Async (Fig. 14): the host pays dispatch + transfer cycles and
        keeps running; responses gate request completion (except remote
        fire-and-forget) and may be consumed by a dedicated thread.
        Fault-induced *extra_delay* (timeouts waited out off the host,
        latency spikes) pushes the device arrival into the future."""
        _, service, overhead = ops.sized(invocation)
        record = self._open_offload(invocation, config, service, context)
        if overhead is not None:
            yield overhead
        gates = ops.gates
        if gates:
            context.add_gate()
        design = config.design
        handler = config.response_handler

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
            invocation.host_cycles,
            arrival_time=arrival_time,
            on_accept=functools.partial(setattr, record, "queued_cycles"),
            on_complete=on_complete,
        )
        self.metrics.record_offload(record)

    def _offload_async_batched(
        self,
        thread: SimThread,
        invocation: KernelInvocation,
        config: OffloadConfig,
        ops: _OffloadOps,
        context: _RequestContext,
    ):
        """Append one invocation to the kernel's batch; the invocation
        that fills the batch pays the (single) dispatch overhead and
        triggers the offload covering every buffered invocation."""
        kernel = invocation.kernel
        state = config._batch_state
        state.pending_host_cycles += invocation.host_cycles
        state.pending_bytes += invocation.granularity
        state.contexts.append(context)
        if ops.gates:
            context.add_gate()
            state.gates.append(context)
        if len(state.contexts) < config.batch_size:
            return
        batch_cycles, batch_bytes, batch_gates, batch_contexts = state.reset()
        # One o0 + L op per flush, paid by every failed doorbell attempt
        # and by the final dispatch.
        overhead_cycles = (
            config.interface.dispatch_cycles
            + config.interface.transfer_cycles(batch_bytes)
        )
        overhead = (
            Compute(overhead_cycles, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD)
            if overhead_cycles > 0
            else None
        )
        extra_delay = 0.0
        injector = config.faults
        if injector is not None and injector.active:
            extra_delay = yield from self._adjudicate_faults(
                thread, config, ops, context, overhead, batch_cycles,
                batch_contexts, batch_gates,
            )
            if extra_delay is None:
                # Doorbell retries exhausted: the whole batch fell back
                # to the host (or was lost); nothing reaches the device.
                return
        if overhead is not None:
            yield overhead
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
                context.trace, batch_record, design, batched=len(batch_contexts),
                tenant=_tenant_label(config.device),
            )

        def release_all() -> None:
            for gated_context in batch_gates:
                gated_context.release_gate()

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
            on_accept=functools.partial(setattr, batch_record, "queued_cycles"),
            on_complete=on_complete,
        )
        self.metrics.record_offload(batch_record)


#: Each threading design's offload state machine.
_DESIGN_HANDLERS = {
    ThreadingDesign.SYNC: Microservice._offload_sync,
    ThreadingDesign.SYNC_OS: Microservice._offload_sync_os,
    ThreadingDesign.ASYNC: Microservice._offload_async,
    ThreadingDesign.ASYNC_DISTINCT_THREAD: Microservice._offload_async,
    ThreadingDesign.ASYNC_NO_RESPONSE: Microservice._offload_async,
}
