"""CPU, thread, and scheduler model.

Threads are Python generators that yield :class:`Compute`,
:class:`HoldCore`, or :class:`ReleaseCore` operations; the :class:`CPU`
advances them on a fixed set of cores through the event engine.  The three
blocking primitives map one-to-one onto the paper's threading designs:

* **Sync** -- the offloading thread yields :class:`HoldCore`: it blocks and
  its core idles with it (one thread per core), so accelerator time stays
  on the host's critical path.
* **Sync-OS** -- the thread yields :class:`ReleaseCore` after paying a
  thread-switch cost; the core picks another runnable thread from the run
  queue, and a second switch cost is charged when the blocked thread is
  rescheduled (the ``2 * o1`` of eqn. 3).
* **Async** -- the thread never blocks; it simply continues past the
  offload.

Thread-switch charges are driven explicitly by the offload runtime (in
:mod:`repro.simulator.service`) rather than implicitly by the scheduler, so
the simulated cost structure matches the analytical model term for term.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections import deque
from typing import Callable, Deque, Generator, List, Optional

from ..errors import SimulationError
from ..paperdata.categories import FunctionalityCategory, LeafCategory
from .engine import Engine
from .hotcore import Message
from .metrics import CycleKind, MetricSink

# ---------------------------------------------------------------------------
# Operations a thread body can yield.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Compute:
    """Consume *cycles* of core time, attributed to a category."""

    cycles: float
    functionality: FunctionalityCategory
    leaf: LeafCategory = LeafCategory.MISCELLANEOUS
    kind: CycleKind = CycleKind.USEFUL
    #: ``(functionality, leaf, kind)``: the :attr:`MetricSink.cycles`
    #: key, built once here so a shared op costs no tuple per event.
    key: tuple = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "key", (self.functionality, self.leaf, self.kind)
        )


@dataclasses.dataclass(frozen=True, slots=True)
class HoldCore:
    """Block this thread *and its core* until externally resumed (Sync).

    The blocked interval is charged as :attr:`CycleKind.BLOCKED` cycles
    under the given attribution when the thread resumes.
    """

    functionality: FunctionalityCategory = FunctionalityCategory.MISCELLANEOUS
    leaf: LeafCategory = LeafCategory.MISCELLANEOUS


@dataclasses.dataclass(frozen=True, slots=True)
class ReleaseCore:
    """Block this thread but free its core for other work (Sync-OS).

    *resume_charge* cycles of :attr:`CycleKind.THREAD_SWITCH` time are
    consumed when the thread is later rescheduled (the switch *back*).
    """

    resume_charge: float = 0.0


@dataclasses.dataclass(frozen=True, slots=True)
class YieldCore:
    """Cooperatively hand the core to the next runnable thread.

    The yielding thread goes to the back of the run queue and continues
    when a core next picks it.  Workers yield between requests so that
    other threads (notably async response handlers) are never starved by
    infinite closed-loop request streams.
    """


ThreadOp = object  # Compute | HoldCore | ReleaseCore | YieldCore
ThreadBody = Generator[ThreadOp, None, None]


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED_HOLD = "blocked-hold"
    BLOCKED_RELEASED = "blocked-released"
    DONE = "done"


class SimThread:
    """One simulated software thread."""

    __slots__ = (
        "name",
        "body",
        "state",
        "core",
        "resume_charge",
        "block_started",
        "block_functionality",
        "block_leaf",
        "advance_callback",
        "trace_ctx",
    )

    def __init__(self, body: ThreadBody, name: str) -> None:
        self.name = name
        self.body = body
        self.state = ThreadState.RUNNABLE
        self.core: Optional["Core"] = None
        self.resume_charge = 0.0
        self.block_started: Optional[float] = None
        self.block_functionality = FunctionalityCategory.MISCELLANEOUS
        self.block_leaf = LeafCategory.MISCELLANEOUS
        #: Continuation bound to the thread's current core assignment; the
        #: CPU re-uses it for every Compute event instead of allocating a
        #: fresh closure per event.
        self.advance_callback: Optional[Callable[[], None]] = None
        #: Per-request tracing context, set by the service runtime while a
        #: traced request runs on this thread (None on untraced runs).
        self.trace_ctx = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name} {self.state.value}>"


class Core:
    """One logical core."""

    __slots__ = ("index", "current", "idle_since")

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Optional[SimThread] = None
        self.idle_since: Optional[float] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.index} running={self.current}>"


class CPU:
    """A multi-core host executing simulated threads."""

    __slots__ = ("engine", "metrics", "cores", "run_queue", "_on_thread_done",
                 "trace", "_advance_fast", "_threads")

    def __init__(
        self,
        engine: Engine,
        metrics: MetricSink,
        num_cores: int,
    ) -> None:
        if num_cores < 1:
            raise SimulationError("need at least one core")
        self.engine = engine
        self.metrics = metrics
        self.cores: List[Core] = [Core(i) for i in range(num_cores)]
        self.run_queue: Deque[SimThread] = deque()
        self._on_thread_done: List[Callable[[SimThread], None]] = []
        #: Every thread spawned here, in spawn order, so :meth:`release`
        #: can reach the ones still parked when the run ends.
        self._threads: List[SimThread] = []
        #: Optional :class:`~repro.observability.SpanTracer`.  Every hook
        #: below is gated on ``is not None`` (enforced by lint rule
        #: OBS001), so untraced runs pay one load-and-compare per event
        #: and allocate nothing.
        self.trace = None
        #: The compiled drain loop's native advance (see
        #: :mod:`repro.simulator.hotcore`): a HotEngine runs Compute
        #: chains entirely in C, bouncing back here only for slow ops
        #: (:meth:`_handle_slow_op`) and thread completion
        #: (:meth:`_finish`).  None on the pure-Python engine.
        bind = getattr(engine, "bind_cpu", None)
        self._advance_fast = None if bind is None else bind(self)

    # -- public API ---------------------------------------------------------

    def spawn(
        self,
        body_factory: Callable[[SimThread], ThreadBody],
        name: Optional[str] = None,
    ) -> SimThread:
        """Create a thread from *body_factory* (which receives the thread
        object, so bodies can reference themselves in offload callbacks)
        and make it runnable."""
        threads = self._threads
        thread = SimThread(
            body=iter(()), name=name or f"thread-{len(threads) + 1}"
        )
        thread.body = body_factory(thread)
        threads.append(thread)
        self._make_runnable(thread)
        return thread

    def resume(self, thread: SimThread) -> None:
        """Unblock a thread parked by :class:`HoldCore` or
        :class:`ReleaseCore`."""
        if thread.state is ThreadState.BLOCKED_HOLD:
            if thread.core is None or thread.block_started is None:
                raise SimulationError(f"{thread} held no core while blocked")
            blocked = self.engine.now - thread.block_started
            self.metrics.charge(
                blocked,
                thread.block_functionality,
                thread.block_leaf,
                CycleKind.BLOCKED,
            )
            trace = self.trace
            if trace is not None:
                context = thread.trace_ctx
                if context is not None:
                    trace.record_interval(
                        context,
                        thread.block_started,
                        self.engine.now,
                        thread.block_functionality,
                        thread.block_leaf,
                        "hold-wait",
                    )
            thread.block_started = None
            thread.state = ThreadState.RUNNING
            self._advance(thread.core, thread)
        elif thread.state is ThreadState.BLOCKED_RELEASED:
            trace = self.trace
            if trace is not None:
                context = thread.trace_ctx
                if context is not None:
                    trace.record_release_wait(
                        context,
                        self.engine.now,
                        FunctionalityCategory.THREAD_POOL,
                        LeafCategory.KERNEL,
                    )
            self._make_runnable(thread)
        else:
            raise SimulationError(f"cannot resume {thread}: not blocked")

    def on_thread_done(self, callback: Callable[[SimThread], None]) -> None:
        self._on_thread_done.append(callback)

    def runnable_backlog(self) -> int:
        return len(self.run_queue)

    def idle_cores(self) -> int:
        return sum(1 for core in self.cores if core.current is None)

    def finalize(self, horizon: float) -> None:
        """Close open idle/blocked intervals at the end of a measurement
        window so cycle accounting covers exactly the window."""
        for core in self.cores:
            if core.current is None and core.idle_since is not None:
                self.metrics.charge(
                    horizon - core.idle_since,
                    FunctionalityCategory.MISCELLANEOUS,
                    LeafCategory.MISCELLANEOUS,
                    CycleKind.IDLE,
                )
                core.idle_since = horizon
            thread = core.current
            if (
                thread is not None
                and thread.state is ThreadState.BLOCKED_HOLD
                and thread.block_started is not None
            ):
                self.metrics.charge(
                    horizon - thread.block_started,
                    thread.block_functionality,
                    thread.block_leaf,
                    CycleKind.BLOCKED,
                )
                thread.block_started = horizon

    def release(self) -> None:
        """Break every reference cycle this CPU is part of.

        A run's threads, their generator bodies, the continuations bound
        to them and the engine's queued events reference one another, so
        a finished run is cyclic garbage that only a full collection
        frees.  Called once the run's results are detached: closing each
        body drops its frame (and the closures in it), and the thread,
        core and CPU fields that point back into the run are cleared.
        The CPU cannot run threads afterwards.
        """
        for thread in self._threads:
            thread.body.close()
            thread.advance_callback = None
            thread.core = None
            thread.trace_ctx = None
        self._threads.clear()
        for core in self.cores:
            core.current = None
        self.run_queue.clear()
        self._on_thread_done.clear()
        self._advance_fast = None

    # -- scheduling internals -------------------------------------------------

    def _make_runnable(self, thread: SimThread) -> None:
        thread.state = ThreadState.RUNNABLE
        for core in self.cores:
            if core.current is None:
                self._assign(core, thread)
                return
        self.run_queue.append(thread)

    def _assign(self, core: Core, thread: SimThread) -> None:
        if core.current is not None:
            raise SimulationError(f"{core} is busy")
        if core.idle_since is not None:
            self.metrics.charge(
                self.engine.now - core.idle_since,
                FunctionalityCategory.MISCELLANEOUS,
                LeafCategory.MISCELLANEOUS,
                CycleKind.IDLE,
            )
            core.idle_since = None
        core.current = thread
        thread.core = core
        thread.state = ThreadState.RUNNING
        # One continuation per (thread, core) assignment, reused by every
        # Compute event this thread runs on this core.  A partial calls
        # straight into _advance, without a lambda frame in between, and
        # binds chained=True: only the engine invokes it.
        thread.advance_callback = functools.partial(
            self._advance, core, thread, True
        )
        if thread.resume_charge > 0:
            charge = thread.resume_charge
            thread.resume_charge = 0.0
            self.metrics.charge(
                charge,
                FunctionalityCategory.THREAD_POOL,
                LeafCategory.KERNEL,
                CycleKind.THREAD_SWITCH,
            )
            trace = self.trace
            if trace is not None:
                context = thread.trace_ctx
                if context is not None:
                    trace.record_interval(
                        context,
                        self.engine.now,
                        self.engine.now + charge,
                        FunctionalityCategory.THREAD_POOL,
                        LeafCategory.KERNEL,
                        "thread-switch",
                    )
            self.engine.after(charge, thread.advance_callback)
        else:
            self._advance(core, thread)

    def _advance(
        self, core: Core, thread: SimThread, chained: bool = False
    ) -> None:
        """Run *thread* on *core* until it computes, blocks, or ends.

        *chained* is bound only into the continuation the engine invokes
        (:attr:`SimThread.advance_callback`).  Such a call returns straight
        to the drain loop, so a Compute that is provably the engine's next
        event runs in place: the clock moves to its end and the loop
        resumes the thread again, with no heap round trip.  That is exact
        because the heap pops in ``(time, sequence)`` order and a new
        event's sequence is the largest yet: an event strictly earlier
        than the heap head (ties go to the queued event) and than the
        :meth:`PyEngine.run_until` horizon is what the drain loop would
        pop next.  It counts toward ``events_processed`` and the
        ``max_events`` budget like a popped one.  Outside ``run_until``
        the horizon is -inf, so :meth:`PyEngine.step` never chains.
        Direct calls (:meth:`resume`, :meth:`_assign`) have work left
        after them at the current time and never chain.
        """
        fast = self._advance_fast
        if fast is not None:
            fast(core, thread)
            return
        if core.current is not thread:
            raise Message.FOREIGN_ADVANCE.error(thread=thread, core=core)
        engine = self.engine
        body = thread.body
        cycles_by_key = self.metrics.cycles
        trace = self.trace
        while True:
            try:
                op = next(body)
            except StopIteration:
                self._finish(core, thread)
                return
            if type(op) is not Compute and not isinstance(op, Compute):
                self._handle_slow_op(core, thread, op)
                return
            cycles = op.cycles
            if cycles < 0:
                raise Message.NEGATIVE_CYCLES.error(cycles=cycles)
            cycles_by_key[op.key] += cycles
            if trace is not None:
                context = thread.trace_ctx
                if context is not None:
                    now = engine.now
                    # The CycleKind member itself, not .value: the enum
                    # descriptor costs a Python call per event and the
                    # sink interns enum-or-str kinds identically.
                    trace.record_interval(
                        context, now, now + cycles,
                        op.functionality, op.leaf, op.kind,
                    )
            if chained:
                time = engine._now + cycles
                queue = engine._queue
                if (
                    time < engine._horizon
                    and (not queue or time < queue[0][0])
                    and engine._budget
                ):
                    engine._now = time
                    engine._budget -= 1
                    continue
            callback = thread.advance_callback
            if callback is None:  # direct _advance without _assign (tests)
                callback = thread.advance_callback = functools.partial(
                    self._advance, core, thread, True
                )
            engine.after(cycles, callback)
            return

    def _handle_slow_op(self, core: Core, thread: SimThread, op) -> None:
        """Advance past a non-Compute op: the blocking primitives.

        Split out of :meth:`_advance` so the compiled drain loop can run
        Compute chains natively and delegate only these (rare) ops back
        to the interpreter.
        """
        if isinstance(op, HoldCore):
            thread.state = ThreadState.BLOCKED_HOLD
            thread.block_started = self.engine.now
            thread.block_functionality = op.functionality
            thread.block_leaf = op.leaf
        elif isinstance(op, ReleaseCore):
            trace = self.trace
            if trace is not None:
                context = thread.trace_ctx
                if context is not None:
                    trace.mark_released(context, self.engine.now)
            thread.state = ThreadState.BLOCKED_RELEASED
            thread.resume_charge = op.resume_charge
            thread.core = None
            core.current = None
            self._dispatch(core)
        elif isinstance(op, YieldCore):
            thread.state = ThreadState.RUNNABLE
            thread.core = None
            core.current = None
            self.run_queue.append(thread)
            self._dispatch(core)
        else:
            raise SimulationError(f"unknown thread op: {op!r}")

    def _finish(self, core: Core, thread: SimThread) -> None:
        thread.state = ThreadState.DONE
        thread.core = None
        core.current = None
        for callback in self._on_thread_done:
            callback(thread)
        self._dispatch(core)

    def _dispatch(self, core: Core) -> None:
        if self.run_queue:
            self._assign(core, self.run_queue.popleft())
        else:
            core.idle_since = self.engine.now
