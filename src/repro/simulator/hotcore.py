"""The separately importable DES hot core, with an optional C build.

Everything on the per-event critical path that does not depend on the
rest of the simulator lives here: :class:`PyEngine` (the calendar-queue
event engine and its inlined ``run_until`` drain loop) and
:class:`BlockSampler` (pre-sampled RNG blocks).  The module then selects
between this pure-Python implementation and the hand-written C extension
:mod:`repro._hotcore` (a drop-in engine plus a flat interval sink for
the tracer), governed by the ``REPRO_COMPILED`` environment variable:

* ``REPRO_COMPILED=auto`` (default) -- use the compiled core when the
  extension imports, fall back to pure Python silently otherwise.
* ``REPRO_COMPILED=0`` -- force pure Python even when the extension is
  built (the reference path for bit-identity diffs).
* ``REPRO_COMPILED=1`` -- require the compiled core; raise with build
  instructions when it is missing.

The two paths are *bit-identical by construction*: the C engine pops
events in the same ``(time, sequence)`` order, performs the same float
arithmetic in the same order, and inserts into the same dicts in the
same order, so ``serial == pool == cache == compiled`` holds for every
fingerprint.  ``tests/simulator/test_hotcore.py`` pins engine-level
parity and whole-run artifact equality; the CI matrix diffs artifacts
across ``REPRO_COMPILED=0`` and ``auto``.

Build the extension with ``python scripts/build_hotcore.py`` (or ``make
hotcore``); see ``docs/hotcore.md``.

The C core spells nothing its Python twins also spell: the names it
looks up or exposes, the modules it imports and the messages it raises
are rows of the contract table below, which the build script renders
into ``_hotcore_contract.h`` for the C source to include.

The environment read is deliberate, import-time-only configuration: it
selects *which of two bit-identical implementations* runs, so no
simulated value, cache key, or fingerprint can depend on it.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import os
import warnings
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ParameterError, SimulationError

Callback = Callable[[], None]


# -- the compiled core's contract --------------------------------------------


class Name(NamedTuple):
    """One name ``_hotcore.c`` spells, and the Python twins that own it.

    A twin is ``"module:qualname"`` or a bare module.  The name is an
    attribute of each twin, or, for a function twin, one of its
    parameters or string constants.  No twins: a C-only name.
    """

    text: str
    twins: Tuple[str, ...] = ()


#: The module the extension is built and imported as.
EXTENSION = "repro._hotcore"

#: Attribute names the C core interns at import and reads off objects.
ATTRIBUTES = (
    Name("current", ("repro.simulator.cpu:Core",)),
    Name("body", ("repro.simulator.cpu:SimThread",)),
    Name("trace_ctx", ("repro.simulator.cpu:SimThread",)),
    Name("cycles", ("repro.simulator.cpu:Compute",
                    "repro.simulator.metrics:MetricSink")),
    Name("key", ("repro.simulator.cpu:Compute",)),
    Name("Compute", ("repro.simulator.cpu",)),
    Name("trace", ("repro.simulator.cpu:CPU",)),
    Name("metrics", ("repro.simulator.cpu:CPU",)),
    Name("_handle_slow_op", ("repro.simulator.cpu:CPU",)),
    Name("_finish", ("repro.simulator.cpu:CPU",)),
    Name("record_interval", ("repro.observability.tracer:SpanTracer",)),
    Name("_sink", ("repro.observability.tracer:SpanTracer",)),
    Name("tag", ("repro.observability.tracer:TraceContext",)),
    Name("packed", ("repro.observability.tracer:TraceContext",)),
    Name("SimulationError", ("repro.errors",)),
)

#: Modules the C core imports.
MODULES = ("repro.simulator.cpu", "repro.errors")

#: Names the C core exposes: methods, getters, keyword arguments, types.
EXPOSED = (
    Name("record", ("repro.observability.ringbuffer:PyIntervalSink",)),
    Name("keys", ("repro.observability.ringbuffer:PyIntervalSink",)),
    Name("snapshot", ("repro.observability.ringbuffer:PyIntervalSink",)),
    Name("capacity",
         ("repro.observability.ringbuffer:PyIntervalSink.__init__",)),
    Name("at", ("repro.simulator.hotcore:PyEngine",)),
    Name("after", ("repro.simulator.hotcore:PyEngine",)),
    Name("step", ("repro.simulator.hotcore:PyEngine",)),
    Name("run_until", ("repro.simulator.hotcore:PyEngine",)),
    Name("run_to_completion", ("repro.simulator.hotcore:PyEngine",)),
    Name("drop_pending", ("repro.simulator.hotcore:PyEngine",)),
    Name("now", ("repro.simulator.hotcore:PyEngine",)),
    Name("events_processed", ("repro.simulator.hotcore:PyEngine",)),
    Name("pending_events", ("repro.simulator.hotcore:PyEngine",)),
    Name("horizon", ("repro.simulator.hotcore:PyEngine.run_until",)),
    Name("max_events", ("repro.simulator.hotcore:PyEngine.run_until",
                        "repro.simulator.hotcore:PyEngine.run_to_completion")),
    Name("bind_cpu", ("repro.simulator.cpu:CPU.__init__",)),
    Name("IntervalSink", ("repro.simulator.hotcore",)),
    Name("HotEngine", ("repro.simulator.hotcore",)),
    Name("BoundAdvance"),
)


class Message(enum.Enum):
    """Every message the C core raises, bar CPython's argument-count text.

    A row is ``(exception, template, twins)``.  Templates take
    ``str.format`` fields, which the header renders as ``%S`` (or as
    ``%<spec>`` for ``{field:<spec>}``); the twins are the Python
    functions that raise the same message.  No twins: a C-only guard.
    """

    FOREIGN_ADVANCE = (
        SimulationError, "{thread} advanced on foreign {core}",
        ("repro.simulator.cpu:CPU._advance",))
    NEGATIVE_CYCLES = (
        SimulationError, "cannot compute negative cycles: {cycles}",
        ("repro.simulator.cpu:CPU._advance",))
    PAST_EVENT = (
        SimulationError, "cannot schedule event in the past ({time} < {now})",
        ("repro.simulator.hotcore:PyEngine.at",))
    NEGATIVE_DELAY = (
        SimulationError, "delay must be non-negative, got {delay}",
        ("repro.simulator.hotcore:PyEngine.after",))
    PAST_HORIZON = (
        SimulationError, "horizon {horizon} is before current time {now}",
        ("repro.simulator.hotcore:PyEngine.run_until",))
    MAX_EVENTS = (
        SimulationError,
        "exceeded max_events = {max_events}; likely a zero-delay event loop",
        ("repro.simulator.hotcore:PyEngine.run_until",
         "repro.simulator.hotcore:PyEngine.run_to_completion"))
    MAX_EVENTS_DEFAULT = (
        SimulationError,
        "exceeded max_events = {max_events:lld}; "
        "likely a zero-delay event loop",
        ())
    CLEARED_BINDING = (SimulationError, "advance on a cleared binding", ())
    UNBOUND_ADVANCE = (SimulationError, "advance event without a binding", ())
    FOREIGN_SINK = (
        TypeError,
        "{hook}: HotEngine records only into the compiled IntervalSink, "
        "not {sink:.200s}",
        ())
    NOT_ITERATOR = (TypeError, "'{type:.200s}' object is not an iterator", ())
    CYCLES_NOT_DICT = (
        TypeError, "cpu.metrics.cycles must be a dict subclass", ())
    CODE_SPACE_FULL = (
        OverflowError, "interval attribution keys exceed the packed code space",
        ("repro.observability.ringbuffer:PyIntervalSink._intern",))

    def error(self, **fields: object) -> Exception:
        """The exception this message raises, formatted with *fields*."""
        exception, template, _ = self.value
        return exception(template.format(**fields))


class PyEngine:
    """A minimal, deterministic discrete-event engine (pure Python).

    Time is measured in *host cycles* (float), matching the
    Accelerometer model's cycle-denominated parameters.  Events are
    (time, sequence, callback) tuples in a heap; :meth:`run_until`
    drains them in order.  The drain loop is the hottest interpreted
    code in the repository, so it inlines the pop instead of delegating
    to :meth:`step` and hoists the heap and heappop into locals.

    Inside :meth:`run_until`, a compute that is provably the next event
    the loop would pop runs in place instead: ``CPU._advance`` checks it
    against the queue head, :attr:`_horizon` and :attr:`_budget`, so a
    thread's chain of short computes costs no heap round trip per step.
    """

    __slots__ = ("_now", "_sequence", "_queue", "_events_processed",
                 "_horizon", "_budget")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = itertools.count()
        self._queue: List[Tuple[float, int, Callback]] = []
        self._events_processed = 0
        #: In-place events must end strictly before this time; -inf
        #: outside :meth:`run_until`, so nothing runs in place there.
        self._horizon = -math.inf
        #: Events :meth:`run_until` may still process before its
        #: ``max_events`` guard trips, popped and in-place alike.  It
        #: starts negative without a guard, so it never reaches zero.
        self._budget = 0

    @property
    def now(self) -> float:
        """Current simulated time in host cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def at(self, time: float, callback: Callback) -> None:
        """Schedule *callback* at absolute simulated *time*."""
        if time < self._now:
            raise Message.PAST_EVENT.error(time=time, now=self._now)
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    def after(self, delay: float, callback: Callback) -> None:
        """Schedule *callback* after *delay* cycles."""
        if delay < 0:
            raise Message.NEGATIVE_DELAY.error(delay=delay)
        heapq.heappush(
            self._queue, (self._now + delay, next(self._sequence), callback)
        )

    def step(self) -> bool:
        """Process the next event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        self._now = time
        self._events_processed += 1
        callback()
        return True

    def run_until(self, horizon: float, max_events: Optional[int] = None) -> None:
        """Run events with time <= *horizon*.

        Events scheduled beyond the horizon stay queued; simulated time is
        advanced to the horizon afterwards so measurements cover exactly
        the requested window.  *max_events* is a runaway-simulation guard:
        strictly more than *max_events* events within the window raises.
        """
        if horizon < self._now:
            raise Message.PAST_HORIZON.error(horizon=horizon, now=self._now)
        queue = self._queue
        pop = heapq.heappop
        budget = max_events if max_events is not None else -1
        self._budget = budget
        self._horizon = horizon
        try:
            while queue and queue[0][0] <= horizon:
                left = self._budget
                if not left:
                    self._events_processed += budget
                    raise Message.MAX_EVENTS.error(max_events=max_events)
                time, _, callback = pop(queue)
                self._now = time
                self._budget = left - 1
                callback()
        finally:
            self._horizon = -math.inf
        self._events_processed += budget - self._budget
        self._now = horizon

    def drop_pending(self) -> None:
        """Discard every queued event without running it.

        Queued callbacks hold the run's threads and CPUs, which hold
        this engine: dropping them when a run ends leaves the engine a
        leaf that reference counting frees.  The clock and the event
        count stay as they are.
        """
        self._queue.clear()

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        """Drain every queued event (for finite workloads)."""
        processed = 0
        while self.step():
            processed += 1
            if processed > max_events:
                raise Message.MAX_EVENTS.error(max_events=max_events)


class BlockSampler:
    """Pre-sampled draws from one distribution of a shared generator.

    Vectorized numpy sampling (``rng.exponential(scale, size=n)``) draws
    the *same* values, bit for bit, as ``n`` sequential scalar calls on the
    same :class:`~numpy.random.Generator` -- so pulling a block up front
    and replaying it is stream-identical as long as draws from this
    distribution are not interleaved with other draws on the same
    generator.  This turns per-event RNG calls (the DES hot path's main
    Python-overhead source after the engine loop itself) into one
    amortized vectorized call per *block_size* events.
    """

    __slots__ = ("_draw", "_block_size", "_buffer", "_index")

    def __init__(
        self,
        draw: Callable[[int], np.ndarray],
        block_size: int = 1024,
    ) -> None:
        if block_size < 1:
            raise ParameterError("block_size must be >= 1")
        self._draw = draw
        self._block_size = block_size
        self._buffer: np.ndarray = np.empty(0)
        self._index = 0

    def next(self) -> float:
        """The next pre-sampled value."""
        if self._index >= len(self._buffer):
            self._buffer = self._draw(self._block_size)
            self._index = 0
        value = self._buffer[self._index]
        self._index += 1
        return float(value)

    def take(self, count: int) -> np.ndarray:
        """The next *count* pre-sampled values as an array.

        Draws the same values :meth:`next` called *count* times would.
        """
        if count < 0:
            raise ParameterError("count must be >= 0")
        buffer, index = self._buffer, self._index
        available = len(buffer) - index
        if count <= available:
            self._index = index + count
            return buffer[index : index + count].copy()
        # An exhausted buffer contributes nothing -- and the initial one
        # is an untyped float64 placeholder that would upcast integer
        # draws in the concatenation.
        parts = [buffer[index:]] if available else []
        remaining = count - available
        block_size = self._block_size
        while remaining > block_size:
            parts.append(self._draw(block_size))
            remaining -= block_size
        block = self._draw(block_size)
        parts.append(block[:remaining])
        self._buffer = block
        self._index = remaining
        return np.concatenate(parts)


# -- compiled-path selection -------------------------------------------------

def _requested_mode() -> str:
    """The ``REPRO_COMPILED`` setting, normalized to 0/1/auto."""
    raw = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    if raw in ("0", "false", "off", "no"):
        return "0"
    if raw in ("1", "true", "on", "yes"):
        return "1"
    return "auto"


_MODE = _requested_mode()
_IMPORT_ERROR: Optional[str] = None

if _MODE == "0":
    _ext = None
else:
    try:
        from .. import _hotcore as _ext
    except ImportError as exc:
        _ext = None
        _IMPORT_ERROR = str(exc)
        if _MODE == "1":
            raise SimulationError(
                "REPRO_COMPILED=1 but the compiled hot core failed to "
                f"import ({exc}); build it with "
                "`python scripts/build_hotcore.py` or unset REPRO_COMPILED"
            ) from exc

#: What the extension is compiled from, next to it in the package: the
#: C source and the header rendered from the contract table above.
COMPILE_INPUTS = ("_hotcore.c", "_hotcore_contract.h")


def extension_is_stale(
    ext_file: Optional[str], inputs: Optional[Tuple[str, ...]] = None
) -> bool:
    """True when a built extension predates one of its compile *inputs*
    (by default :data:`COMPILE_INPUTS` next to it).

    The build script compiles in place, so the ``.so`` sits next to its
    inputs and a plain mtime comparison is exact: an edited C file or a
    re-rendered header with an older binary means the importable kernel
    was compiled from source that no longer exists.  Unreadable mtimes
    (packaged installs, zipimport) count as fresh -- staleness detection
    is a development guard, not an import gate.
    """
    if not ext_file:
        return False
    if inputs is None:
        directory = os.path.dirname(ext_file)
        inputs = tuple(os.path.join(directory, name) for name in COMPILE_INPUTS)
    try:
        built = os.path.getmtime(ext_file)
    except OSError:
        return False
    for path in inputs:
        try:
            if built < os.path.getmtime(path):
                return True
        except OSError:
            continue
    return False


#: True when the importable extension was built from older compile
#: inputs than the ones on disk.  ``REPRO_COMPILED=auto`` would happily
#: select such a kernel, so the condition warns loudly below.
STALE = _ext is not None and extension_is_stale(
    getattr(_ext, "__file__", None)
)

if STALE:
    warnings.warn(
        "repro._hotcore was compiled from an older _hotcore.c or "
        "_hotcore_contract.h than the one on disk; the selected kernel "
        "may not match the source. "
        "Rebuild with `python scripts/build_hotcore.py` (or `make "
        "hotcore`), or set REPRO_COMPILED=0 to force the pure path.",
        RuntimeWarning,
        stacklevel=2,
    )

#: The compiled engine/sink classes, or None on the pure path.
HotEngine = getattr(_ext, "HotEngine", None)
IntervalSink = getattr(_ext, "IntervalSink", None)

#: True when simulations run on the compiled drain loop.
COMPILED = HotEngine is not None

#: The engine class every simulation constructs.
Engine = HotEngine if HotEngine is not None else PyEngine


def status() -> dict:
    """Which hot-core path this process runs, for benchmarks and CI logs."""
    return {
        "requested": _MODE,
        "compiled": COMPILED,
        "engine": Engine.__name__,
        "interval_sink": (
            "IntervalSink" if IntervalSink is not None else "PyIntervalSink"
        ),
        "import_error": _IMPORT_ERROR,
        "stale": STALE,
    }
