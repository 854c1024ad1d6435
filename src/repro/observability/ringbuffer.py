"""Flat struct-of-arrays storage for the span tracer's hot path.

The tracer used to allocate a :class:`~repro.observability.Span` or
:class:`~repro.observability.Interval` object *per hook call*, which put
~1 dataclass construction on every simulated event and cost ~68% wall
(``BENCH_runtime.json`` v2).  This module replaces the hot-path storage
with append-only ring buffers of preallocated ``array('d')`` /
``array('q')`` columns -- one row per hook call, a handful of machine
words wide -- and a post-run decoder.  Record flat, decode later (the
Monarch pattern the windowed-metrics layer already follows).

Two buffers, because the two hook classes have very different rates:

* :class:`PyIntervalSink` -- the per-event interval stream (~1 append
  per simulated event).  Three columns: ``t0``, ``t1`` (``array('d')``)
  and a packed ``meta`` word (``array('q')``) holding the request
  context id and an interned attribution-key code
  (``ctx_id << CODE_BITS | code``).  Keys -- ``(functionality, leaf,
  kind, tag)`` tuples -- are interned by identity with a memoized
  last-key fast path, so the steady-state append is four pointer
  compares and three array stores.  When the optional compiled hot core
  is importable the tracer swaps this class for the C implementation in
  :mod:`repro.simulator._hotcore` (same API, same decode), and the
  compiled engine appends to it without re-entering the interpreter.
* :class:`SpanRing` -- the span stream (~0.1 appends per event:
  requests, segments, offloads, fault attempts, RPC hops).  Seven
  columns: an opcode, ``t0``/``t1`` timestamps, three packed integer
  operands, and one float operand (retry spike cycles).  A span "handle"
  is just the row index; open spans carry a NaN ``t1`` until their end
  is patched in.

Both buffers grow by doubling when an append crosses the preallocation
boundary, so capacity is a performance knob, never a correctness limit.

:func:`decode_spans` rebuilds the span objects.  :func:`decode_timelines`
builds no objects per interval: it groups the interval rows by request
and hands each :class:`~repro.observability.RequestTimeline` its slices
of the ``starts``/``ends``/``codes`` columns plus the trace's one decoded
key table.  ``tests/fixtures/trace_digests.json`` is the decode
reference: it pins every span field, and every timeline's header and
interval sequence, of healthy, faulted, degraded and topology runs.
Decoded span ids are the row index + 1 rendered through
:func:`~repro.observability.spans.span_id_from_sequence`: rows are
appended in hook-call order, so ids follow the order the hooks ran in.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

import numpy as np

from .spans import (
    RequestTimeline,
    Span,
    SpanKind,
    span_id_from_sequence,
    trace_id_from_request,
)

# -- packing layout ---------------------------------------------------------

#: Low bits of an interval ``meta`` word hold the interned key code; the
#: request context id lives above them.
CODE_BITS = 21
CODE_MASK = (1 << CODE_BITS) - 1

#: Ring capacity when the caller does not size the sink.  The build
#: script renders this and the two constants above into the compiled
#: sink's header (``SINK_*`` in ``_hotcore_contract.h``).
DEFAULT_SINK_CAPACITY = 16384

#: Span operand packing: interned-string ids and small counters are
#: 20-bit fields stacked in the ``c`` column.
FIELD_BITS = 20
FIELD_MASK = (1 << FIELD_BITS) - 1

#: Span opcodes (the ``op`` column).  One per SpanKind, in the same
#: order, so ``_SPAN_KINDS[op]`` decodes the kind.
OP_REQUEST = 0
OP_SEGMENT = 1
OP_OFFLOAD = 2
OP_ATTEMPT = 3
OP_BACKOFF = 4
OP_FALLBACK = 5
OP_RPC = 6

_SPAN_KINDS = (
    SpanKind.REQUEST,
    SpanKind.SEGMENT,
    SpanKind.OFFLOAD,
    SpanKind.ATTEMPT,
    SpanKind.BACKOFF,
    SpanKind.FALLBACK,
    SpanKind.RPC,
)

#: ``t1`` sentinel for a span that is still open (NaN != NaN).
OPEN = float("nan")


def _zeros_d(capacity: int) -> array:
    return array("d", bytes(8 * capacity))


def _zeros_q(capacity: int) -> array:
    return array("q", bytes(8 * capacity))


class SpanRing:
    """Append-only struct-of-arrays storage for span rows."""

    __slots__ = ("op", "t0", "t1", "a", "b", "c", "x", "n")

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(int(capacity), 2)
        self.op = _zeros_q(capacity)
        self.t0 = _zeros_d(capacity)
        self.t1 = _zeros_d(capacity)
        #: Packed integer operands; meaning depends on the opcode (see
        #: :func:`decode_spans`).
        self.a = _zeros_q(capacity)
        self.b = _zeros_q(capacity)
        self.c = _zeros_q(capacity)
        #: Float operand (ATTEMPT spike cycles; 0.0 elsewhere).
        self.x = _zeros_d(capacity)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def grow(self) -> None:
        """Double every column past the preallocation boundary."""
        for column in (self.op, self.t0, self.t1, self.a, self.b, self.c,
                       self.x):
            column.extend(column)

    def append(
        self,
        op: int,
        t0: float,
        a: int,
        b: int,
        c: int,
        t1: float = OPEN,
        x: float = 0.0,
    ) -> int:
        """Append one span row; returns its row index (the span handle)."""
        row = self.n
        if row == len(self.op):
            self.grow()
        self.op[row] = op
        self.t0[row] = t0
        self.t1[row] = t1
        self.a[row] = a
        self.b[row] = b
        self.c[row] = c
        self.x[row] = x
        self.n = row + 1
        return row

    def set_end(self, row: int, t1: float) -> None:
        self.t1[row] = t1


class PyIntervalSink:
    """Pure-Python interval columns: the compiled sink's fallback twin.

    ``record`` is the hottest tracer method in the repository (once per
    simulated Compute event), so it is written for the interpreter: a
    four-pointer memo for the attribution key, an ``IndexError``-guarded
    store instead of a bounds compare, and no allocation on the
    steady-state path.
    """

    __slots__ = (
        "_t0", "_t1", "_meta", "n",
        "_codes", "_keys",
        "_memo_f", "_memo_l", "_memo_k", "_memo_t", "_memo_code",
    )

    def __init__(self, capacity: int = DEFAULT_SINK_CAPACITY) -> None:
        capacity = max(int(capacity), 2)
        self._t0 = _zeros_d(capacity)
        self._t1 = _zeros_d(capacity)
        self._meta = _zeros_q(capacity)
        self.n = 0
        #: key tuple -> code, and the inverse table in code order.
        self._codes: dict = {}
        self._keys: List[Tuple[object, object, object, Optional[str]]] = []
        self._memo_f = self._memo_l = self._memo_k = None
        self._memo_t = ()
        self._memo_code = 0

    def __len__(self) -> int:
        return self.n

    def record(self, context, start, end, functionality, leaf, kind) -> None:
        """Append one attributed interval for *context*."""
        tag = context.tag
        if (
            kind is self._memo_k
            and functionality is self._memo_f
            and leaf is self._memo_l
            and tag is self._memo_t
        ):
            code = self._memo_code
        else:
            code = self._intern(functionality, leaf, kind, tag)
        i = self.n
        try:
            self._t0[i] = start
        except IndexError:
            self._grow()
            self._t0[i] = start
        self._t1[i] = end
        self._meta[i] = context.packed | code
        self.n = i + 1

    def _intern(self, functionality, leaf, kind, tag) -> int:
        key = (functionality, leaf, kind, tag)
        code = self._codes.get(key)
        if code is None:
            code = len(self._keys)
            if code > CODE_MASK:
                from ..simulator.hotcore import Message

                raise Message.CODE_SPACE_FULL.error()
            self._codes[key] = code
            self._keys.append(key)
        self._memo_f = functionality
        self._memo_l = leaf
        self._memo_k = kind
        self._memo_t = tag
        self._memo_code = code
        return code

    def _grow(self) -> None:
        self._t0.extend(self._t0)
        self._t1.extend(self._t1)
        self._meta.extend(self._meta)

    # -- decode interface (mirrored by the compiled sink) ------------------

    def keys(self) -> List[Tuple[object, object, object, Optional[str]]]:
        """The interned key table, in code order."""
        return list(self._keys)

    def snapshot(self):
        """The live columns, trimmed to the append count."""
        n = self.n
        return self._t0[:n], self._t1[:n], self._meta[:n]


def _decoded_keys(sink) -> Tuple[Tuple[str, str, str, Optional[str]], ...]:
    """Map interned key tuples to the string form Interval stores.

    Key components arrive as enums from the simulator hooks (their
    ``.value`` is the string) or as ready-made strings for the
    scheduler-side kinds (``hold-wait``, ``thread-switch``,
    ``release-wait``); the compiled engine records the ``CycleKind``
    enum itself instead of its value, so both spellings land on the
    same decoded string.
    """
    return tuple(
        (
            functionality.value,
            leaf.value,
            kind if isinstance(kind, str) else kind.value,
            tag,
        )
        for functionality, leaf, kind, tag in sink.keys()
    )


def decode_timelines(sink, contexts) -> Tuple[RequestTimeline, ...]:
    """Group the interval columns into per-request column slices.

    Intervals were appended in global simulated-time order; one stable
    sort by context id keeps each request's rows in that order.  Every
    timeline shares the one decoded key table.  The sink's snapshot is
    three buffers of native float64/float64/int64 -- ``array`` slices
    (pure sink) or ``bytes`` (compiled sink) -- that ``np.frombuffer``
    reads in place.
    """
    t0s, t1s, metas = sink.snapshot()
    meta = np.frombuffer(metas, dtype=np.int64)
    owners = meta >> CODE_BITS
    order = np.argsort(owners, kind="stable")
    starts = np.frombuffer(t0s, dtype=np.float64)[order]
    ends = np.frombuffer(t1s, dtype=np.float64)[order]
    codes = (meta & CODE_MASK)[order]
    for column in (starts, ends, codes):  # timelines share these as views
        column.flags.writeable = False
    bounds = np.cumsum(np.bincount(owners, minlength=len(contexts))).tolist()
    keys = _decoded_keys(sink)
    timelines = []
    begin = 0
    for context, end in zip(contexts, bounds):
        record = context.record
        timelines.append(RequestTimeline(
            record.request_id,
            record.started_at,
            context.body_end,
            record.completed_at,
            record.degraded,
            starts[begin:end],
            ends[begin:end],
            codes[begin:end],
            keys,
        ))
        begin = end
    return tuple(timelines)


def decode_spans(
    ring: SpanRing,
    contexts,
    offload_records,
    strings: List[str],
) -> Tuple[Span, ...]:
    """Rebuild the span tuple from the span columns.

    Row order is hook-call order, so span ids are row + 1 and the
    root-RPC trace counter can be replayed by scanning rows.
    """
    n = ring.n
    op_col, t0_col, t1_col = ring.op, ring.t0, ring.t1
    a_col, b_col, c_col, x_col = ring.a, ring.b, ring.c, ring.x
    span_ids = [span_id_from_sequence(row + 1) for row in range(n)]
    trace_ids: List[str] = [""] * n
    offloads = iter(offload_records)
    spans = []
    rpc_counter = 0
    for row in range(n):
        op = op_col[row]
        t1 = t1_col[row]
        end = None if t1 != t1 else t1
        parent_id: Optional[str]
        if op == OP_SEGMENT:
            context = contexts[a_col[row]]
            trace_id = trace_ids[context.row]
            parent_id = span_ids[context.row]
            label = strings[b_col[row]]
            name = f"segment/{label}"
            attrs: Tuple[Tuple[str, object], ...] = (("functionality", label),)
        elif op == OP_REQUEST:
            record = contexts[a_col[row]].record
            trace_id = trace_id_from_request(record.request_id)
            parent_id = None
            service = strings[b_col[row]]
            name = f"{service}/request"
            attrs = (("service", service), ("request_id", record.request_id))
        elif op == OP_OFFLOAD:
            context = contexts[a_col[row]]
            record = next(offloads)
            trace_id = trace_ids[context.row]
            parent_id = span_ids[b_col[row]]
            packed = c_col[row]
            attrs = (
                ("kernel", record.kernel),
                ("granularity_bytes", record.granularity),
                ("design", strings[packed & FIELD_MASK]),
            )
            batched = (packed >> FIELD_BITS) & FIELD_MASK
            if batched:
                attrs += (("batched_invocations", batched),)
            tenant_code = packed >> (2 * FIELD_BITS)
            if tenant_code:
                attrs += (("tenant", strings[tenant_code - 1]),)
            name = f"offload/{record.kernel}"
        elif op == OP_ATTEMPT:
            context = contexts[a_col[row]]
            trace_id = trace_ids[context.row]
            parent_id = span_ids[b_col[row]]
            packed = c_col[row]
            kernel = strings[packed & FIELD_MASK]
            attrs = (
                ("kernel", kernel),
                ("retry_index", (packed >> FIELD_BITS) & FIELD_MASK),
                ("outcome", strings[packed >> (2 * FIELD_BITS)]),
            )
            spike = x_col[row]
            if spike:
                attrs += (("spike_cycles", spike),)
            name = f"attempt/{kernel}"
        elif op == OP_BACKOFF:
            context = contexts[a_col[row]]
            trace_id = trace_ids[context.row]
            parent_id = span_ids[b_col[row]]
            kernel = strings[c_col[row]]
            name = f"backoff/{kernel}"
            attrs = (("kernel", kernel),)
        elif op == OP_FALLBACK:
            context = contexts[a_col[row]]
            trace_id = trace_ids[context.row]
            parent_id = span_ids[b_col[row]]
            packed = c_col[row]
            kernel = strings[packed & FIELD_MASK]
            name = f"fallback/{kernel}"
            attrs = (("kernel", kernel), ("to_cpu", bool(packed >> FIELD_BITS)))
        else:  # OP_RPC
            parent_row = b_col[row]
            if parent_row < 0:
                rpc_counter += 1
                trace_id = trace_id_from_request(rpc_counter)
                parent_id = None
            else:
                trace_id = trace_ids[parent_row]
                parent_id = span_ids[parent_row]
            service = strings[a_col[row]]
            name = f"rpc/{service}"
            attrs = (("service", service),)
        trace_ids[row] = trace_id
        spans.append(Span(
            span_ids[row], trace_id, parent_id, name,
            _SPAN_KINDS[op], t0_col[row], end, attrs,
        ))
    return tuple(spans)
