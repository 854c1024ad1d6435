"""Golden digests of the decoded trace itself.

The OTLP and consumer digests pin what the exporters and the attribution
arithmetic make of a trace; this module pins the trace they read: one
SHA-256 per scenario over the whole decoded
:class:`~repro.observability.TraceData` -- its label, every span's ids,
parent, name, kind, start, end and attributes, every timeline's header
and interval rows, and every degradation track.  Each value is spelled
with its type name, and floats exactly (``float.hex``), so a last-bit
change, an ``int`` turning into a ``float`` or a ``None`` turning into
``inf`` all move the digest.  The span, timeline, interval and track
counts sit next to each digest, so a failure says what moved.

These digests are the decode reference.  They were generated while an
object-per-span tracer, which allocated every span and interval as it
was recorded, still lived beside the ring tracer, and the ring decode
equalled that tracer's output on every scenario: cache1 on the bare
runner, a faulted resilience cell (``faulted-sync``: ``FAULTED`` with
the default design), the two-service topology run, the traces the OTLP
goldens pin, and a run whose device degrades and then goes dark.  The
busier five-service topology run (``topology-busy``) was checked against
that tracer the same way before it was added.  Topology runs record RPC
spans only: the application simulator does not trace its CPUs, so they
carry no timelines.

Regenerate ``tests/fixtures/trace_digests.json`` only for an intentional
change of what a traced run records::

    PYTHONPATH=src python tests/observability/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.observability import SpanTracer, TraceData

try:
    from . import test_otlp_golden
    from .conftest import (
        DESIGNS,
        busy_topology_trace,
        cache1_trace,
        degraded_trace,
        faulted_cells,
        healthy_characterization,
        topology_trace,
    )
except ImportError:  # run as a script to regenerate the fixture
    import test_otlp_golden
    from conftest import (
        DESIGNS,
        busy_topology_trace,
        cache1_trace,
        degraded_trace,
        faulted_cells,
        healthy_characterization,
        topology_trace,
    )

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "fixtures"
    / "trace_digests.json"
)

NAMES = (
    "cache1-run",
    "topology",
    "topology-busy",
    "healthy-cache1",
    *(f"faulted-{design.value}" for design in DESIGNS),
    "faulted-batched",
    "degraded",
)


def _spell(value) -> str:
    """One value as ``type:text``: floats in hex, the rest as ``repr``."""
    if isinstance(value, float):
        return f"{type(value).__name__}:{float.hex(value)}"
    return f"{type(value).__name__}:{value!r}"


def trace_digest(trace: TraceData) -> dict:
    """Counts and one SHA-256 over every decoded field of *trace*."""
    digest = hashlib.sha256()

    def row(*fields) -> None:
        digest.update(repr(fields).encode())
        digest.update(b"\n")

    row("label", trace.label)
    for span in trace.spans:
        row(
            "span", span.span_id, span.trace_id, _spell(span.parent_id),
            span.name, span.kind.value, _spell(span.start), _spell(span.end),
            *((key, _spell(value)) for key, value in span.attrs),
        )
    intervals = 0
    for timeline in trace.timelines:
        row(
            "timeline", _spell(timeline.request_id),
            _spell(timeline.started_at), _spell(timeline.body_end),
            _spell(timeline.completed_at), _spell(timeline.degraded),
        )
        for item in timeline.intervals:
            row(
                _spell(item.start), _spell(item.end), item.functionality,
                item.leaf, item.kind, _spell(item.tag),
            )
            intervals += 1
    for track in trace.degradations:
        row(
            "track", track.kernel,
            *(tuple(_spell(bound) for bound in window)
              for window in track.windows),
        )
    return {
        "spans": len(trace.spans),
        "timelines": len(trace.timelines),
        "intervals": intervals,
        "tracks": len(trace.degradations),
        "sha256": digest.hexdigest(),
    }


def digest_traces(healthy: TraceData, faulted: dict) -> dict:
    return {
        "cache1-run": cache1_trace(SpanTracer(label="run")),
        "topology": topology_trace(SpanTracer(label="topology")),
        "topology-busy": busy_topology_trace(
            SpanTracer(label="topology-busy")
        ),
        "healthy-cache1": healthy,
        **{
            f"faulted-{design.value}": faulted[design].trace
            for design in DESIGNS
        },
        "faulted-batched": test_otlp_golden.faulted_batched_trace(),
        "degraded": degraded_trace(SpanTracer(label="degraded")),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def traces(healthy_trace, faulted_results):
    return digest_traces(healthy_trace, faulted_results)


def test_fixture_covers_every_scenario(traces):
    assert sorted(_golden()) == sorted(NAMES) == sorted(traces)


@pytest.mark.parametrize("name", NAMES)
def test_decoded_trace_matches_golden(name, traces):
    digest = trace_digest(traces[name])
    assert digest["spans"], "empty trace"
    assert digest == _golden()[name]


def test_faulted_run_records_fault_tagged_work(traces):
    tags = {
        interval.tag
        for timeline in traces["faulted-sync"].timelines
        for interval in timeline.intervals
    }
    assert tags - {None}, "faulted run recorded no fault-tagged work"


def test_busy_topology_pins_deep_and_open_rpc_trees(traces):
    spans = traces["topology-busy"].spans
    parents = {span.span_id: span.parent_id for span in spans}

    def depth(span_id):
        parent = parents[span_id]
        return 1 if parent is None else 1 + depth(parent)

    assert sum(span.parent_id is None for span in spans) > 50
    assert max(depth(span.span_id) for span in spans) == 3
    assert any(span.end is None for span in spans)


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    traces = digest_traces(
        healthy_characterization().simulation.trace, faulted_cells()
    )
    golden = {name: trace_digest(traces[name]) for name in NAMES}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} traces to {FIXTURE}")
