"""Golden digests of the exact floats the trace consumers compute.

The benchmark goldens and the trace CLI cannot see a last-digit change
in a per-key sum: the folded file rounds stack weights to integers, and
``trace`` prints attribution totals with ``%.0f`` / ``%.1f``.  This
module pins the ``repr`` of every
:func:`~repro.observability.attribute_requests` record (request id,
latency, components) and of every
:func:`~repro.observability.folded_stack_samples` ``(frames, cycles)``
pair, for the healthy cache1 trace, each faulted resilience cell and the
faulted run that batches four calls per doorbell -- the traces
``test_otlp_golden.py`` pins the OTLP bytes of -- and checks the
consumers' column sums against running per-key totals over interval
objects, float for float.

Regenerate ``tests/fixtures/consumer_digests.json`` only for an
intentional change of the attribution or flamegraph arithmetic::

    PYTHONPATH=src python tests/observability/test_consumer_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.observability import (
    TraceData,
    attribute_requests,
    folded_stack_samples,
)
from repro.observability.critical_path import component_key

try:
    from .conftest import DESIGNS, faulted_cells, healthy_characterization
    from .test_otlp_golden import faulted_batched_trace
except ImportError:  # run as a script to regenerate the fixture
    from conftest import DESIGNS, faulted_cells, healthy_characterization
    from test_otlp_golden import faulted_batched_trace

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "fixtures"
    / "consumer_digests.json"
)

NAMES = (
    "healthy-cache1",
    *(f"faulted-{design.value}" for design in DESIGNS),
    "faulted-batched",
)


def consumer_traces(healthy: TraceData, faulted: dict) -> dict:
    return {
        "healthy-cache1": healthy,
        **{
            f"faulted-{design.value}": faulted[design].trace
            for design in DESIGNS
        },
        "faulted-batched": faulted_batched_trace(),
    }


def consumer_digest(trace: TraceData) -> dict:
    """Counts and SHA-256 digests of both consumers' output reprs."""
    attributions = attribute_requests(trace)
    attribution = hashlib.sha256()
    for record in attributions:
        attribution.update(repr(
            (record.request_id, record.latency, record.components)
        ).encode())
        attribution.update(b"\n")
    samples = folded_stack_samples(trace)
    folded = hashlib.sha256()
    for sample in samples:
        folded.update(repr((sample.frames, sample.cycles)).encode())
        folded.update(b"\n")
    return {
        "requests": len(attributions),
        "attribution_sha256": attribution.hexdigest(),
        "stacks": len(samples),
        "folded_sha256": folded.hexdigest(),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def traces(healthy_trace, faulted_results):
    return consumer_traces(healthy_trace, faulted_results)


def test_fixture_covers_every_trace(traces):
    assert sorted(_golden()) == sorted(NAMES) == sorted(traces)


@pytest.mark.parametrize("name", NAMES)
def test_consumer_floats_match_golden(name, traces):
    digest = consumer_digest(traces[name])
    assert digest["requests"] and digest["stacks"], "empty consumer output"
    assert digest == _golden()[name]


def _running_totals(trace: TraceData):
    """The reference arithmetic: running per-key totals over interval
    objects, in row order, as the consumers computed them before the
    timelines held columns."""
    attributions = []
    for timeline in trace.completed_timelines():
        parts: dict = {}
        for item in timeline.intervals:
            key = component_key(
                (item.functionality, item.leaf, item.kind, item.tag)
            )
            parts[key] = parts.get(key, 0.0) + (item.end - item.start)
        attributions.append(tuple(sorted(parts.items())))
    stacks: dict = {}
    for timeline in trace.timelines:
        for item in timeline.intervals:
            marker = item.tag if item.tag is not None else item.kind
            leaf = item.leaf if marker == "useful" else f"{item.leaf} [{marker}]"
            frames = (trace.label, item.functionality, leaf)
            stacks[frames] = stacks.get(frames, 0.0) + (item.end - item.start)
    return attributions, sorted(stacks.items())


@pytest.mark.parametrize("name", NAMES)
def test_column_sums_equal_running_totals(name, traces):
    trace = traces[name]
    attributions, stacks = _running_totals(trace)
    assert [
        record.components[:-2] for record in attribute_requests(trace)
    ] == attributions
    assert [
        (sample.frames, sample.cycles) for sample in folded_stack_samples(trace)
    ] == stacks


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    traces = consumer_traces(
        healthy_characterization().simulation.trace, faulted_cells()
    )
    golden = {name: consumer_digest(traces[name]) for name in NAMES}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} traces to {FIXTURE}")
