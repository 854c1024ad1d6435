"""Golden digests of the OTLP span JSON bytes.

The benchmark and the CI determinism step cannot see a formatting
change: the benchmark hashes JSON artifacts in canonical form, and the
CI step diffs two runs of the same commit.  This module pins the exact
bytes :func:`~repro.observability.write_otlp_spans` writes for the
healthy cache1 trace, each faulted resilience cell, a faulted run that
batches four calls per doorbell, a runtime-telemetry shaped span tree, a synthetic trace of encoder edge cases, and an empty
trace.

Regenerate ``tests/fixtures/otlp_digests.json`` only for an intentional
change of the OTLP format::

    PYTHONPATH=src python tests/observability/test_otlp_golden.py
"""

from __future__ import annotations

import enum
import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.core import Placement, ThreadingDesign
from repro.faults import FaultInjector, FaultPolicy
from repro.observability import (
    Span,
    SpanKind,
    SpanTracer,
    TraceData,
    write_otlp_spans,
)
from repro.simulator import (
    AcceleratorDevice,
    InterfaceModel,
    Microservice,
    OffloadConfig,
    SimulationConfig,
    run_simulation,
)
from repro.validation.matrix import synthetic_request

try:
    from .conftest import DESIGNS, faulted_cells, healthy_characterization
except ImportError:  # run as a script to regenerate the fixture
    from conftest import DESIGNS, faulted_cells, healthy_characterization

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "fixtures"
    / "otlp_digests.json"
)

NAMES = (
    "healthy-cache1",
    *(f"faulted-{design.value}" for design in DESIGNS),
    "faulted-batched",
    "runtime-telemetry",
    "edge-cases",
    "empty",
)


class _Color(enum.Enum):
    RED = "red"


def faulted_batched_run():
    """A traced async run that rings one doorbell per four calls, with
    drops, latency spikes, backoff gaps and whole-batch CPU fallbacks."""
    factory, _ = synthetic_request(0.3)
    policy = FaultPolicy(
        drop_probability=0.3, spike_probability=0.1, spike_cycles=1_000.0,
        timeout_cycles=2_000.0, max_retries=2, backoff_base_cycles=500.0,
    )

    def build(engine, cpu, metrics):
        offloads = {"k": OffloadConfig(
            device=AcceleratorDevice(engine, 8.0, servers=2),
            interface=InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0),
            design=ThreadingDesign.ASYNC,
            batch_size=4,
            faults=FaultInjector(policy, seed=0),
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    return run_simulation(
        build, SimulationConfig(num_cores=2, window_cycles=2.0e6),
        tracer=SpanTracer(label="faulted-batched"),
    )


def faulted_batched_trace() -> TraceData:
    """The finished trace of :func:`faulted_batched_run`."""
    return faulted_batched_run().trace


def runtime_telemetry_trace() -> TraceData:
    """A batch > task > stage tree shaped like ``to_trace_data()``'s,
    with fixed float nanosecond stamps in place of wall-clock ones."""
    spans = []
    sequence = 0
    for batch in range(2):
        trace_id = f"{batch:032x}"
        batch_id = f"{sequence:016x}"
        sequence += 1
        base = batch * 0.0371234567
        spans.append(Span(
            span_id=batch_id, trace_id=trace_id, parent_id=None,
            name=f"batch[{batch}]", kind=SpanKind.BATCH,
            start=base * 1e9, end=(base + 0.0212345678) * 1e9,
        ))
        for task, outcome in enumerate(("executed", "cache-hit")):
            task_id = f"{sequence:016x}"
            sequence += 1
            begin = base + 0.000123456789 * (task + 1)
            spans.append(Span(
                span_id=task_id, trace_id=trace_id, parent_id=batch_id,
                name=f"characterize(cache{task + 1}, seed=2020)",
                kind=SpanKind.TASK, start=begin * 1e9,
                end=(begin + 0.00987654321) * 1e9,
                attrs=(
                    ("task.index", task),
                    ("task.key", f"{batch * 7 + task:064x}"),
                    ("task.outcome", outcome),
                    ("task.worker", "parent" if task else "worker-1"),
                ),
            ))
            for stage, name in enumerate(
                ("queue-wait", "cache-lookup", "simulate", "result-store")
            ):
                start = begin + stage * 0.0024691358
                spans.append(Span(
                    span_id=f"{sequence:016x}", trace_id=trace_id,
                    parent_id=task_id, name=name, kind=SpanKind.STAGE,
                    start=start * 1e9, end=(start + 0.0012345679) * 1e9,
                ))
                sequence += 1
    return TraceData(label="runtime", spans=tuple(spans), timelines=())


def edge_case_trace() -> TraceData:
    """Every value shape the encoder special-cases, in one trace."""
    values = (
        ("nan", float("nan")),
        ("inf", float("inf")),
        ("-inf", float("-inf")),
        ("neg-zero", -0.0),
        ("tiny", 1e-300),
        ("subnormal", 5e-324),
        ("huge", 10**30),
        ("negative", -7),
        ("flag", True),
        ("off", False),
        ("text", 'naïve ☃ "q" \\ \n\t\x00\x1f'),
        ("none", None),
        ("enum", _Color.RED),
        ("kéy \"quoted\"\n", 1.5),
    )
    spans = (
        Span(
            span_id="0000000000000001", trace_id="0" * 31 + "1",
            parent_id=None, name='request "0"\nline', kind=SpanKind.REQUEST,
            start=12.5, end=13.5, attrs=values,
        ),
        Span(
            span_id="0000000000000002", trace_id="0" * 31 + "1",
            parent_id="0000000000000001", name="offlöad",
            kind=SpanKind.OFFLOAD, start=1e15 + 0.25,
            attrs=(("attempt", 2),),
        ),
        Span(
            span_id="0000000000000003", trace_id="0" * 31 + "1",
            parent_id="0000000000000001", name="segment",
            kind=SpanKind.SEGMENT, start=7, end=None,
        ),
        Span(
            span_id="0000000000000004", trace_id="0" * 31 + "2",
            parent_id=None, name="hop", kind=SpanKind.RPC,
            start=0.0, end=2.5e-7,
        ),
        Span(
            span_id="0000000000000005", trace_id="0" * 31 + "2",
            parent_id="0000000000000004", name="ends-at-zero",
            kind=SpanKind.ATTEMPT, start=-3.5, end=0.0,
        ),
    )
    return TraceData(
        label='café-σ "svc"\n', spans=spans, timelines=()
    )


def golden_traces(healthy: TraceData, faulted: dict) -> dict:
    return {
        "healthy-cache1": healthy,
        **{
            f"faulted-{design.value}": faulted[design].trace
            for design in DESIGNS
        },
        "faulted-batched": faulted_batched_trace(),
        "runtime-telemetry": runtime_telemetry_trace(),
        "edge-cases": edge_case_trace(),
        "empty": TraceData(label="empty", spans=(), timelines=()),
    }


def otlp_digest(trace: TraceData, directory: pathlib.Path) -> dict:
    data = write_otlp_spans(trace, directory / "spans.json").read_bytes()
    return {
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def traces(healthy_trace, faulted_results):
    return golden_traces(healthy_trace, faulted_results)


def test_fixture_covers_every_trace(traces):
    assert sorted(_golden()) == sorted(NAMES) == sorted(traces)


@pytest.mark.parametrize("name", NAMES)
def test_otlp_bytes_match_golden(name, traces, tmp_path):
    assert otlp_digest(traces[name], tmp_path) == _golden()[name]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    traces = golden_traces(
        healthy_characterization().simulation.trace, faulted_cells()
    )
    with tempfile.TemporaryDirectory() as scratch:
        golden = {
            name: otlp_digest(traces[name], pathlib.Path(scratch))
            for name in NAMES
        }
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} traces to {FIXTURE}")
