"""Zero-observer-effect regression: tracing changes nothing simulated.

The fingerprints below were captured on the commit *before* the
observability layer landed.  Two contracts:

* observability off -> summaries hash to the exact pre-observability
  digests (tracing changed no default behaviour);
* observability on -> the *same* digests (the tracer is write-only: it
  never schedules events, never consumes RNG, and is excluded from the
  measurement record).
"""

from __future__ import annotations

import pytest

from repro.application.resilience import (
    run_resilience_point,
    traced_resilience_run,
)
from repro.characterization import characterize
from repro.core.strategies import ThreadingDesign

from .conftest import FAULTED

#: Pre-observability RunSummary fingerprints for
#: characterize("cache1", seed=2020, num_cores=2, requests_target=...).
PINNED = {
    30: "c216cf2c9587677255fda0b066d4589587991c47ccffb2ba6a1d5ff2e53549a2",
    50: "ff046a8373079b8ad0d32051f563e256b9b0cd9d4edec5bfbc896841fd79d7d6",
}


@pytest.mark.parametrize("requests_target", sorted(PINNED))
def test_untraced_fingerprints_match_pre_observability_pins(requests_target):
    run = characterize(
        "cache1", seed=2020, num_cores=2, requests_target=requests_target
    )
    assert run.simulation.trace is None
    assert run.simulation.fingerprint() == PINNED[requests_target]


@pytest.mark.parametrize("requests_target", sorted(PINNED))
def test_traced_fingerprints_match_the_same_pins(requests_target):
    run = characterize(
        "cache1", seed=2020, num_cores=2,
        requests_target=requests_target, trace=True,
    )
    assert run.simulation.trace is not None
    assert run.simulation.fingerprint() == PINNED[requests_target]


def test_tracing_does_not_perturb_the_fault_stream():
    """The traced resilience instrument replays the *identical* faulted
    run: same degraded completions, same goodput, as the untraced
    resilience point measured for the same cell."""
    point = run_resilience_point(
        drop_probability=FAULTED["drop_probability"],
        timeout_cycles=FAULTED["timeout_cycles"],
        backoff_base_cycles=FAULTED["backoff_base_cycles"],
        window_cycles=FAULTED["window_cycles"],
        seed=FAULTED["seed"],
    )
    traced = traced_resilience_run(**FAULTED)
    assert traced.trace is not None
    totals = traced.metrics.fault_totals()
    assert totals.retries == point.retries
    assert totals.fallbacks == point.fallbacks
    assert traced.goodput_fraction == point.goodput_fraction


def test_traced_resilience_run_is_deterministic():
    first = traced_resilience_run(**FAULTED)
    second = traced_resilience_run(**FAULTED)
    assert second.trace.spans == first.trace.spans
    assert second.trace.timelines == first.trace.timelines


def test_topology_measurements_identical_with_and_without_tracer():
    """Service-hop tracing in the application topology simulator must
    not move a single simulated measurement."""
    from repro.observability import SpanTracer, SpanKind
    from repro.topology import (
        ApplicationSimConfig,
        Call,
        CallGraph,
        ServiceNode,
        simulate_application,
    )

    graph = CallGraph(
        [ServiceNode("front", 10_000.0), ServiceNode("leaf", 5_000.0)],
        [Call("front", "leaf", network_cycles=1_000.0)],
        root="front",
    )
    config = ApplicationSimConfig(
        cores_per_service=4, arrivals_per_unit=300, window_cycles=6.0e7,
    )
    untraced = simulate_application(graph, config)
    tracer = SpanTracer(label="topology")
    traced = simulate_application(graph, config, tracer=tracer)

    assert traced.mean_latency_cycles == untraced.mean_latency_cycles
    assert traced.p99_latency_cycles == untraced.p99_latency_cycles
    assert traced.completed_requests == untraced.completed_requests
    assert (traced.per_service_busy_fraction
            == untraced.per_service_busy_fraction)
    assert untraced.trace is None
    rpc_spans = traced.trace.spans_of_kind(SpanKind.RPC)
    assert rpc_spans
    # Downstream hops carry their caller's span as parent.
    by_id = {span.span_id: span for span in traced.trace.spans}
    child_hops = [s for s in rpc_spans if s.parent_id is not None]
    assert child_hops
    for span in child_hops:
        assert by_id[span.parent_id].kind is SpanKind.RPC
