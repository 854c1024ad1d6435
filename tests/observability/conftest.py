"""Shared traced runs for the observability suite.

Traced simulations are the expensive part of these tests, so the suite
shares a few module-of-record runs: one healthy characterization and one
faulted resilience cell per threading design.  Session scope is safe
because every consumer treats the traces as read-only data.
"""

from __future__ import annotations

import pytest

from repro.application.resilience import traced_resilience_run
from repro.characterization import characterize
from repro.core.strategies import ThreadingDesign

DESIGNS = (
    ThreadingDesign.SYNC,
    ThreadingDesign.SYNC_OS,
    ThreadingDesign.ASYNC,
)

#: Faulted-cell parameters: enough drops to exercise every recovery
#: path (retries, backoff gaps, CPU fallbacks) in a short window.
FAULTED = dict(
    drop_probability=0.3,
    timeout_cycles=2_000.0,
    backoff_base_cycles=500.0,
    window_cycles=2.0e6,
    seed=0,
)


def healthy_characterization():
    """One healthy traced characterization (cache1, small window)."""
    return characterize(
        "cache1", seed=2020, requests_target=30, num_cores=2, trace=True
    )


def faulted_cells():
    """One traced faulted resilience cell per threading design."""
    return {
        design: traced_resilience_run(design=design, **FAULTED)
        for design in DESIGNS
    }


@pytest.fixture(scope="session")
def traced_run():
    return healthy_characterization()


@pytest.fixture(scope="session")
def healthy_trace(traced_run):
    trace = traced_run.simulation.trace
    assert trace is not None
    return trace


@pytest.fixture(scope="session")
def faulted_results():
    return faulted_cells()
