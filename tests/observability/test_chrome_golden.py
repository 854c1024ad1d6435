"""Golden digests of the Chrome trace-event bytes.

``bench/golden.json`` pins the Chrome file of a feed2 run, which has no
offloads, faults or degradation windows, so nothing else would see a
change in the bytes of the flow arrows, the fault tracks or the outage
tracks.  This module pins the SHA-256 and the event count of the
simulator Chrome export for the traces ``test_otlp_golden.py`` pins the
OTLP bytes of (the healthy cache1 trace, each faulted resilience cell
and the faulted run that batches four calls per doorbell), the degraded
run whose device slows down and then goes dark, and the bytes
``repro telemetry --chrome-out`` writes for a small committed runtime
telemetry artifact.

Regenerate ``tests/fixtures/chrome_digests.json`` only for an
intentional change of the Chrome format::

    PYTHONPATH=src python tests/observability/test_chrome_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.observability import SpanTracer, export_chrome_trace

try:
    from .conftest import (
        DESIGNS,
        degraded_run,
        faulted_cells,
        healthy_characterization,
    )
    from .test_otlp_golden import faulted_batched_run
except ImportError:  # run as a script to regenerate the fixture
    from conftest import (
        DESIGNS,
        degraded_run,
        faulted_cells,
        healthy_characterization,
    )
    from test_otlp_golden import faulted_batched_run

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
FIXTURE = FIXTURES / "chrome_digests.json"
#: A ``resilience --drops 0.1 --timeouts 4000 --telemetry-out`` artifact.
RUNTIME_ARTIFACT = FIXTURES / "telemetry_resilience.json"

NAMES = (
    "healthy-cache1",
    *(f"faulted-{design.value}" for design in DESIGNS),
    "faulted-batched",
    "degraded",
)
RUNTIME = "runtime-telemetry"


def simulated_runs(healthy, faulted: dict) -> dict:
    """Each pinned run, as a ``(metrics, trace)`` pair."""
    runs = {
        "healthy-cache1": healthy,
        **{f"faulted-{design.value}": faulted[design] for design in DESIGNS},
        "faulted-batched": faulted_batched_run(),
        "degraded": degraded_run(SpanTracer(label="degraded")),
    }
    return {name: (run.metrics, run.trace) for name, run in runs.items()}


def _digest(data: bytes) -> dict:
    return {
        "events": len(json.loads(data)["traceEvents"]),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def chrome_digest(metrics, trace, directory: pathlib.Path) -> dict:
    path = export_chrome_trace(metrics, directory / "trace.json", trace=trace)
    return _digest(path.read_bytes())


def runtime_digest(directory: pathlib.Path) -> dict:
    """The digest of the file ``repro telemetry --chrome-out`` writes."""
    path = directory / "runtime.json"
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(["telemetry", str(RUNTIME_ARTIFACT),
                       "--chrome-out", str(path)])
    assert status == 0
    data = path.read_bytes()
    return {"bytes": len(data), **_digest(data)}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def runs(traced_run, faulted_results):
    return simulated_runs(traced_run.simulation, faulted_results)


def test_fixture_covers_every_trace(runs):
    assert sorted(_golden()) == sorted((*NAMES, RUNTIME))
    assert sorted(runs) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_chrome_bytes_match_golden(name, runs, tmp_path):
    assert chrome_digest(*runs[name], tmp_path) == _golden()[name]


def test_runtime_chrome_bytes_match_golden(tmp_path):
    assert runtime_digest(tmp_path) == _golden()[RUNTIME]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    runs = simulated_runs(
        healthy_characterization().simulation, faulted_cells()
    )
    with tempfile.TemporaryDirectory() as scratch:
        golden = {
            name: chrome_digest(*runs[name], pathlib.Path(scratch))
            for name in NAMES
        }
        golden[RUNTIME] = runtime_digest(pathlib.Path(scratch))
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {FIXTURE}")
