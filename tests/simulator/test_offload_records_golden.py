"""Golden digests of the per-offload record stream.

Run fingerprints hash events and cycle totals, not each
:class:`~repro.simulator.OffloadRecord`: a record whose ``queued_cycles``
or ``service_cycles`` went wrong can leave most fingerprints untouched.
This module pins every record's ``(kernel, granularity, dispatched_at,
queued_cycles, service_cycles, completed_at)``, each sink's fault
counters and degraded-request count, plus the engine's
``events_processed`` for the scenarios that drive the offload state
machines: the validation matrix (every threading design), faulty
resilience points (every design, with and without CPU fallback, batched
and not, with latency spikes and an outage window), the benchmark's
faulty shared-device batch point, the two Table-6 studies that offload,
and a Sync-OS device that does not wait for the driver ack.

Each scenario runs twice in one process; both runs must hash to the
fixture, so state leaking between runs (through cached ops, batch
buffers or handlers) fails here too.

Regenerate ``tests/fixtures/offload_records.json`` only for an
intentional, result-changing simulator change::

    PYTHONPATH=src python tests/simulator/test_offload_records_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.application.resilience import run_resilience_point
from repro.application.shared_device import (
    contention_case_study,
    run_shared_device_point,
)
from repro.core import Placement, ThreadingDesign
from repro.faults import (
    DegradationSchedule,
    DegradationWindow,
    FaultInjector,
    FaultPolicy,
)
from repro.simulator import (
    CPU,
    AcceleratorDevice,
    InterfaceModel,
    Microservice,
    OffloadConfig,
    ResponseHandler,
    SimulationConfig,
    run_simulation,
)
from repro.validation.case_studies import (
    simulate_aes_ni,
    simulate_cache3_encryption,
)
from repro.validation.matrix import synthetic_request, validate_cell

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "fixtures"
    / "offload_records.json"
)

_MATRIX_DESIGNS = (
    ThreadingDesign.SYNC,
    ThreadingDesign.SYNC_OS,
    ThreadingDesign.ASYNC,
    ThreadingDesign.ASYNC_DISTINCT_THREAD,
)


def _matrix_cell(design, alpha, latency):
    return lambda: validate_cell(design, alpha, latency, 300.0)


def _resilience(design):
    return lambda: run_resilience_point(
        drop_probability=0.2, timeout_cycles=2_000.0, design=design,
        backoff_base_cycles=500.0, seed=3,
    )


def _faulty(design, policy, batch_size=1, schedule=None):
    """An accelerated faulty run built here, reaching the designs, policy
    fields and outage schedules :func:`run_resilience_point` does not."""
    factory, _ = synthetic_request(0.3)
    distinct = design is ThreadingDesign.ASYNC_DISTINCT_THREAD

    def build(engine, cpu, metrics):
        device = AcceleratorDevice(engine, 8.0, servers=2)
        interface = InterfaceModel(
            Placement.OFF_CHIP, dispatch_cycles=30.0, transfer_base_cycles=200.0
        )
        offloads = {"k": OffloadConfig(
            device=device, interface=interface, design=design,
            thread_switch_cycles=300.0,
            response_handler=ResponseHandler(cpu, 300.0) if distinct else None,
            batch_size=batch_size,
            faults=FaultInjector(policy, seed=3, schedule=schedule),
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    config = SimulationConfig(
        num_cores=2,
        threads_per_core=3 if design is ThreadingDesign.SYNC_OS else 1,
        window_cycles=4.0e6,
    )
    return lambda: run_simulation(build, config)


_NO_FALLBACK = FaultPolicy(
    drop_probability=0.3, timeout_cycles=2_000.0, max_retries=1,
    fallback_to_cpu=False,
)

_SPIKY = FaultPolicy(
    drop_probability=0.05, spike_probability=0.2, spike_cycles=3_000.0,
    timeout_cycles=2_000.0, max_retries=2, backoff_base_cycles=500.0,
)

_OUTAGE = DegradationSchedule(windows=(DegradationWindow(1.0e6, 1.5e6),))


def _sync_os_without_ack():
    """Sync-OS to a remote device: the driver does not wait for the ack,
    so the thread switches away straight after the dispatch."""
    factory, _ = synthetic_request(0.3)

    def build(engine, cpu, metrics):
        device = AcceleratorDevice(
            engine, 8.0, placement=Placement.REMOTE, servers=2
        )
        interface = InterfaceModel(
            Placement.REMOTE, dispatch_cycles=30.0, transfer_base_cycles=500.0
        )
        offloads = {"k": OffloadConfig(
            device=device, interface=interface,
            design=ThreadingDesign.SYNC_OS, thread_switch_cycles=300.0,
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    config = SimulationConfig(
        num_cores=2, threads_per_core=3, window_cycles=4.0e6
    )
    run_simulation(build, config)


SCENARIOS = {
    **{
        f"matrix-{design.value}-{alpha:g}-{latency:g}": _matrix_cell(
            design, alpha, latency
        )
        for design in _MATRIX_DESIGNS
        for alpha in (0.1, 0.3, 0.6)
        for latency in (0.0, 500.0)
    },
    **{
        f"resilience-{design.value}": _resilience(design)
        for design in (
            ThreadingDesign.SYNC,
            ThreadingDesign.SYNC_OS,
            ThreadingDesign.ASYNC,
        )
    },
    "resilience-async-distinct-thread": _faulty(
        ThreadingDesign.ASYNC_DISTINCT_THREAD,
        FaultPolicy(
            drop_probability=0.2, timeout_cycles=2_000.0, max_retries=2,
            backoff_base_cycles=500.0,
        ),
    ),
    "no-fallback-sync": _faulty(ThreadingDesign.SYNC, _NO_FALLBACK),
    "no-fallback-batched": _faulty(
        ThreadingDesign.ASYNC, _NO_FALLBACK, batch_size=4
    ),
    "spike-outage-sync-os": _faulty(
        ThreadingDesign.SYNC_OS, _SPIKY, schedule=_OUTAGE
    ),
    "spike-outage-batched": _faulty(
        ThreadingDesign.ASYNC_DISTINCT_THREAD, _SPIKY, batch_size=4,
        schedule=_OUTAGE,
    ),
    "shared-device-batched-faulty": lambda: run_shared_device_point(
        tenants=4, batch_size=4, drop_probability=0.1, seed=0,
    ),
    "shared-device-single-tenant": lambda: run_shared_device_point(
        tenants=1,
    ),
    "contention-ladder": lambda: contention_case_study(
        tenant_counts=(1, 2, 4, 8),
    ),
    "table6-aes-ni": simulate_aes_ni,
    "table6-encryption": simulate_cache3_encryption,
    "sync-os-without-ack": _sync_os_without_ack,
}


def record_digest(run, monkeypatch) -> dict:
    """Run *run* and digest every finalized CPU's offload records, fault
    counters (by kernel) and degraded-request count.

    Every simulation closes its window with :meth:`CPU.finalize`, after
    which no event runs, so the records seen there are final.
    """
    lines = []
    finalize = CPU.finalize

    def recording_finalize(cpu, horizon):
        finalize(cpu, horizon)
        lines.append(f"events {cpu.engine.events_processed}")
        for record in cpu.metrics.offloads:
            lines.append(repr((
                record.kernel, record.granularity, record.dispatched_at,
                record.queued_cycles, record.service_cycles,
                record.completed_at,
            )))
        for kernel, counters in sorted(cpu.metrics.faults.items()):
            lines.append(f"faults {kernel} {dataclasses.astuple(counters)!r}")
        degraded = sum(record.degraded for record in cpu.metrics.requests)
        lines.append(f"degraded {degraded}")

    with monkeypatch.context() as patch:
        patch.setattr(CPU, "finalize", recording_finalize)
        run()
    text = "\n".join(lines).encode()
    return {
        "lines": len(lines),
        "sha256": hashlib.sha256(text).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario():
    assert sorted(_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_offload_record_stream_matches_golden(name, monkeypatch):
    expected = _golden()[name]
    first = record_digest(SCENARIOS[name], monkeypatch)
    second = record_digest(SCENARIOS[name], monkeypatch)
    assert first == expected
    assert second == expected


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    patcher = pytest.MonkeyPatch()
    golden = {
        name: record_digest(SCENARIOS[name], patcher)
        for name in sorted(SCENARIOS)
    }
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} scenarios to {FIXTURE}")
