"""Behavioural contract suite for the shared device.

Three layers of evidence pin the multi-tenant accelerator:

* **Tenancy rule** -- a device with no tenants is the private eager
  device (``submit`` returns the completion time); any attached tenant,
  even one, runs deficit round robin (DRR): a port's ``submit`` returns
  ``nan``, each offload costs a dispatch event, and its spans name the
  tenant.
* **Device microbenchmarks** -- DRR is checked against static,
  pre-loaded backlogs where the fair share is exact: busy-cycle ratios
  track weights and conservation holds to the bit.
* **Closed loop** -- whole-service windows check the metamorphic
  contracts (adding a tenant never helps the others) and the sim-vs-model
  grid holds the repository's ~2% accuracy bar over tenants x weights x
  batch x drop-rate.
"""

import json
import math

import pytest

from repro.application.shared_device import (
    contention_case_study,
    contention_report,
    run_shared_device_point,
    shared_device_grid,
    shared_wait_profile,
)
from repro.core.strategies import Placement, ThreadingDesign
from repro.errors import ParameterError
from repro.faults import FaultInjector, FaultPolicy
from repro.observability import SpanKind, SpanTracer
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    AcceleratorDevice,
    Engine,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    SegmentWork,
    SimulationConfig,
    run_simulation,
)

_CB = 5.0
_GRANULARITY = 400.0
_HOST_CYCLES = _CB * _GRANULARITY  # 2000 host cycles per invocation


def _factory():
    kernel = KernelSpec("k", F.IO, L.SSL, cycles_per_byte=_CB)
    return RequestSpec(segments=(
        SegmentWork(F.APPLICATION_LOGIC, plain_cycles=6_000.0,
                    leaf_mix={L.C_LIBRARIES: 1.0}),
        SegmentWork(F.IO, invocations=(KernelInvocation(kernel, _GRANULARITY),)),
    ))


def _build(design=ThreadingDesign.ASYNC, batch_size=1, injector=None,
           via_port=False):
    """Service builder; ``via_port`` routes the offload through a
    single-tenant TenantPort instead of the device itself."""

    def build(engine, cpu, metrics):
        device = AcceleratorDevice(engine, 8.0, servers=2)
        target = device.attach("solo") if via_port else device
        offloads = {"k": OffloadConfig(
            device=target,
            interface=InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0),
            design=design, batch_size=batch_size, faults=injector,
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), _factory

    return build


def _run(build, window=4.0e5, tracer=None):
    config = SimulationConfig(num_cores=1, window_cycles=window)
    return run_simulation(build, config, tracer=tracer)


# ---------------------------------------------------------------------------
# Tenancy rule: no tenants is the private device, any tenant is DRR
# ---------------------------------------------------------------------------


class TestTenancyRule:
    def test_tenantless_submit_returns_completion_time(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        assert device.submit(100.0, arrival_time=10.0) == 10.0 + 25.0

    def test_one_tenant_submit_returns_nan(self):
        engine = Engine()
        port = AcceleratorDevice(engine, 4.0).attach("solo")
        assert math.isnan(port.submit(100.0, arrival_time=10.0))

    def test_one_tenant_offloads_drain_through_dispatch_events(self):
        """Ten back-to-back offloads on a one-tenant port take three
        events each: the arrival's dispatch, the completion callback and
        the completion's dispatch (the eager device takes two)."""
        engine = Engine()
        port = AcceleratorDevice(engine, 4.0).attach("solo")
        accepted, completed = [], []
        for _ in range(10):
            port.submit(100.0, arrival_time=0.0, on_accept=accepted.append,
                        on_complete=completed.append)
        engine.run_until(1.0e4)
        assert engine.events_processed == 30
        assert completed == [25.0 * k for k in range(1, 11)]
        assert accepted == [25.0 * k for k in range(10)]

    def test_one_tenant_offload_spans_name_the_tenant(self):
        result = _run(_build(via_port=True), tracer=SpanTracer(label="x"))
        offloads = result.trace.spans_of_kind(SpanKind.OFFLOAD)
        assert offloads
        assert all(("tenant", "solo") in span.attrs for span in offloads)

    @pytest.mark.parametrize("options", [
        {"design": ThreadingDesign.SYNC},
        {"design": ThreadingDesign.ASYNC},
        {"batch_size": 4},
        {"injector": "faulty"},
    ], ids=["sync", "async", "batched", "faulty"])
    def test_one_tenant_measures_like_private_device(self, options):
        """FIFO DRR over one tenant serves offloads in the eager device's
        order at its instants: only the dispatch events differ."""

        def build(via_port):
            kwargs = dict(options)
            if kwargs.get("injector") == "faulty":
                policy = FaultPolicy(drop_probability=0.2,
                                     timeout_cycles=500.0, max_retries=1)
                kwargs["injector"] = FaultInjector(policy, seed=3)
            return _build(via_port=via_port, **kwargs)

        private = _run(build(via_port=False))
        ported = _run(build(via_port=True))
        assert ported.metrics.offloads == private.metrics.offloads
        assert ported.metrics.requests == private.metrics.requests
        private_record = private.measurement_record()
        ported_record = ported.measurement_record()
        assert (ported_record.pop("events_processed")
                > private_record.pop("events_processed"))
        assert ported_record == private_record

    def test_new_device_has_no_tenants(self):
        engine = Engine()
        assert AcceleratorDevice(engine, 4.0).tenants == ()

    def test_port_error_strings_match_private_device(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 8.0)
        with pytest.raises(ParameterError) as private_error:
            device.submit(100.0, arrival_time=-1.0)
        engine2 = Engine()
        port = AcceleratorDevice(engine2, 8.0).attach("solo")
        with pytest.raises(ParameterError) as ported_error:
            port.submit(100.0, arrival_time=-1.0)
        assert str(ported_error.value) == str(private_error.value)


# ---------------------------------------------------------------------------
# Tenancy surface
# ---------------------------------------------------------------------------


class TestTenancySurface:
    def test_attach_order_is_scan_order(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        device.attach("b")
        device.attach("a")
        assert device.tenants == ("b", "a")

    def test_duplicate_tenant_rejected(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        device.attach("t")
        with pytest.raises(ParameterError, match="already attached"):
            device.attach("t")

    def test_nonpositive_weight_rejected(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        with pytest.raises(ParameterError, match="weight"):
            device.attach("t", weight=0.0)

    def test_unknown_tenant_stats_rejected(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        with pytest.raises(ParameterError, match="unknown tenant"):
            device.tenant_stats("ghost")


# ---------------------------------------------------------------------------
# DRR microbenchmarks: static backlogs make the fair share exact
# ---------------------------------------------------------------------------


def _drain_backlog(weights, jobs_per_tenant=400, host_cycles=8_000.0,
                   servers=1, run_cycles=6.0e5):
    """Pre-load every tenant with an identical backlog at t=0 and let the
    DRR scheduler drain it for *run_cycles*; returns (device, ports)."""
    engine = Engine()
    device = AcceleratorDevice(engine, 4.0, servers=servers)
    ports = [device.attach(f"t{i}", weight=w) for i, w in enumerate(weights)]
    for port in ports:
        for _ in range(jobs_per_tenant):
            port.submit(host_cycles, arrival_time=0.0)
    engine.run_until(run_cycles)
    return device, ports


class TestDeficitRoundRobin:
    def test_weighted_share_tracks_weight(self):
        device, ports = _drain_backlog(weights=(1.0, 4.0))
        ratio = ports[1].stats.busy_cycles / ports[0].stats.busy_cycles
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_equal_weights_split_evenly(self):
        device, ports = _drain_backlog(weights=(1.0, 1.0, 1.0))
        busy = [port.stats.busy_cycles for port in ports]
        assert max(busy) == pytest.approx(min(busy), rel=0.05)

    def test_share_is_monotone_in_weight(self):
        device, ports = _drain_backlog(weights=(1.0, 2.0, 4.0))
        busy = [port.stats.busy_cycles for port in ports]
        assert busy[0] < busy[1] < busy[2]

    def test_conservation_is_exact(self):
        """Summed tenant ledgers equal the device ledger to the bit."""
        device, ports = _drain_backlog(weights=(1.0, 3.0))
        assert (sum(port.stats.busy_cycles for port in ports)
                == device.stats.busy_cycles)
        assert (sum(port.stats.offloads_served for port in ports)
                == device.stats.offloads_served)
        assert (sum(port.stats.total_queue_cycles for port in ports)
                == device.stats.total_queue_cycles)

    def test_work_conserving_under_backlog(self):
        """With work always pending, the engine never idles."""
        device, _ = _drain_backlog(weights=(1.0, 2.0), run_cycles=4.0e5)
        assert device.utilization(4.0e5) == pytest.approx(1.0, rel=0.01)

    def test_fifo_within_tenant(self):
        engine = Engine()
        port = AcceleratorDevice(engine, 4.0).attach("t0")
        completions = []
        for tag in range(5):
            port.submit(
                8_000.0, arrival_time=0.0,
                on_complete=lambda at, tag=tag: completions.append((tag, at)),
            )
        engine.run_until(1.0e5)
        assert [tag for tag, _ in completions] == [0, 1, 2, 3, 4]
        assert completions == sorted(completions, key=lambda item: item[1])

    def test_pending_offloads_counts_queued_work(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        port = device.attach("t0")
        for _ in range(3):
            port.submit(8_000.0, arrival_time=0.0)
        assert device.pending_offloads() == 3
        engine.run_until(1.0e5)
        assert device.pending_offloads() == 0


# ---------------------------------------------------------------------------
# Closed-loop metamorphic contracts
# ---------------------------------------------------------------------------


class TestClosedLoopMetamorphic:
    def test_adding_a_tenant_never_decreases_waits(self):
        """A contended device serving one more tenant cannot make the
        incumbent tenants' mean queueing delay go down."""
        waits = {}
        for tenants in (1, 2, 3):
            profile = shared_wait_profile(
                tenants=tenants, window_cycles=4.0e6, accel_speedup=4.0)
            waits[tenants] = [run.mean_queue_cycles for run in profile.tenants]
        assert waits[2][0] >= waits[1][0]
        assert waits[3][0] >= waits[2][0]
        assert waits[3][1] >= waits[2][1]

    def test_closed_loop_conservation(self):
        profile = shared_wait_profile(tenants=3, window_cycles=2.0e6)
        assert (sum(run.busy_cycles for run in profile.tenants)
                == profile.device_busy_cycles)
        assert (sum(run.offloads_served for run in profile.tenants)
                == profile.device_offloads_served)

    def test_profile_is_deterministic(self):
        first = shared_wait_profile(tenants=2, window_cycles=2.0e6)
        second = shared_wait_profile(tenants=2, window_cycles=2.0e6)
        assert first == second


# ---------------------------------------------------------------------------
# Sim-vs-model accuracy grid
# ---------------------------------------------------------------------------


class TestSimVsModel:
    def test_single_tenant_unbatched_cell_meets_contract(self):
        point = run_shared_device_point(tenants=1, batch_size=1)
        assert point.error_pct < 2.0
        assert point.attempts == 0 and point.drops == 0

    def test_batched_faulty_cell_meets_contract(self):
        point = run_shared_device_point(
            tenants=2, batch_size=4, drop_probability=0.1)
        assert point.error_pct < 2.0
        assert point.attempts > 0
        assert point.drops > 0

    def test_spikes_alone_reach_the_tenants_injectors(self):
        point = run_shared_device_point(
            tenants=1, batch_size=4, spike_probability=0.2,
            spike_cycles=1_000.0, window_cycles=2.0e6)
        assert point.attempts > 0
        assert point.drops == 0

    def test_grid_meets_contract(self):
        grid = shared_device_grid(
            tenant_counts=(1, 2),
            weights=(1.0,),
            batch_sizes=(1, 4),
            drop_probabilities=(0.0, 0.1),
            window_cycles=8.0e6,
        )
        assert len(grid.points) == 8
        assert grid.max_error_pct < 2.0
        assert grid.mean_error_pct <= grid.max_error_pct
        assert grid.worst_point() in grid.points

    def test_grid_rejects_empty_axis(self):
        with pytest.raises(ParameterError, match="axes"):
            shared_device_grid(tenant_counts=())


# ---------------------------------------------------------------------------
# Contention case study (the CI artifact)
# ---------------------------------------------------------------------------


class TestContentionStudy:
    def test_saturation_erodes_the_speedup(self):
        rows = contention_case_study(tenant_counts=(1, 8))
        light, heavy = rows
        assert light.erosion_pct < 2.0
        assert heavy.erosion_pct > 20.0
        assert heavy.device_utilization > 0.9
        assert heavy.mean_queue_cycles > light.mean_queue_cycles
        assert heavy.shared_speedup < light.shared_speedup

    def test_report_is_json_ready(self):
        rows = contention_case_study(tenant_counts=(1,), window_cycles=2.0e6)
        report = contention_report(rows)
        assert report["study"] == "shared-device-contention"
        payload = json.loads(json.dumps(report, sort_keys=True))
        assert len(payload["rows"]) == 1
        assert set(payload["rows"][0]) == {
            "tenants", "private_speedup", "shared_speedup", "erosion_pct",
            "device_utilization", "mean_queue_cycles",
        }


# ---------------------------------------------------------------------------
# Fault-stream entropy alignment
# ---------------------------------------------------------------------------


class TestFaultStreamAlignment:
    def test_unbatched_run_draws_once_per_attempt(self):
        injector = FaultInjector(
            FaultPolicy(spike_probability=0.3, spike_cycles=200.0),
            seed=7)
        result = _run(_build(injector=injector))
        totals = result.metrics.fault_totals()
        assert totals.attempts > 0
        assert injector.draws == totals.attempts

    def test_batched_attempt_draws_once_per_buffered_item(self):
        """One doorbell over B invocations consumes exactly B draws, so
        batched and unbatched runs stay aligned on the entropy stream."""
        injector = FaultInjector(
            FaultPolicy(spike_probability=0.3, spike_cycles=200.0),
            seed=7)
        result = _run(_build(batch_size=4, injector=injector))
        totals = result.metrics.fault_totals()
        assert totals.attempts > 0
        assert injector.draws == 4 * totals.attempts

    def test_batched_faulty_run_is_deterministic(self):
        def fingerprint():
            injector = FaultInjector(
                FaultPolicy(drop_probability=0.1, timeout_cycles=500.0,
                            max_retries=2), seed=11)
            return _run(_build(batch_size=4, injector=injector)).fingerprint()

        assert fingerprint() == fingerprint()
