"""Differential & behavioural contract suite for the shared device.

Three layers of evidence pin the multi-tenant accelerator:

* **Differential** -- a single tenant routed through a
  :class:`~repro.simulator.TenantPort` must be *bit-identical* to the
  private-device era: same fingerprints, same decoded traces, same error
  strings.  The shared scheduler may not perturb validated artifacts.
* **Device microbenchmarks** -- deficit round robin is checked against
  static, pre-loaded backlogs where the fair share is exact: busy-cycle
  ratios track weights, conservation holds to the bit, and the pipelined
  DMA stage overlaps transfers with compute at hand-computable instants.
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
from repro.observability import SpanTracer
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    AcceleratorDevice,
    DeviceConfig,
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
# Differential: tenants=1 is the legacy private device, bit for bit
# ---------------------------------------------------------------------------


class TestSingleTenantBitIdentity:
    @pytest.mark.parametrize("design", [ThreadingDesign.SYNC,
                                        ThreadingDesign.ASYNC])
    def test_port_run_fingerprint_matches_private_device(self, design):
        private = _run(_build(design=design))
        ported = _run(_build(design=design, via_port=True))
        assert (ported.summarize().fingerprint()
                == private.summarize().fingerprint())

    def test_port_traced_run_decodes_identical_trace(self):
        private = _run(_build(), tracer=SpanTracer(label="x"))
        ported = _run(_build(via_port=True), tracer=SpanTracer(label="x"))
        assert (ported.summarize().fingerprint()
                == private.summarize().fingerprint())
        assert ported.trace == private.trace

    def test_port_run_with_faults_matches_private_device(self):
        policy = FaultPolicy(drop_probability=0.2, timeout_cycles=500.0,
                             max_retries=1)
        private = _run(_build(injector=FaultInjector(policy, seed=3)))
        ported = _run(_build(injector=FaultInjector(policy, seed=3),
                             via_port=True))
        assert (ported.summarize().fingerprint()
                == private.summarize().fingerprint())

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

    def test_single_tenant_port_returns_real_completion_time(self):
        engine = Engine()
        port = AcceleratorDevice(engine, 4.0).attach("solo")
        assert port.submit(100.0, arrival_time=10.0) == 10.0 + 25.0

    def test_single_tenant_port_label_is_empty(self):
        """Span attribution must not change for tenants=1 traces."""
        engine = Engine()
        port = AcceleratorDevice(engine, 4.0).attach("solo")
        assert port.tenant_label == ""
        assert port.tenant == "solo"


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

    def test_bad_quantum_rejected(self):
        with pytest.raises(ParameterError, match="quantum_cycles"):
            DeviceConfig(quantum_cycles=0.0)

    def test_default_config_is_legacy(self):
        engine = Engine()
        device = AcceleratorDevice(engine, 4.0)
        assert device.config == DeviceConfig()
        assert device.tenants == ()


# ---------------------------------------------------------------------------
# DRR microbenchmarks: static backlogs make the fair share exact
# ---------------------------------------------------------------------------


def _drain_backlog(weights, jobs_per_tenant=400, host_cycles=8_000.0,
                   servers=1, quantum=1_000.0, run_cycles=6.0e5,
                   pipelined=False, transfer_cycles=0.0):
    """Pre-load every tenant with an identical backlog at t=0 and let the
    shared scheduler drain it for *run_cycles*; returns (device, ports)."""
    engine = Engine()
    device = AcceleratorDevice(
        engine, 4.0, servers=servers,
        config=DeviceConfig(quantum_cycles=quantum, pipelined=pipelined,
                            always_shared=True),
    )
    ports = [device.attach(f"t{i}", weight=w) for i, w in enumerate(weights)]
    for port in ports:
        for _ in range(jobs_per_tenant):
            port.submit(host_cycles, arrival_time=0.0,
                        transfer_cycles=transfer_cycles)
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
        device = AcceleratorDevice(
            engine, 4.0, config=DeviceConfig(always_shared=True))
        port = device.attach("t0")
        device.attach("t1")  # second tenant keeps shared mode honest
        completions = []
        for tag in range(5):
            port.submit(
                8_000.0, arrival_time=0.0,
                on_complete=lambda at, tag=tag: completions.append((tag, at)),
            )
        engine.run_until(1.0e5)
        assert [tag for tag, _ in completions] == [0, 1, 2, 3, 4]
        assert completions == sorted(completions, key=lambda item: item[1])

    def test_shared_submit_returns_nan(self):
        engine = Engine()
        device = AcceleratorDevice(
            engine, 4.0, config=DeviceConfig(always_shared=True))
        port = device.attach("t0")
        assert math.isnan(port.submit(100.0, arrival_time=0.0))

    def test_pending_offloads_counts_queued_work(self):
        engine = Engine()
        device = AcceleratorDevice(
            engine, 4.0, config=DeviceConfig(always_shared=True))
        port = device.attach("t0")
        for _ in range(3):
            port.submit(8_000.0, arrival_time=0.0)
        assert device.pending_offloads() == 3
        engine.run_until(1.0e5)
        assert device.pending_offloads() == 0


class TestPipelinedDma:
    def test_transfers_serialize_while_compute_overlaps(self):
        """With a dedicated DMA stage, job k reaches the engines at
        ``(k+1) * transfer`` and computes in parallel with later DMAs."""
        engine = Engine()
        device = AcceleratorDevice(
            engine, 4.0, servers=2,
            config=DeviceConfig(pipelined=True, always_shared=True),
        )
        port = device.attach("t0")
        completions = []
        for _ in range(2):
            port.submit(200.0, arrival_time=0.0,  # 50 service cycles
                        on_complete=completions.append,
                        transfer_cycles=100.0)
        engine.run_until(1.0e4)
        assert completions == [150.0, 250.0]

    def test_unpipelined_config_ignores_transfer_stage(self):
        engine = Engine()
        device = AcceleratorDevice(
            engine, 4.0, servers=2,
            config=DeviceConfig(pipelined=False, always_shared=True),
        )
        port = device.attach("t0")
        completions = []
        for _ in range(2):
            port.submit(200.0, arrival_time=0.0,
                        on_complete=completions.append,
                        transfer_cycles=100.0)
        engine.run_until(1.0e4)
        assert completions == [50.0, 50.0]


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
            return _run(_build(batch_size=4, injector=injector)) \
                .summarize().fingerprint()

        assert fingerprint() == fingerprint()
