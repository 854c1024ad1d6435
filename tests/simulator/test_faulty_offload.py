"""Unit tests of the offload fault path in Microservice._run_offload.

Each test builds a tiny one-kernel service and drives it with a fault
regime chosen to make the expected accounting exact: certain drops,
certain spikes, outage windows, or a disabled injector that must leave
the run bit-identical to one with no injector at all.
"""

import pytest

from repro.core.strategies import Placement, ThreadingDesign
from repro.errors import SimulationError
from repro.faults import (
    DegradationSchedule,
    DegradationWindow,
    FaultInjector,
    FaultPolicy,
)
from repro.faults.policy import NO_FAULTS
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    AcceleratorDevice,
    CycleKind,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    ResponseHandler,
    SegmentWork,
    SimulationConfig,
    run_simulation,
)

_CB = 5.0
_GRANULARITY = 400.0
_HOST_CYCLES = _CB * _GRANULARITY  # 2000 cycles per invocation


def _factory():
    kernel = KernelSpec("k", F.IO, L.SSL, cycles_per_byte=_CB)
    return RequestSpec(segments=(
        SegmentWork(F.APPLICATION_LOGIC, plain_cycles=6_000.0,
                    leaf_mix={L.C_LIBRARIES: 1.0}),
        SegmentWork(F.IO, invocations=(KernelInvocation(kernel, _GRANULARITY),)),
    ))


def _build(design=ThreadingDesign.SYNC, injector=None, o1=0.0,
           dispatch=30.0, handler_switch=None):
    def build(engine, cpu, metrics):
        device = AcceleratorDevice(engine, 8.0, servers=2)
        interface = InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=dispatch)
        handler = (
            ResponseHandler(cpu, handler_switch if handler_switch is not None else o1)
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD else None
        )
        offloads = {"k": OffloadConfig(
            device=device, interface=interface, design=design,
            thread_switch_cycles=o1, response_handler=handler,
            faults=injector,
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), _factory

    return build


def _run(build, threads_per_core=1, window=4.0e5):
    config = SimulationConfig(num_cores=1, threads_per_core=threads_per_core,
                              window_cycles=window)
    return run_simulation(build, config)


class TestInactiveInjectorTransparency:
    def test_null_policy_run_is_bit_identical_to_no_injector(self):
        """An injector that can never fire must leave the whole
        measurement record -- and hence the fingerprint -- untouched."""
        without = _run(_build(injector=None))
        with_null = _run(_build(injector=FaultInjector(NO_FAULTS, seed=5)))
        assert with_null.fingerprint() == without.fingerprint()

    def test_null_policy_records_no_fault_counters(self):
        result = _run(_build(injector=FaultInjector(NO_FAULTS, seed=5)))
        assert result.metrics.faults == {}
        assert "faults" not in result.measurement_record()


class TestFallbackAccounting:
    def test_certain_drop_with_fallback_runs_kernel_on_host(self):
        policy = FaultPolicy(drop_probability=1.0, timeout_cycles=100.0,
                             max_retries=1)
        result = _run(_build(injector=FaultInjector(policy, seed=0)))
        totals = result.metrics.fault_totals()
        offloads = totals.fallbacks
        assert offloads > 0
        # Every offload: 2 attempts (initial + 1 retry), both drop.
        assert totals.attempts == 2 * offloads
        assert totals.drops == 2 * offloads
        assert totals.retries == offloads
        assert totals.lost_offloads == 0
        # Fallback re-runs the kernel on the host.
        assert totals.fallback_cycles == offloads * _HOST_CYCLES
        assert result.metrics.kernel_cycles["k"] == offloads * _HOST_CYCLES
        # Nothing ever reached the device.
        assert len(result.metrics.offloads) == 0
        # Every completed request is degraded: goodput collapses to zero.
        assert result.degraded_requests == result.completed_requests
        assert result.goodput_fraction == 0.0
        assert result.goodput == 0.0

    def test_certain_drop_without_fallback_loses_work(self):
        policy = FaultPolicy(drop_probability=1.0, timeout_cycles=100.0,
                             max_retries=0, fallback_to_cpu=False)
        result = _run(_build(injector=FaultInjector(policy, seed=0)))
        totals = result.metrics.fault_totals()
        assert totals.lost_offloads > 0
        assert totals.fallbacks == 0
        assert totals.fallback_cycles == 0.0
        assert result.metrics.kernel_cycles["k"] == 0.0
        assert result.degraded_requests == result.completed_requests

    def test_fault_counters_appear_in_measurement_record(self):
        policy = FaultPolicy(drop_probability=1.0, max_retries=0)
        result = _run(_build(injector=FaultInjector(policy, seed=0)))
        record = result.measurement_record()
        assert "faults" in record
        assert "degraded_requests" in record
        assert "goodput" in record


class TestTimeoutCost:
    def test_sync_timeout_blocks_the_core(self):
        """Certain drops with a timeout charge BLOCKED core cycles
        exactly timeout * drop count."""
        timeout = 500.0
        policy = FaultPolicy(drop_probability=1.0, timeout_cycles=timeout,
                             max_retries=0)
        result = _run(_build(injector=FaultInjector(policy, seed=0)))
        totals = result.metrics.fault_totals()
        blocked = result.metrics.total_cycles((CycleKind.BLOCKED,))
        assert blocked == pytest.approx(totals.drops * timeout)
        assert totals.timeout_cycles == pytest.approx(totals.drops * timeout)

    def test_sync_os_timeout_spent_off_core(self):
        """Sync-OS waits out the timeout released; the core runs another
        thread, so BLOCKED core time stays zero while the drop pays
        2 * o1 in thread switches."""
        o1 = 40.0
        policy = FaultPolicy(drop_probability=1.0, timeout_cycles=500.0,
                             max_retries=0)
        result = _run(
            _build(design=ThreadingDesign.SYNC_OS,
                   injector=FaultInjector(policy, seed=0), o1=o1),
            threads_per_core=2,
        )
        totals = result.metrics.fault_totals()
        switches = result.metrics.total_cycles((CycleKind.THREAD_SWITCH,))
        assert totals.drops > 0
        # The drop in flight when the window closes never gets its
        # switch-back charged, so allow one pair of switches of slack.
        assert abs(switches - totals.drops * 2.0 * o1) <= 2.0 * o1

    def test_sync_os_zero_timeout_still_pays_both_switches(self):
        o1 = 40.0
        policy = FaultPolicy(drop_probability=1.0, timeout_cycles=0.0,
                             max_retries=0)
        result = _run(
            _build(design=ThreadingDesign.SYNC_OS,
                   injector=FaultInjector(policy, seed=0), o1=o1),
            threads_per_core=2,
        )
        totals = result.metrics.fault_totals()
        switches = result.metrics.total_cycles((CycleKind.THREAD_SWITCH,))
        assert switches == pytest.approx(totals.drops * 2.0 * o1)

    def test_async_timeout_delays_response_not_core(self):
        """Async drops cost o0 + L of overhead per attempt; the timeout
        shifts the successful dispatch's device arrival instead of
        blocking a core."""
        policy = FaultPolicy(drop_probability=0.5, timeout_cycles=700.0,
                             max_retries=5)
        faulty = _run(_build(design=ThreadingDesign.ASYNC,
                             injector=FaultInjector(policy, seed=1)))
        blocked = faulty.metrics.total_cycles((CycleKind.BLOCKED,))
        assert blocked == 0.0
        totals = faulty.metrics.fault_totals()
        assert totals.drops > 0
        # Every surviving offload's response was pushed out by the
        # accumulated timeouts, visible as added mean latency vs healthy.
        healthy = _run(_build(design=ThreadingDesign.ASYNC))
        assert faulty.mean_latency_cycles > healthy.mean_latency_cycles


class TestSpikes:
    def test_sync_spikes_add_blocked_core_time(self):
        spike = 300.0
        policy = FaultPolicy(spike_probability=1.0, spike_cycles=spike)
        faulty = _run(_build(injector=FaultInjector(policy, seed=0)))
        healthy = _run(_build())
        totals = faulty.metrics.fault_totals()
        assert totals.latency_spikes == totals.attempts
        assert totals.spike_cycles == totals.attempts * spike
        extra_blocked = (
            faulty.metrics.total_cycles((CycleKind.BLOCKED,))
            - healthy.metrics.total_cycles((CycleKind.BLOCKED,))
        )
        assert extra_blocked == pytest.approx(
            totals.attempts * spike, rel=0.05
        )
        # A spiked attempt still succeeds: nothing degrades.
        assert faulty.degraded_requests == 0

    def test_spiked_offloads_still_reach_the_device(self):
        policy = FaultPolicy(spike_probability=1.0, spike_cycles=100.0)
        result = _run(_build(injector=FaultInjector(policy, seed=0)))
        assert len(result.metrics.offloads) > 0


class TestOutageWindows:
    def test_outage_forces_fallback_during_window(self):
        """A schedule-only injector (null policy) degrades exactly the
        offloads dispatched inside the outage."""
        window = DegradationWindow(0.0, 1.0e9)  # covers the whole run
        injector = FaultInjector(
            NO_FAULTS, seed=0,
            schedule=DegradationSchedule(windows=(window,)),
        )
        result = _run(_build(injector=injector))
        totals = result.metrics.fault_totals()
        assert totals.fallbacks > 0
        assert totals.drops == totals.attempts
        assert len(result.metrics.offloads) == 0

    def test_offloads_outside_outage_unaffected(self):
        window = DegradationWindow(0.0, 1.0)  # over before the first dispatch
        injector = FaultInjector(
            NO_FAULTS, seed=0,
            schedule=DegradationSchedule(windows=(window,)),
        )
        with_window = _run(_build(injector=injector))
        totals = with_window.metrics.fault_totals()
        assert totals.drops == 0
        assert totals.fallbacks == 0
        healthy = _run(_build())
        assert with_window.completed_requests == healthy.completed_requests


class TestBackoff:
    def test_backoff_cycles_charged_as_blocked(self):
        backoff = 250.0
        policy = FaultPolicy(drop_probability=1.0, timeout_cycles=0.0,
                             max_retries=2, backoff_base_cycles=backoff,
                             backoff_multiplier=2.0)
        result = _run(_build(injector=FaultInjector(policy, seed=0)))
        totals = result.metrics.fault_totals()
        # Each offload: backoff before retry 1 (250) and retry 2 (500).
        assert totals.backoff_cycles == pytest.approx(
            totals.fallbacks * (backoff + 2.0 * backoff)
        )
        blocked = result.metrics.total_cycles((CycleKind.BLOCKED,))
        assert blocked == pytest.approx(totals.backoff_cycles)


class TestConfigValidation:
    def test_faults_compose_with_batched_offload(self):
        """Regression for the lifted refusal: fault injection used to
        raise ``SimulationError("fault injection is per-dispatch and
        cannot be combined with batched offload (batch_size > 1)")``.
        Doorbell-level adjudication superseded it -- the combination must
        now construct, run, and be seed-deterministic."""

        def build(engine, cpu, metrics):
            device = AcceleratorDevice(engine, 8.0, servers=2)
            interface = InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=30.0)
            offloads = {"k": OffloadConfig(
                device=device, interface=interface,
                design=ThreadingDesign.ASYNC, batch_size=4,
                faults=FaultInjector(FaultPolicy(drop_probability=0.1), seed=0),
            )}
            return Microservice(engine, cpu, metrics, offloads=offloads), _factory

        first = _run(build)
        totals = first.metrics.fault_totals()
        assert totals.attempts > 0
        assert totals.drops > 0  # p=0.1 over many doorbells must fire
        second = _run(build)
        assert first.fingerprint() == second.fingerprint()

    def test_batched_sync_still_refused(self):
        """The *sync* refusal is unchanged: a blocking thread cannot wait
        on a batch it has not filled."""
        with pytest.raises(SimulationError, match="requires an async design"):
            OffloadConfig(
                device=None, interface=InterfaceModel(Placement.OFF_CHIP),
                design=ThreadingDesign.SYNC, batch_size=4,
            )
