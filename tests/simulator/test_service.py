"""Unit tests for the microservice runtime and offload state machines."""

import pickle

import pytest

from repro.core import Placement, ThreadingDesign
from repro.errors import SimulationError
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    CPU,
    AcceleratorDevice,
    Compute,
    CycleKind,
    Engine,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    MetricSink,
    Microservice,
    OffloadConfig,
    RequestSpec,
    ResponseHandler,
    SegmentWork,
)

KERNEL = KernelSpec("crypt", F.IO, L.SSL, cycles_per_byte=2.0)


def one_request(invocations=2, granularity=100.0, plain=1000.0):
    return RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC, plain_cycles=plain,
                        leaf_mix={L.C_LIBRARIES: 1.0}),
            SegmentWork(
                F.IO,
                invocations=tuple(
                    KernelInvocation(KERNEL, granularity)
                    for _ in range(invocations)
                ),
            ),
        )
    )


def run_service(requests, offloads=None, cores=1, horizon=None,
                make_handler=False, o1=0.0):
    engine = Engine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, cores)
    resolved_offloads = {}
    handler = None
    if offloads:
        design, interface, device_speedup = offloads
        device = AcceleratorDevice(engine, device_speedup, servers=cores)
        if make_handler:
            handler = ResponseHandler(cpu, o1)
        resolved_offloads["crypt"] = OffloadConfig(
            device=device, interface=interface, design=design,
            thread_switch_cycles=o1, response_handler=handler,
        )
    service = Microservice(engine, cpu, metrics, offloads=resolved_offloads)
    service.spawn_worker(iter(requests))
    if horizon is None:
        engine.run_to_completion()
    else:
        engine.run_until(horizon)
        cpu.finalize(horizon)
    return engine, metrics


class TestRequestSpec:
    def test_total_host_cycles(self):
        spec = one_request(invocations=2, granularity=100, plain=1000)
        assert spec.total_host_cycles() == 1000 + 2 * 200


class TestKernelInvocation:
    @pytest.mark.parametrize("granularity", [1.0, 37.5, 4096.0])
    def test_host_op_is_the_kernel_host_cost(self, granularity):
        kernel = KernelSpec("z", F.COMPRESSION, L.ZSTD, cycles_per_byte=5.62,
                            complexity_exponent=1.1)
        invocation = KernelInvocation(kernel, granularity)
        assert invocation.host_cycles == kernel.host_cycles(granularity)
        assert invocation.host_op == Compute(
            kernel.host_cycles(granularity), F.COMPRESSION, L.ZSTD
        )

    def test_zero_cost_call_has_no_host_op(self):
        invocation = KernelInvocation(KERNEL, 0.0)
        assert invocation.host_cycles == 0.0
        assert invocation.host_op is None

    def test_negative_granularity_raises_at_construction(self):
        with pytest.raises(SimulationError, match="granularity must be >= 0"):
            KernelInvocation(KERNEL, -1.0)

    def test_precomputed_fields_stay_out_of_equality_and_repr(self):
        invocation = KernelInvocation(KERNEL, 100.0)
        assert invocation == KernelInvocation(KERNEL, 100.0)
        assert hash(invocation) == hash(KernelInvocation(KERNEL, 100.0))
        assert repr(invocation) == (
            f"KernelInvocation(kernel={KERNEL!r}, granularity=100.0)"
        )

    def test_pickle_round_trip_keeps_host_op(self):
        invocation = pickle.loads(pickle.dumps(KernelInvocation(KERNEL, 50.0)))
        assert invocation == KernelInvocation(KERNEL, 50.0)
        assert invocation.host_op == Compute(100.0, F.IO, L.SSL)


class TestLocalExecution:
    def test_unaccelerated_request_charges_everything(self):
        engine, metrics = run_service([one_request()])
        assert metrics.useful_cycles() == pytest.approx(1400)
        assert metrics.kernel_cycles["crypt"] == 400
        assert metrics.kernel_invocations["crypt"] == 2

    def test_request_latency_is_serial_cost(self):
        engine, metrics = run_service([one_request()])
        assert metrics.mean_latency() == pytest.approx(1400)

    def test_leaf_mix_attribution(self):
        spec = RequestSpec(
            segments=(
                SegmentWork(
                    F.APPLICATION_LOGIC, plain_cycles=100,
                    leaf_mix={L.MEMORY: 3.0, L.C_LIBRARIES: 1.0},
                ),
            )
        )
        engine, metrics = run_service([spec])
        leaves = metrics.by_leaf()
        assert leaves[L.MEMORY] == pytest.approx(75)
        assert leaves[L.C_LIBRARIES] == pytest.approx(25)

    def test_kernel_origin_tracked(self):
        engine, metrics = run_service([one_request()])
        assert metrics.kernel_origin_shares("crypt") == {F.IO: 1.0}


class TestSyncOffload:
    INTERFACE = InterfaceModel(
        Placement.OFF_CHIP, dispatch_cycles=50, transfer_base_cycles=100
    )

    def test_request_latency_includes_full_offload_path(self):
        engine, metrics = run_service(
            [one_request(invocations=1)],
            offloads=(ThreadingDesign.SYNC, self.INTERFACE, 4.0),
        )
        # 1000 plain + o0 50 + L 100 + service 50
        assert metrics.mean_latency() == pytest.approx(1200)

    def test_blocked_cycles_cover_transfer_and_service(self):
        engine, metrics = run_service(
            [one_request(invocations=1)],
            offloads=(ThreadingDesign.SYNC, self.INTERFACE, 4.0),
        )
        blocked = metrics.total_cycles((CycleKind.BLOCKED,))
        assert blocked == pytest.approx(150)

    def test_dispatch_charged_as_overhead(self):
        engine, metrics = run_service(
            [one_request(invocations=1)],
            offloads=(ThreadingDesign.SYNC, self.INTERFACE, 4.0),
        )
        overhead = metrics.total_cycles((CycleKind.OFFLOAD_OVERHEAD,))
        assert overhead == pytest.approx(50)

    def test_offload_records_collected(self):
        engine, metrics = run_service(
            [one_request(invocations=3)],
            offloads=(ThreadingDesign.SYNC, self.INTERFACE, 4.0),
        )
        assert len(metrics.offloads) == 3
        assert all(record.completed_at is not None for record in metrics.offloads)

    def test_min_granularity_keeps_small_offloads_local(self):
        engine, metrics = run_service(
            [one_request(invocations=2, granularity=10)],
            offloads=(ThreadingDesign.SYNC, self.INTERFACE, 4.0),
        )
        # Rebuild with a threshold via direct OffloadConfig:
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 4.0)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.SYNC, min_granularity=50.0,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=2, granularity=10)]))
        engine.run_to_completion()
        assert len(metrics.offloads) == 0
        assert metrics.kernel_cycles["crypt"] == 40  # ran locally


class TestSyncOsOffload:
    INTERFACE = InterfaceModel(
        Placement.OFF_CHIP, dispatch_cycles=0, transfer_base_cycles=100
    )

    def test_core_freed_for_other_thread(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 1.001)  # slow accelerator
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.SYNC_OS, thread_switch_cycles=10,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=1, plain=100)]))
        service.spawn_worker(iter([one_request(invocations=0, plain=100)]))
        engine.run_to_completion()
        # Both requests completed despite a single core and a long offload.
        assert len(metrics.completed_requests()) == 2

    def test_two_switch_charges(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 2.0)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.SYNC_OS, thread_switch_cycles=25,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=1)]))
        engine.run_to_completion()
        switches = metrics.total_cycles((CycleKind.THREAD_SWITCH,))
        assert switches == pytest.approx(50)

    def test_ack_wait_blocks_through_transfer(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 2.0)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.SYNC_OS, thread_switch_cycles=0,
            driver_awaits_ack=True,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=1)]))
        engine.run_to_completion()
        blocked = metrics.total_cycles((CycleKind.BLOCKED,))
        assert blocked == pytest.approx(100)  # L only; queue empty

    def test_no_ack_skips_blocking(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 2.0)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.SYNC_OS, thread_switch_cycles=0,
            driver_awaits_ack=False,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=1)]))
        engine.run_to_completion()
        assert metrics.total_cycles((CycleKind.BLOCKED,)) == 0


class TestAsyncOffload:
    INTERFACE = InterfaceModel(
        Placement.OFF_CHIP, dispatch_cycles=30, transfer_base_cycles=70
    )

    def test_host_pays_dispatch_plus_transfer(self):
        engine, metrics = run_service(
            [one_request(invocations=1)],
            offloads=(ThreadingDesign.ASYNC, self.INTERFACE, 4.0),
        )
        overhead = metrics.total_cycles((CycleKind.OFFLOAD_OVERHEAD,))
        assert overhead == pytest.approx(100)
        assert metrics.total_cycles((CycleKind.BLOCKED,)) == 0

    def test_request_gated_on_response(self):
        engine, metrics = run_service(
            [one_request(invocations=1, plain=10.0)],
            offloads=(ThreadingDesign.ASYNC, self.INTERFACE, 1.0),
        )
        # Body finishes quickly, but completion waits for the 200-cycle
        # service: latency = 10 + 100 (overhead) + 200 (service).
        assert metrics.mean_latency() == pytest.approx(310)

    def test_remote_fire_and_forget_not_gated(self):
        remote = InterfaceModel(
            Placement.REMOTE, dispatch_cycles=30, transfer_base_cycles=70
        )
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 1.0, placement=Placement.REMOTE)
        config = OffloadConfig(
            device=device, interface=remote,
            design=ThreadingDesign.ASYNC_NO_RESPONSE,
        )
        assert not config.gates_request()
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=1, plain=10.0)]))
        engine.run_to_completion()
        assert metrics.mean_latency() == pytest.approx(110)

    def test_offchip_fire_and_forget_is_gated(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 1.0)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.ASYNC_NO_RESPONSE,
        )
        assert config.gates_request()

    def test_distinct_thread_pays_o1_per_response(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 2)
        device = AcceleratorDevice(engine, 4.0)
        handler = ResponseHandler(cpu, thread_switch_cycles=40)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.ASYNC_DISTINCT_THREAD,
            thread_switch_cycles=40, response_handler=handler,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=3)]))
        engine.run_until(1e6)
        switches = metrics.total_cycles((CycleKind.THREAD_SWITCH,))
        assert switches == pytest.approx(120)
        assert len(metrics.completed_requests()) == 1

    def test_distinct_thread_without_handler_raises(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        device = AcceleratorDevice(engine, 4.0)
        config = OffloadConfig(
            device=device, interface=self.INTERFACE,
            design=ThreadingDesign.ASYNC_DISTINCT_THREAD,
        )
        service = Microservice(engine, cpu, metrics, offloads={"crypt": config})
        service.spawn_worker(iter([one_request(invocations=1)]))
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            engine.run_to_completion()
