"""Unit tests for the CPU/threading model."""

import inspect

import pytest

from repro.errors import SimulationError
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    CPU,
    Compute,
    CycleKind,
    Engine,
    HoldCore,
    MetricSink,
    ReleaseCore,
    ThreadState,
    YieldCore,
)
from repro.simulator.engine import PyEngine


def make_cpu(cores=1):
    engine = Engine()
    metrics = MetricSink()
    return engine, metrics, CPU(engine, metrics, cores)


class TestCompute:
    def test_compute_advances_time_and_charges(self):
        engine, metrics, cpu = make_cpu()
        done = []

        def body(thread):
            yield Compute(100, F.IO, L.KERNEL)
            done.append(engine.now)

        cpu.spawn(body)
        engine.run_to_completion()
        assert done == [100]
        assert metrics.by_functionality()[F.IO] == 100

    def test_sequential_computes(self):
        engine, metrics, cpu = make_cpu()

        def body(thread):
            yield Compute(10, F.IO, L.KERNEL)
            yield Compute(20, F.LOGGING, L.MEMORY)

        cpu.spawn(body)
        engine.run_to_completion()
        assert engine.now == 30
        assert metrics.useful_cycles() == 30

    def test_threads_run_concurrently_on_separate_cores(self):
        engine, metrics, cpu = make_cpu(cores=2)
        finish_times = []

        def body(thread):
            yield Compute(100, F.IO, L.KERNEL)
            finish_times.append(engine.now)

        cpu.spawn(body)
        cpu.spawn(body)
        engine.run_to_completion()
        assert finish_times == [100, 100]

    def test_excess_threads_queue(self):
        engine, metrics, cpu = make_cpu(cores=1)
        finish_times = []

        def body(thread):
            yield Compute(100, F.IO, L.KERNEL)
            finish_times.append(engine.now)

        cpu.spawn(body)
        cpu.spawn(body)
        assert cpu.runnable_backlog() == 1
        engine.run_to_completion()
        assert finish_times == [100, 200]


class TestHoldCore:
    def test_hold_blocks_core_until_resumed(self):
        engine, metrics, cpu = make_cpu(cores=1)
        order = []

        def blocker(thread):
            yield Compute(10, F.IO, L.SSL)
            engine.at(50, lambda: cpu.resume(thread))
            yield HoldCore(F.IO, L.SSL)
            order.append(("blocker", engine.now))

        def other(thread):
            yield Compute(5, F.LOGGING, L.MEMORY)
            order.append(("other", engine.now))

        cpu.spawn(blocker)
        cpu.spawn(other)  # queued behind the held core
        engine.run_to_completion()
        # The other thread only ran after the blocker finished.
        assert order[0][0] == "blocker"
        assert order[1][0] == "other"

    def test_blocked_time_charged_as_blocked(self):
        engine, metrics, cpu = make_cpu()

        def body(thread):
            engine.at(40, lambda: cpu.resume(thread))
            yield HoldCore(F.IO, L.SSL)

        cpu.spawn(body)
        engine.run_to_completion()
        blocked = metrics.total_cycles((CycleKind.BLOCKED,))
        assert blocked == 40


class TestReleaseCore:
    def test_release_lets_other_thread_run(self):
        engine, metrics, cpu = make_cpu(cores=1)
        order = []

        def blocker(thread):
            yield Compute(10, F.IO, L.SSL)
            engine.at(100, lambda: cpu.resume(thread))
            yield ReleaseCore()
            order.append(("blocker", engine.now))

        def other(thread):
            yield Compute(5, F.LOGGING, L.MEMORY)
            order.append(("other", engine.now))

        cpu.spawn(blocker)
        cpu.spawn(other)
        engine.run_to_completion()
        assert order[0] == ("other", 15)
        assert order[1] == ("blocker", 100)

    def test_resume_charge_consumes_core_time(self):
        engine, metrics, cpu = make_cpu(cores=1)
        resumed_at = []

        def body(thread):
            engine.at(10, lambda: cpu.resume(thread))
            yield ReleaseCore(resume_charge=25)
            resumed_at.append(engine.now)

        cpu.spawn(body)
        engine.run_to_completion()
        assert resumed_at == [35]
        assert metrics.total_cycles((CycleKind.THREAD_SWITCH,)) == 25


class TestYieldCore:
    def test_yield_round_robins(self):
        engine, metrics, cpu = make_cpu(cores=1)
        order = []

        def maker(name):
            def body(thread):
                order.append((name, "a", engine.now))
                yield Compute(10, F.IO, L.KERNEL)
                yield YieldCore()
                order.append((name, "b", engine.now))
                yield Compute(10, F.IO, L.KERNEL)

            return body

        cpu.spawn(maker("t1"))
        cpu.spawn(maker("t2"))
        engine.run_to_completion()
        names = [(name, phase) for name, phase, _ in order]
        assert names == [("t1", "a"), ("t2", "a"), ("t1", "b"), ("t2", "b")]

    def test_lone_thread_yield_continues(self):
        engine, metrics, cpu = make_cpu(cores=1)
        done = []

        def body(thread):
            yield Compute(10, F.IO, L.KERNEL)
            yield YieldCore()
            done.append(engine.now)

        cpu.spawn(body)
        engine.run_to_completion()
        assert done == [10]


class TestLifecycle:
    def test_resume_unblocked_thread_rejected(self):
        engine, metrics, cpu = make_cpu()

        def body(thread):
            yield Compute(10, F.IO, L.KERNEL)

        thread = cpu.spawn(body)
        with pytest.raises(SimulationError):
            cpu.resume(thread)

    def test_thread_done_callbacks(self):
        engine, metrics, cpu = make_cpu()
        finished = []
        cpu.on_thread_done(lambda t: finished.append(t.name))

        def body(thread):
            yield Compute(1, F.IO, L.KERNEL)

        cpu.spawn(body, name="worker-x")
        engine.run_to_completion()
        assert finished == ["worker-x"]

    def test_finalize_accounts_idle(self):
        engine, metrics, cpu = make_cpu(cores=2)

        def body(thread):
            yield Compute(10, F.IO, L.KERNEL)

        cpu.spawn(body)
        engine.run_until(100)
        cpu.finalize(100)
        idle = metrics.total_cycles((CycleKind.IDLE,))
        # Core 0 idle for 90 cycles after the thread; core 1 idle for 100.
        assert idle == pytest.approx(190)

    def test_finalize_accounts_open_blocked_interval(self):
        engine, metrics, cpu = make_cpu()

        def body(thread):
            yield HoldCore(F.IO, L.SSL)

        cpu.spawn(body)
        engine.run_until(60)
        cpu.finalize(60)
        assert metrics.total_cycles((CycleKind.BLOCKED,)) == 60

    def test_needs_at_least_one_core(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            CPU(engine, MetricSink(), 0)

    def test_idle_cores_counter(self):
        engine, metrics, cpu = make_cpu(cores=3)

        def body(thread):
            yield Compute(10, F.IO, L.KERNEL)

        cpu.spawn(body)
        assert cpu.idle_cores() == 2

    def test_default_names_count_per_cpu(self):
        def body(thread):
            yield Compute(1, F.IO, L.KERNEL)

        for _ in range(2):
            engine, metrics, cpu = make_cpu()
            names = [cpu.spawn(body).name for _ in range(2)]
            names.append(cpu.spawn(body, name="named").name)
            names.append(cpu.spawn(body).name)
            assert names == ["thread-1", "thread-2", "named", "thread-4"]

    def test_release_closes_parked_bodies_and_unlinks_threads(self):
        engine, metrics, cpu = make_cpu()
        closed = []

        def body(thread):
            try:
                yield HoldCore(F.IO, L.SSL)
            finally:
                closed.append(thread.name)

        held = cpu.spawn(body, name="held")
        queued = cpu.spawn(body, name="queued")
        engine.after(5, lambda: None)
        engine.run_until(1)
        cpu.release()
        # The queued body never started, so only the held one ran its
        # finally; both generators are closed.
        assert closed == ["held"]
        for thread in (held, queued):
            assert inspect.getgeneratorstate(thread.body) == "GEN_CLOSED"
            assert thread.core is None and thread.advance_callback is None
        assert cpu.cores[0].current is None
        assert cpu.runnable_backlog() == 0


class TestInPlaceComputes:
    """Consecutive computes run in place inside ``run_until`` only, and
    only when the engine invoked the continuation (pure engine)."""

    def make(self, cores=1):
        engine = PyEngine()
        metrics = MetricSink()
        return engine, metrics, CPU(engine, metrics, cores)

    def test_zero_compute_loop_still_trips_the_guard(self):
        engine, metrics, cpu = self.make()

        def body(thread):
            while True:
                yield Compute(0, F.IO, L.KERNEL)

        cpu.spawn(body)
        with pytest.raises(SimulationError, match="max_events = 100"):
            engine.run_until(10, max_events=100)
        # The same count as one heap event per compute: the guard trips
        # before the 101st event, in place or popped.
        assert engine.events_processed == 100
        assert engine.pending_events == 1

    def test_step_runs_one_event_of_a_continuation(self):
        engine, metrics, cpu = self.make()

        def body(thread):
            for _ in range(3):
                yield Compute(10, F.IO, L.KERNEL)

        cpu.spawn(body)
        assert engine.step()
        assert engine.events_processed == 1
        assert engine.now == 10
        assert engine.pending_events == 1
        engine.run_until(100)
        assert engine.events_processed == 3
        assert metrics.useful_cycles() == 30

    @pytest.mark.parametrize(
        "block", [HoldCore(F.IO, L.SSL), ReleaseCore()],
        ids=["hold", "release"],
    )
    def test_resume_from_a_callback_keeps_the_clock(self, block):
        engine, metrics, cpu = self.make()
        seen = []

        def body(thread):
            yield block
            for _ in range(3):
                yield Compute(5, F.IO, L.KERNEL)

        thread = cpu.spawn(body)

        def wake():
            before = engine.now
            cpu.resume(thread)
            seen.append((before, engine.now))

        engine.at(100, wake)
        engine.run_until(1000)
        assert seen == [(100, 100)]
        assert thread.state is ThreadState.DONE
        assert metrics.useful_cycles() == 15
        # One wake-up plus three computes, the last two run in place.
        assert engine.events_processed == 4

    def test_spawn_from_a_callback_keeps_the_clock(self):
        engine, metrics, cpu = self.make()
        seen = []

        def body(thread):
            for _ in range(3):
                yield Compute(5, F.IO, L.KERNEL)

        def start():
            before = engine.now
            cpu.spawn(body)
            seen.append((before, engine.now))

        engine.at(100, start)
        engine.run_until(1000)
        assert seen == [(100, 100)]
        assert metrics.useful_cycles() == 15

