"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.paperdata.categories import FunctionalityCategory as F
from repro.simulator import CPU, Compute, Engine, MetricSink

from .test_inplace_exactness import CountingEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.at(30, lambda: fired.append("c"))
        engine.at(10, lambda: fired.append("a"))
        engine.at(20, lambda: fired.append("b"))
        engine.run_to_completion()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        engine = Engine()
        fired = []
        engine.at(5, lambda: fired.append(1))
        engine.at(5, lambda: fired.append(2))
        engine.run_to_completion()
        assert fired == [1, 2]

    def test_after_is_relative(self):
        engine = Engine()
        times = []
        engine.at(100, lambda: engine.after(50, lambda: times.append(engine.now)))
        engine.run_to_completion()
        assert times == [150]

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.at(10, lambda: None)
        engine.run_to_completion()
        with pytest.raises(SimulationError):
            engine.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().after(-1, lambda: None)

    def test_events_can_schedule_events(self):
        engine = Engine()
        count = []

        def chain(depth):
            count.append(depth)
            if depth < 5:
                engine.after(1, lambda: chain(depth + 1))

        engine.at(0, lambda: chain(0))
        engine.run_to_completion()
        assert count == list(range(6))


class TestRunUntil:
    def test_stops_at_horizon(self):
        engine = Engine()
        fired = []
        engine.at(10, lambda: fired.append(10))
        engine.at(20, lambda: fired.append(20))
        engine.run_until(15)
        assert fired == [10]
        assert engine.now == 15
        assert engine.pending_events == 1

    def test_event_exactly_at_horizon_fires(self):
        engine = Engine()
        fired = []
        engine.at(15, lambda: fired.append(15))
        engine.run_until(15)
        assert fired == [15]

    def test_rejects_past_horizon(self):
        engine = Engine()
        engine.at(5, lambda: None)
        engine.run_until(10)
        with pytest.raises(SimulationError):
            engine.run_until(5)

    def test_max_events_guard(self):
        engine = Engine()

        def loop():
            engine.after(0, loop)

        engine.at(0, loop)
        with pytest.raises(SimulationError):
            engine.run_until(1, max_events=100)

    def test_events_processed_counter(self):
        engine = Engine()
        for t in range(5):
            engine.at(t, lambda: None)
        engine.run_to_completion()
        assert engine.events_processed == 5

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False


class TestInPlaceCompute:
    """``CPU._advance`` runs a thread's compute in place only when the
    drain loop would provably pop it next.

    The thread's first compute starts at spawn, a direct advance that
    always queues; the computes after it are chained from the engine.
    """

    def spawn(self, engine, delays, log):
        cpu = CPU(engine, MetricSink(), 1)

        def body(thread):
            for delay in delays:
                yield Compute(delay, F.APPLICATION_LOGIC)
                log.append(("compute", engine.now))

        cpu.spawn(body)

    def test_strictly_next_event_runs_in_place(self):
        engine = CountingEngine()
        log = []
        self.spawn(engine, (10, 5), log)
        engine.at(20, lambda: None)
        engine.run_until(100)
        assert log == [("compute", 10), ("compute", 15)]
        assert engine.in_place == 1
        assert engine.events_processed == 3

    def test_event_at_the_horizon_is_queued(self):
        engine = CountingEngine()
        log = []
        self.spawn(engine, (10, 90), log)
        engine.run_until(100)
        assert log == [("compute", 10), ("compute", 100)]
        assert engine.in_place == 0
        assert engine.events_processed == 2

    def test_event_past_the_horizon_stays_queued(self):
        engine = CountingEngine()
        log = []
        self.spawn(engine, (10, 91), log)
        engine.run_until(100)
        assert log == [("compute", 10)]
        assert engine.in_place == 0
        assert engine.pending_events == 1

    def test_tie_with_the_heap_head_is_queued(self):
        engine = CountingEngine()
        log = []
        engine.at(15, lambda: log.append(("head", engine.now)))
        self.spawn(engine, (10, 5), log)
        engine.run_until(100)
        # The earlier-scheduled head wins the tie, as it would in the heap.
        assert log == [("compute", 10), ("head", 15), ("compute", 15)]
        assert engine.in_place == 0

    def test_off_outside_run_until(self):
        engine = CountingEngine()
        log = []
        self.spawn(engine, (10, 5), log)
        engine.run_to_completion()
        assert log == [("compute", 10), ("compute", 15)]
        assert engine.in_place == 0
        # A returned run_until leaves nothing chaining behind it.
        engine.run_until(20)
        self.spawn(engine, (1, 1), log)
        assert engine.step()
        assert log[-1] == ("compute", 21)
        assert engine.pending_events == 1
        assert engine.in_place == 0

    def test_in_place_events_spend_the_budget(self):
        engine = CountingEngine()
        log = []
        self.spawn(engine, (0, 1), log)
        with pytest.raises(SimulationError):
            engine.run_until(10, max_events=1)
        assert log == [("compute", 0)]
        assert engine.events_processed == 1
        assert engine.pending_events == 1

    def test_negative_delay_rejected(self):
        engine = CountingEngine()
        self.spawn(engine, (10, -1), [])
        with pytest.raises(SimulationError, match="negative cycles"):
            engine.run_until(100)

