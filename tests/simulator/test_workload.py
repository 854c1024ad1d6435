"""Unit tests for request streams and the open-loop driver."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    CPU,
    BlockSampler,
    Engine,
    MetricSink,
    Microservice,
    OpenLoopDriver,
    RequestSpec,
    SegmentWork,
    request_stream,
)


def spec(cycles=100.0):
    return RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC, plain_cycles=cycles,
                        leaf_mix={L.MISCELLANEOUS: 1.0}),
        )
    )


class TestRequestStream:
    def test_limit(self):
        stream = request_stream(lambda: spec(), limit=3)
        assert len(list(stream)) == 3

    def test_unlimited_keeps_producing(self):
        stream = request_stream(lambda: spec())
        for _ in range(1000):
            next(stream)


class TestOpenLoopDriver:
    def _run(self, rate, horizon=1e6, unit=1e6):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 4)
        service = Microservice(engine, cpu, metrics)
        driver = OpenLoopDriver(
            engine, service, lambda: spec(100.0), arrivals_per_unit=rate,
            rng=np.random.default_rng(1), unit_cycles=unit,
        )
        driver.start()
        engine.run_until(horizon)
        cpu.finalize(horizon)
        return driver, metrics

    def test_arrival_count_near_rate(self):
        driver, metrics = self._run(rate=200)
        assert driver.arrivals == pytest.approx(200, abs=50)

    def test_requests_complete(self):
        driver, metrics = self._run(rate=100)
        assert len(metrics.completed_requests()) > 50

    def test_latency_grows_under_overload(self):
        _, light = self._run(rate=100)
        # 4 cores x 1e6 cycles / 100-cycle requests = capacity 4e4; drive
        # near it with much higher arrival rate to see queueing delay.
        _, heavy = self._run(rate=39_000)
        assert heavy.mean_latency() > light.mean_latency()

    def test_stop_halts_arrivals(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        service = Microservice(engine, cpu, metrics)
        driver = OpenLoopDriver(
            engine, service, lambda: spec(), arrivals_per_unit=1000,
            rng=np.random.default_rng(2), unit_cycles=1e6,
        )
        driver.start()
        engine.run_until(1e5)
        driver.stop()
        count = driver.arrivals
        engine.run_until(2e5)
        assert driver.arrivals == count

    def test_rejects_bad_rate(self):
        engine = Engine()
        metrics = MetricSink()
        cpu = CPU(engine, metrics, 1)
        service = Microservice(engine, cpu, metrics)
        with pytest.raises(ParameterError):
            OpenLoopDriver(
                engine, service, lambda: spec(), arrivals_per_unit=0,
                rng=np.random.default_rng(0),
            )


class TestBlockSamplerTake:
    @staticmethod
    def integers(seed, block_size=4):
        rng = np.random.default_rng(seed)
        return BlockSampler(
            lambda n: rng.integers(0, 1000, size=n), block_size=block_size
        )

    def test_integer_draws_stay_integral_on_every_call(self):
        sampler = self.integers(1)
        for count in (3, 5, 1, 9, 4, 2):
            taken = sampler.take(count)
            assert taken.dtype.kind == "i", (count, taken.dtype)
            assert len(taken) == count

    @pytest.mark.parametrize("counts", [(3, 5, 1, 9, 4), (4, 4, 8), (13,)])
    def test_take_equals_repeated_next_across_blocks(self, counts):
        taker, stepper = self.integers(3), self.integers(3)
        for count in counts:
            expected = [stepper.next() for _ in range(count)]
            assert sampler_values(taker.take(count)) == expected

    def test_take_then_next_continue_one_stream(self):
        mixed, stepper = self.integers(4), self.integers(4)
        values = sampler_values(mixed.take(6)) + [mixed.next()]
        values += sampler_values(mixed.take(5))
        assert values == [stepper.next() for _ in range(12)]

    def test_rejects_negative_count(self):
        with pytest.raises(ParameterError):
            self.integers(5).take(-1)


def sampler_values(array):
    return [float(value) for value in array.tolist()]
