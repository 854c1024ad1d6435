"""Unit tests for request streams and the block sampler."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import BlockSampler, RequestSpec, SegmentWork, request_stream


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
