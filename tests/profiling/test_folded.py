"""Tests for folded-stack (flamegraph) output."""

import pytest

from repro.errors import ProfileError
from repro.profiling import SampledTrace, fold_traces, to_folded_text

SAMPLES = [
    SampledTrace(("main", "io_loop", "memcpy"), cycles=300.0, instructions=200.0),
    SampledTrace(("main", "io_loop", "memcpy"), cycles=200.0, instructions=150.0),
    SampledTrace(("main", "compress", "zstd"), cycles=100.0, instructions=90.0),
]


class TestFoldTraces:
    def test_aggregates_identical_stacks(self):
        folded = fold_traces(SAMPLES)
        assert folded[("main", "io_loop", "memcpy")] == 500
        assert folded[("main", "compress", "zstd")] == 100

    def test_scale(self):
        folded = fold_traces(SAMPLES, scale=0.01)
        assert folded[("main", "io_loop", "memcpy")] == 5

    def test_minimum_weight_one(self):
        folded = fold_traces(SAMPLES, scale=1e-9)
        assert all(weight >= 1 for weight in folded.values())

    def test_empty_rejected(self):
        with pytest.raises(ProfileError):
            fold_traces([])

    def test_bad_scale_rejected(self):
        with pytest.raises(ProfileError):
            fold_traces(SAMPLES, scale=0)


class TestFoldedText:
    def test_format(self):
        text = to_folded_text(SAMPLES)
        lines = text.strip().splitlines()
        assert "main;compress;zstd 100" in lines
        assert "main;io_loop;memcpy 500" in lines

    def test_deterministic_order(self):
        assert to_folded_text(SAMPLES) == to_folded_text(list(SAMPLES))

    def test_round_trip_from_characterization(self, cache1_run):
        """A real characterized profile folds into a flamegraph-ready
        file whose total weight matches the profiled cycles."""
        from repro.profiling import StackSampler

        workload = cache1_run.workload
        sampler = StackSampler(workload.trace_templates())
        attributed = {}
        for (f, l, kind), cycles in cache1_run.simulation.metrics.cycles.items():
            if kind.value == "useful" and cycles > 0:
                attributed[(f, l)] = attributed.get((f, l), 0.0) + cycles
        samples = sampler.sample(
            attributed, lambda f, l: 1.0
        )
        folded = fold_traces(samples, scale=1e-6)
        assert sum(folded.values()) > 0
        text = to_folded_text(samples, scale=1e-6)
        assert "cache1_worker_loop" in text
