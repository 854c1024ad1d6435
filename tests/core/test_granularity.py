"""Unit tests for granularity distributions and selective offload."""

import math

import numpy as np
import pytest

from repro.core import (
    AcceleratorSpec,
    GranularityDistribution,
    KernelProfile,
    OffloadCosts,
    Placement,
    ThreadingDesign,
    lucrative_subset,
    selective_profile,
)
from repro.errors import ParameterError


@pytest.fixture
def simple_dist():
    return GranularityDistribution(
        sizes=(64.0, 256.0, 1024.0), counts=(50.0, 30.0, 20.0)
    )


class TestConstruction:
    def test_from_samples(self):
        dist = GranularityDistribution.from_samples([4, 4, 8, 16, 16, 16])
        assert dist.sizes == (4.0, 8.0, 16.0)
        assert dist.counts == (2.0, 1.0, 3.0)

    def test_from_samples_empty_rejected(self):
        with pytest.raises(ParameterError):
            GranularityDistribution.from_samples([])

    def test_from_histogram_geometric_midpoints(self):
        dist = GranularityDistribution.from_histogram([64, 256, 1024], [1, 1])
        assert dist.sizes[0] == pytest.approx(math.sqrt(64 * 256))
        assert dist.sizes[1] == pytest.approx(math.sqrt(256 * 1024))

    def test_from_histogram_open_top_bin(self):
        dist = GranularityDistribution.from_histogram([1024, math.inf], [5])
        assert dist.sizes[0] == pytest.approx(2048)

    def test_from_histogram_skips_empty_bins(self):
        dist = GranularityDistribution.from_histogram([1, 2, 4, 8], [1, 0, 1])
        assert len(dist.sizes) == 2

    def test_from_histogram_shape_mismatch(self):
        with pytest.raises(ParameterError):
            GranularityDistribution.from_histogram([1, 2], [1, 2])

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ParameterError):
            GranularityDistribution(sizes=(10.0, 5.0), counts=(1.0, 1.0))

    def test_rejects_negative_counts(self):
        with pytest.raises(ParameterError):
            GranularityDistribution(sizes=(1.0,), counts=(-1.0,))


class TestStatistics:
    def test_mean(self, simple_dist):
        expected = (64 * 50 + 256 * 30 + 1024 * 20) / 100
        assert simple_dist.mean == pytest.approx(expected)

    def test_cdf(self, simple_dist):
        assert simple_dist.cdf(64) == pytest.approx(0.5)
        assert simple_dist.cdf(256) == pytest.approx(0.8)
        assert simple_dist.cdf(10_000) == pytest.approx(1.0)
        assert simple_dist.cdf(1) == pytest.approx(0.0)

    def test_count_fraction_at_least(self, simple_dist):
        assert simple_dist.count_fraction_at_least(256) == pytest.approx(0.5)

    def test_byte_fraction_at_least(self, simple_dist):
        total = 64 * 50 + 256 * 30 + 1024 * 20
        expected = (256 * 30 + 1024 * 20) / total
        assert simple_dist.byte_fraction_at_least(256) == pytest.approx(expected)

    def test_quantile(self, simple_dist):
        assert simple_dist.quantile(0.5) == 64
        assert simple_dist.quantile(0.51) == 256
        assert simple_dist.quantile(1.0) == 1024

    def test_quantile_domain(self, simple_dist):
        with pytest.raises(ParameterError):
            simple_dist.quantile(1.5)

    def test_scaled_to_preserves_shape(self, simple_dist):
        scaled = simple_dist.scaled_to(1_000.0)
        assert scaled.total_count == pytest.approx(1_000.0)
        assert scaled.mean == pytest.approx(simple_dist.mean)

    def test_binned_cdf_labels_and_monotonicity(self, simple_dist):
        rows = simple_dist.binned_cdf([1, 128, 512, math.inf])
        labels = [label for label, _ in rows]
        assert labels == ["1B-128B", "128B-512B", ">512B"]
        values = [value for _, value in rows]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)


class TestSampling:
    def test_sample_respects_support(self, simple_dist):
        rng = np.random.default_rng(3)
        samples = simple_dist.sample(rng, 500)
        assert set(np.unique(samples)) <= {64.0, 256.0, 1024.0}

    def test_sample_frequency_matches_weights(self, simple_dist):
        rng = np.random.default_rng(4)
        samples = simple_dist.sample(rng, 20_000)
        fraction_64 = float(np.mean(samples == 64.0))
        assert fraction_64 == pytest.approx(0.5, abs=0.02)


class TestSelectiveOffload:
    OFFCHIP = AcceleratorSpec(10.0, Placement.OFF_CHIP)
    COSTS = OffloadCosts(interface_cycles=900.0)  # sync breakeven: g=100@Cb=10

    def test_lucrative_subset_threshold_and_fractions(self, simple_dist):
        threshold, count_frac, byte_frac = lucrative_subset(
            simple_dist, ThreadingDesign.SYNC, 10.0, self.OFFCHIP, self.COSTS
        )
        assert threshold == pytest.approx(100.0)
        assert count_frac == pytest.approx(0.5)
        assert byte_frac > count_frac  # big offloads carry more bytes

    def test_lucrative_subset_infinite_threshold(self, simple_dist):
        slow = AcceleratorSpec(1.0, Placement.OFF_CHIP)
        threshold, count_frac, byte_frac = lucrative_subset(
            simple_dist, ThreadingDesign.SYNC, 10.0, slow, self.COSTS
        )
        assert math.isinf(threshold)
        assert count_frac == 0.0 and byte_frac == 0.0

    def test_selective_profile_count_weighting(self, simple_dist):
        kernel = KernelProfile(1e6, 0.2, 100, cycles_per_byte=10.0)
        selected = selective_profile(
            kernel, simple_dist, ThreadingDesign.SYNC, self.OFFCHIP, self.COSTS
        )
        assert selected.offloads_per_unit == pytest.approx(50)
        assert selected.kernel_fraction == pytest.approx(0.1)

    def test_selective_profile_byte_weighting(self, simple_dist):
        kernel = KernelProfile(1e6, 0.2, 100, cycles_per_byte=10.0)
        selected = selective_profile(
            kernel, simple_dist, ThreadingDesign.SYNC, self.OFFCHIP, self.COSTS,
            weight_alpha_by="bytes",
        )
        byte_frac = simple_dist.byte_fraction_at_least(100.0)
        assert selected.kernel_fraction == pytest.approx(0.2 * byte_frac)

    def test_selective_profile_requires_cb(self, simple_dist):
        kernel = KernelProfile(1e6, 0.2, 100)
        with pytest.raises(ParameterError):
            selective_profile(
                kernel, simple_dist, ThreadingDesign.SYNC, self.OFFCHIP,
                self.COSTS,
            )

    def test_selective_profile_rejects_bad_weighting(self, simple_dist):
        kernel = KernelProfile(1e6, 0.2, 100, cycles_per_byte=10.0)
        with pytest.raises(ParameterError):
            selective_profile(
                kernel, simple_dist, ThreadingDesign.SYNC, self.OFFCHIP,
                self.COSTS, weight_alpha_by="mass",
            )


class TestValidation:
    @pytest.mark.parametrize("sizes, counts, needle", [
        ((1.0, 2.0), (1.0,), "equal length"),
        ((), (), "at least one size"),
        ((-1.0, 2.0), (1.0, 1.0), "non-negative"),
        ((1.0, 1.0), (1.0, 1.0), "strictly increasing"),
        ((1.0, 2.0), (0.0, 0.0), "positive total count"),
    ])
    def test_rejects_each_malformed_distribution(self, sizes, counts, needle):
        with pytest.raises(ParameterError, match=needle):
            GranularityDistribution(sizes=sizes, counts=counts)

    @pytest.mark.parametrize("edges, counts, needle", [
        ((64, 64, 256), (1, 1), "increasing"),
        ((64, 256, 1024), (1, -1), "non-negative"),
    ])
    def test_rejects_each_malformed_histogram(self, edges, counts, needle):
        with pytest.raises(ParameterError, match=needle):
            GranularityDistribution.from_histogram(edges, counts)

    @pytest.mark.parametrize("total", [0.0, -5.0])
    def test_scaling_rejects_nonpositive_total(self, simple_dist, total):
        with pytest.raises(ParameterError, match="total_count"):
            simple_dist.scaled_to(total)

    def test_sub_byte_bin_is_clamped_to_one_byte(self):
        dist = GranularityDistribution.from_histogram([0, 1, 4], [3, 1])
        assert dist.sizes == (1.0, 2.0)
