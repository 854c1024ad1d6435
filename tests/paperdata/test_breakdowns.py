"""Consistency tests for the transcribed/reconstructed paper breakdowns.

These tests are the executable form of the dataset's provenance
guarantees: every breakdown sums to 100, and every prose anchor the paper
states is honored exactly.
"""

import pytest

from repro.paperdata import (
    CLIB_BREAKDOWN,
    COPY_ORIGINS,
    FB_SERVICES,
    FUNCTIONALITY_BREAKDOWN,
    KERNEL_BREAKDOWN,
    LEAF_BREAKDOWN,
    MEMORY_BREAKDOWN,
    ORCHESTRATION_SPLIT,
    SYNC_BREAKDOWN,
)
from repro.paperdata.breakdowns import SPEC_BENCHMARKS
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L


class TestSums:
    @pytest.mark.parametrize("service", list(FUNCTIONALITY_BREAKDOWN))
    def test_functionality_sums_to_100(self, service):
        assert sum(FUNCTIONALITY_BREAKDOWN[service].values()) == 100

    @pytest.mark.parametrize("service", list(LEAF_BREAKDOWN))
    def test_leaf_sums_to_100(self, service):
        assert sum(LEAF_BREAKDOWN[service].values()) == 100

    @pytest.mark.parametrize(
        "dataset",
        [MEMORY_BREAKDOWN, KERNEL_BREAKDOWN, SYNC_BREAKDOWN, CLIB_BREAKDOWN,
         COPY_ORIGINS],
        ids=["memory", "kernel", "sync", "clib", "copy-origins"],
    )
    def test_sub_breakdowns_sum_to_100(self, dataset):
        for service, breakdown in dataset.items():
            assert sum(breakdown.values()) == 100, service


class TestProseAnchors:
    def test_web_application_logic_is_18_percent(self):
        assert FUNCTIONALITY_BREAKDOWN["web"][F.APPLICATION_LOGIC] == 18

    def test_web_logging_is_23_percent(self):
        assert FUNCTIONALITY_BREAKDOWN["web"][F.LOGGING] == 23

    def test_cache2_io_is_52_percent(self):
        assert FUNCTIONALITY_BREAKDOWN["cache2"][F.IO] == 52

    def test_feed1_prediction_gives_149x_ideal(self):
        alpha = FUNCTIONALITY_BREAKDOWN["feed1"][F.PREDICTION_RANKING] / 100
        assert 1 / (1 - alpha) == pytest.approx(1.49, abs=0.01)

    def test_ads2_prediction_gives_238x_ideal(self):
        alpha = FUNCTIONALITY_BREAKDOWN["ads2"][F.PREDICTION_RANKING] / 100
        assert 1 / (1 - alpha) == pytest.approx(2.38, abs=0.01)

    def test_ads1_prediction_matches_case_study_alpha(self):
        assert FUNCTIONALITY_BREAKDOWN["ads1"][F.PREDICTION_RANKING] == 52

    def test_feed1_compression_matches_table7_alpha(self):
        assert FUNCTIONALITY_BREAKDOWN["feed1"][F.COMPRESSION] == 15

    @pytest.mark.parametrize("service", ["feed1", "feed2", "ads1", "ads2"])
    def test_ml_orchestration_in_42_to_67_range(self, service):
        breakdown = FUNCTIONALITY_BREAKDOWN[service]
        orchestration = 100 - breakdown[F.PREDICTION_RANKING] - breakdown[
            F.APPLICATION_LOGIC
        ]
        assert 42 <= orchestration <= 67

    def test_web_memory_is_37_percent(self):
        assert LEAF_BREAKDOWN["web"][L.MEMORY] == 37

    def test_cache1_ssl_is_6_percent(self):
        assert LEAF_BREAKDOWN["cache1"][L.SSL] == 6

    def test_ads2_and_feed2_math_at_most_13_percent(self):
        assert LEAF_BREAKDOWN["ads2"][L.MATH] <= 13
        assert LEAF_BREAKDOWN["feed2"][L.MATH] <= 13
        assert max(LEAF_BREAKDOWN["ads2"][L.MATH],
                   LEAF_BREAKDOWN["feed2"][L.MATH]) == 13

    def test_caches_have_highest_kernel_shares(self):
        kernel_shares = {
            service: LEAF_BREAKDOWN[service][L.KERNEL] for service in FB_SERVICES
        }
        top_two = sorted(kernel_shares, key=kernel_shares.get, reverse=True)[:2]
        assert set(top_two) == {"cache1", "cache2"}

    def test_ads1_copy_alpha_matches_table7(self):
        """28% memory x 54% copy = 0.1512, Table 7's exact alpha."""
        memory = LEAF_BREAKDOWN["ads1"][L.MEMORY] / 100
        copy_share = MEMORY_BREAKDOWN["ads1"]["copy"] / 100
        assert memory * copy_share == pytest.approx(0.1512)

    def test_cache1_alloc_alpha_matches_table7(self):
        """26% memory x 20% alloc = 0.052 ~ Table 7's 0.055."""
        memory = LEAF_BREAKDOWN["cache1"][L.MEMORY] / 100
        alloc_share = MEMORY_BREAKDOWN["cache1"]["alloc"] / 100
        assert memory * alloc_share == pytest.approx(0.055, abs=0.005)

    def test_google_memory_is_copy_and_alloc_only(self):
        google = MEMORY_BREAKDOWN["google"]
        assert google["copy"] + google["alloc"] == 100
        assert google["free"] == google["move"] == 0

    def test_omnetpp_allocation_about_5_percent_of_total(self):
        total = (
            LEAF_BREAKDOWN["471.omnetpp"][L.MEMORY]
            * MEMORY_BREAKDOWN["471.omnetpp"]["alloc"] / 100
        )
        assert total == pytest.approx(5, abs=1)

    def test_gcc_copies_little_despite_high_memory(self):
        assert LEAF_BREAKDOWN["403.gcc"][L.MEMORY] == 31
        assert MEMORY_BREAKDOWN["403.gcc"]["copy"] < 15

    def test_copy_dominates_memory_for_all_services(self):
        for service in FB_SERVICES:
            breakdown = MEMORY_BREAKDOWN[service]
            assert breakdown["copy"] == max(breakdown.values()), service

    def test_cache_spin_lock_heavy(self):
        assert SYNC_BREAKDOWN["cache1"]["spin_lock"] >= 50
        assert SYNC_BREAKDOWN["cache2"]["spin_lock"] >= 50
        for service in ("web", "feed1", "feed2", "ads1", "ads2"):
            assert SYNC_BREAKDOWN[service]["spin_lock"] == 0

    def test_ml_services_vector_heavy(self):
        for service in ("feed2", "ads1", "ads2"):
            assert CLIB_BREAKDOWN[service]["vectors"] >= 30

    def test_web_string_and_hash_heavy(self):
        web = CLIB_BREAKDOWN["web"]
        assert web["strings"] + web["hash_tables"] >= 50

    def test_cache_scheduler_or_network_heavy_kernel(self):
        assert KERNEL_BREAKDOWN["cache1"]["scheduler"] >= 30
        assert KERNEL_BREAKDOWN["cache2"]["network"] >= 40

    def test_google_kernel_reports_scheduler_only(self):
        google = KERNEL_BREAKDOWN["google"]
        assert google["scheduler"] == 100


class TestOrchestrationSplit:
    def test_covers_all_services(self):
        assert set(ORCHESTRATION_SPLIT) == set(FB_SERVICES)

    def test_splits_sum_to_100(self):
        for split in ORCHESTRATION_SPLIT.values():
            assert split["application_logic"] + split["orchestration"] == 100

    def test_orchestration_dominates_except_ml(self):
        # The headline of Fig. 1: Web and the caches spend ~80% on
        # orchestration.
        for service in ("web", "cache1", "cache2"):
            assert ORCHESTRATION_SPLIT[service]["orchestration"] >= 75

    def test_web_minimum_application_logic(self):
        assert ORCHESTRATION_SPLIT["web"]["application_logic"] == 18


class TestReferenceRows:
    def test_spec_rows_present(self):
        for benchmark in SPEC_BENCHMARKS:
            assert benchmark in LEAF_BREAKDOWN
            assert benchmark in MEMORY_BREAKDOWN

    def test_spec_has_no_kernel_or_ssl(self):
        for benchmark in SPEC_BENCHMARKS:
            assert LEAF_BREAKDOWN[benchmark][L.KERNEL] == 0
            assert LEAF_BREAKDOWN[benchmark][L.SSL] == 0

    def test_spec_memory_column_digitized_values(self):
        assert LEAF_BREAKDOWN["473.astar"][L.MEMORY] == 3
        assert LEAF_BREAKDOWN["471.omnetpp"][L.MEMORY] == 11
        assert LEAF_BREAKDOWN["403.gcc"][L.MEMORY] == 31
        assert LEAF_BREAKDOWN["400.perlbench"][L.MEMORY] == 6

    def test_google_memory_13_percent(self):
        assert LEAF_BREAKDOWN["google"][L.MEMORY] == 13
