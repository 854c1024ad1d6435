"""Tests for the measured-vs-published comparison helpers."""

from repro.characterization import compare_breakdown, fig9_functionality_breakdown
from repro.paperdata.breakdowns import FUNCTIONALITY_BREAKDOWN


class TestCompareBreakdown:
    def test_identical_breakdowns(self):
        published = {"a": 60, "b": 40}
        comparison = compare_breakdown("svc", "figX", published, published)
        assert comparison.l1 == 0.0
        assert comparison.dominant_match
        assert comparison.rank_tau == 1.0
        assert comparison.acceptable()

    def test_dominant_mismatch_not_acceptable(self):
        comparison = compare_breakdown(
            "svc", "figX", {"a": 60, "b": 40}, {"a": 40, "b": 60}
        )
        assert not comparison.dominant_match
        assert not comparison.acceptable()

    def test_small_categories_ignored_in_rank(self):
        measured = {"a": 60, "b": 39, "tiny": 1}
        published = {"a": 60, "b": 39.5, "tiny": 0.5}
        comparison = compare_breakdown(
            "svc", "figX", measured, published, min_share_for_rank=0.02
        )
        assert comparison.rank_tau == 1.0

    def test_cache1_fig9_comparison_accepts(self, cache1_run):
        measured = fig9_functionality_breakdown(cache1_run)
        comparison = compare_breakdown(
            "cache1", "fig9", measured, FUNCTIONALITY_BREAKDOWN["cache1"]
        )
        assert comparison.acceptable()
        assert comparison.rank_tau > 0.8
