"""Tests for quantified Table-4 recommendations."""

import pytest

from repro.application import quantify_recommendations


class TestQuantifyRecommendations:
    def test_cache1_kernel_bypass_dominates(self):
        """Cache1's biggest lever is its I/O + kernel overhead (Table 4's
        kernel-bypass row)."""
        options = quantify_recommendations("cache1")
        best = max(options.values(), key=lambda r: r.projected_speedup_pct)
        assert best.finding == "High kernel overhead and low IPC"
        assert options["kernel-bypass"].projected_speedup_pct > 20

    def test_web_logging_is_major(self):
        """Web's unusual 23% logging share makes log optimization a
        top-three lever."""
        options = quantify_recommendations("web")
        ranked = sorted(
            options.values(), key=lambda r: -r.projected_speedup_pct
        )
        top3_findings = [r.finding for r in ranked[:3]]
        assert "Logging overheads can dominate" in top3_findings

    def test_feed1_compression_significant(self):
        options = quantify_recommendations("feed1")
        assert options["compression"].projected_speedup_pct > 5

    def test_all_speedups_positive(self):
        for service in ("web", "feed1", "feed2", "ads1", "ads2", "cache1",
                        "cache2"):
            for rec in quantify_recommendations(service).values():
                assert rec.projected_speedup_pct > 0, (service, rec)

    def test_services_without_logging_skip_it(self):
        options = quantify_recommendations("cache1")
        assert "logging" not in options  # cache1 has no logging share

    def test_parameters_scale_projections(self):
        modest = quantify_recommendations("feed1", compression_speedup=2.0)
        aggressive = quantify_recommendations("feed1", compression_speedup=50.0)
        assert (
            aggressive["compression"].projected_speedup_pct
            > modest["compression"].projected_speedup_pct
        )

    def test_rejects_bad_fraction(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            quantify_recommendations("web", logging_reduction=1.5)


class TestCliRecommend:
    def test_recommend_command(self, capsys):
        from repro.cli import main

        main(["recommend", "--services", "cache1"])
        output = capsys.readouterr().out
        assert "kernel-bypass" in output
