"""Unit tests for closed-form parameter sensitivities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ThreadingDesign,
    sensitivity,
)
from repro.core.sensitivity import verify_elasticity_numerically
from repro.errors import ParameterError


def scenario(design=ThreadingDesign.SYNC, alpha=0.3, a=4.0, n=100.0,
             o0=5.0, l=10.0, q=2.0, o1=20.0):
    return OffloadScenario(
        kernel=KernelProfile(1e6, alpha, n),
        accelerator=AcceleratorSpec(a, Placement.OFF_CHIP),
        costs=OffloadCosts(dispatch_cycles=o0, interface_cycles=l,
                           queue_cycles=q, thread_switch_cycles=o1),
        design=design,
    )


class TestClosedFormVsNumerical:
    @pytest.mark.parametrize(
        "design",
        [ThreadingDesign.SYNC, ThreadingDesign.SYNC_OS, ThreadingDesign.ASYNC,
         ThreadingDesign.ASYNC_DISTINCT_THREAD],
    )
    @pytest.mark.parametrize("parameter", ["alpha", "A", "n", "o0", "L", "Q"])
    def test_matches_finite_difference(self, design, parameter):
        s = scenario(design)
        report = sensitivity(s)
        if design is not ThreadingDesign.SYNC and parameter == "A":
            # A does not enter the non-Sync speedup equations at all.
            assert report.elasticities["A"] == 0.0
            return
        numeric = verify_elasticity_numerically(s, parameter)
        assert report.elasticities[parameter] == pytest.approx(
            numeric, abs=1e-6
        )

    def test_o1_elasticity_sync_os(self):
        s = scenario(ThreadingDesign.SYNC_OS)
        report = sensitivity(s)
        numeric = verify_elasticity_numerically(s, "o1")
        assert report.elasticities["o1"] == pytest.approx(numeric, abs=1e-6)

    def test_o1_zero_for_plain_async(self):
        report = sensitivity(scenario(ThreadingDesign.ASYNC))
        assert report.elasticities["o1"] == 0.0


class TestSigns:
    @given(
        alpha=st.floats(min_value=0.05, max_value=0.9),
        a=st.floats(min_value=1.1, max_value=100),
        design=st.sampled_from(list(ThreadingDesign)),
    )
    def test_alpha_helps_overheads_hurt(self, alpha, a, design):
        report = sensitivity(scenario(design, alpha=alpha, a=a))
        assert report.elasticities["alpha"] >= 0
        assert report.elasticities["A"] >= 0
        for name in ("o0", "L", "Q", "o1", "n"):
            assert report.elasticities[name] <= 0, name

    def test_n_aggregates_per_offload_terms(self):
        report = sensitivity(scenario(ThreadingDesign.SYNC))
        total = sum(report.elasticities[k] for k in ("o0", "L", "Q"))
        assert report.elasticities["n"] == pytest.approx(total)


class TestReportHelpers:
    def test_most_sensitive_overhead(self):
        report = sensitivity(scenario(l=1_000.0, o0=1.0, q=0.0))
        assert report.most_sensitive_overhead() == "L"

    def test_ranked_sorted_by_magnitude(self):
        report = sensitivity(scenario())
        magnitudes = [abs(v) for _, v in report.ranked()]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_numeric_check_rejects_zero_parameter(self):
        with pytest.raises(ParameterError):
            verify_elasticity_numerically(scenario(q=0.0), "Q")

    def test_numeric_check_rejects_unknown(self):
        with pytest.raises(ParameterError):
            verify_elasticity_numerically(scenario(), "beta")
