"""Unit tests for latency-SLO admission checks."""

import pytest

from repro.application import check_slo
from repro.core import (
    Accelerometer,
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ThreadingDesign,
)
from repro.errors import ParameterError


def scenario(design=ThreadingDesign.SYNC_OS, placement=Placement.OFF_CHIP,
             o1=2_000.0, alpha=0.3, a=4.0, n=100.0):
    return OffloadScenario(
        kernel=KernelProfile(1e6, alpha, n),
        accelerator=AcceleratorSpec(a, placement),
        costs=OffloadCosts(dispatch_cycles=5, interface_cycles=10,
                           thread_switch_cycles=o1),
        design=design,
    )


class TestCheckSlo:
    def test_admissible_when_latency_improves(self):
        s = scenario(ThreadingDesign.SYNC, o1=0.0)
        check = check_slo(s, baseline_latency_cycles=10_000, slo_cycles=10_000)
        assert check.admissible
        assert check.latency_change_pct < 0

    def test_violation_detected(self):
        # Sync-OS with massive o1: latency gets worse.
        s = scenario(o1=5_000.0, n=200)
        check = check_slo(s, baseline_latency_cycles=10_000, slo_cycles=10_000)
        assert not check.admissible
        assert check.headroom_cycles < 0

    def test_extra_delay_counts_against_slo(self):
        s = scenario(ThreadingDesign.SYNC, o1=0.0)
        without = check_slo(s, 10_000, 10_000)
        with_delay = check_slo(s, 10_000, 10_000,
                               extra_delay_cycles=5_000)
        assert with_delay.projected_latency_cycles == pytest.approx(
            without.projected_latency_cycles + 5_000
        )

    def test_ads1_style_tradeoff(self):
        """Remote inference with A = 1: latency headroom must absorb the
        ~10 ms network hop, so the SLO needs slack."""
        s = OffloadScenario(
            kernel=KernelProfile(2.5e9, 0.52, 10),
            accelerator=AcceleratorSpec(1.0, Placement.REMOTE),
            costs=OffloadCosts(dispatch_cycles=25_000_000,
                               thread_switch_cycles=12_500),
            design=ThreadingDesign.ASYNC_DISTINCT_THREAD,
        )
        baseline = 2.5e6  # one request's cycles
        network_delay = 25_000_000  # ~10 ms at 2.5 GHz
        tight = check_slo(s, baseline, slo_cycles=baseline,
                          extra_delay_cycles=network_delay)
        assert not tight.admissible  # the paper's latency degradation
        generous = check_slo(s, baseline, slo_cycles=baseline + 3e7,
                             extra_delay_cycles=network_delay)
        assert generous.admissible

    def test_rejects_bad_inputs(self):
        s = scenario()
        with pytest.raises(ParameterError):
            check_slo(s, 0, 100)
        with pytest.raises(ParameterError):
            check_slo(s, 100, 0)
        with pytest.raises(ParameterError):
            check_slo(s, 100, 100, extra_delay_cycles=-1)


DESIGNS = list(ThreadingDesign)


class TestCheckSloAcrossDesigns:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_projection_is_baseline_over_model_latency_reduction(self, design):
        s = scenario(design)
        check = check_slo(s, 10_000, 10_000, extra_delay_cycles=700)
        reduction = Accelerometer().latency_reduction(s)
        assert check.projected_latency_cycles == 10_000 / reduction + 700

    @pytest.mark.parametrize("design", DESIGNS)
    def test_slo_equal_to_projection_is_admissible(self, design):
        projected = check_slo(scenario(design), 10_000, 10_000)\
            .projected_latency_cycles
        exact = check_slo(scenario(design), 10_000, slo_cycles=projected)
        assert exact.admissible
        assert exact.headroom_cycles == 0.0

    @pytest.mark.parametrize("design", DESIGNS)
    def test_slo_just_below_projection_is_violated(self, design):
        projected = check_slo(scenario(design), 10_000, 10_000)\
            .projected_latency_cycles
        tight = check_slo(scenario(design), 10_000,
                          slo_cycles=projected * (1 - 1e-9))
        assert not tight.admissible
        assert tight.headroom_cycles < 0

    @pytest.mark.parametrize("design", DESIGNS)
    def test_latency_change_sign_follows_latency_reduction(self, design):
        s = scenario(design)
        check = check_slo(s, 10_000, 10_000)
        faster = Accelerometer().latency_reduction(s) > 1.0
        assert (check.latency_change_pct < 0) == faster
        assert check.latency_change_pct == pytest.approx(
            (check.projected_latency_cycles / 10_000 - 1.0) * 100.0)

    @pytest.mark.parametrize("args, kwargs, needle", [
        ((0, 100), {}, "baseline"),
        ((-1, 100), {}, "baseline"),
        ((100, 0), {}, "SLO"),
        ((100, -1), {}, "SLO"),
        ((100, 100), {"extra_delay_cycles": -1}, "extra delay"),
    ])
    def test_rejects_each_bad_input(self, args, kwargs, needle):
        with pytest.raises(ParameterError, match=needle):
            check_slo(scenario(), *args, **kwargs)
