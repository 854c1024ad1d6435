"""Acceptance tests for the degraded-mode resilience study.

The headline criterion of the fault-injection PR: the seeded
fault-injection simulator and the closed-form degraded equations must
agree within 2% across a failure-rate x timeout grid.  A longer window
than the CLI default is used so sampling noise does not eat the margin.
"""

import pytest

from repro.application.resilience import (
    ads1_resilience_sweep,
    resilience_grid,
    run_resilience_point,
)
from repro.core.strategies import ThreadingDesign
from repro.errors import ParameterError

#: Long enough that the worst grid cell sits well inside the 2% bound.
_WINDOW = 2.4e7


class TestGridAcceptance:
    def test_sync_grid_matches_closed_form_within_2_pct(self):
        """Simulated degraded speedup tracks the model on the full
        3x3 (drop probability, timeout) grid."""
        grid = resilience_grid(seed=0, window_cycles=_WINDOW)
        assert len(grid.points) == 9
        assert grid.max_error_pct <= 2.0
        assert grid.mean_error_pct <= 1.0
        assert grid.worst_point().error_pct == grid.max_error_pct

    def test_async_distinct_thread_grid_matches_closed_form(self):
        """The design's response handler switches threads for free, as
        the model side assumes (o1 = 0)."""
        grid = resilience_grid(
            seed=0, design=ThreadingDesign.ASYNC_DISTINCT_THREAD
        )
        assert len(grid.points) == 9
        assert grid.max_error_pct <= 2.0
        assert all(point.retries > 0 for point in grid.points)

    def test_grid_covers_the_cartesian_product(self):
        grid = resilience_grid(
            drop_probabilities=(0.05, 0.2), timeout_cycles=(1_000.0,),
            seed=0, window_cycles=2.0e6,
        )
        cells = {(p.drop_probability, p.timeout_cycles) for p in grid.points}
        assert cells == {(0.05, 1_000.0), (0.2, 1_000.0)}

    @pytest.mark.parametrize("axis", [
        dict(drop_probabilities=()),
        dict(timeout_cycles=()),
    ])
    def test_empty_axes_rejected(self, axis):
        with pytest.raises(ParameterError):
            resilience_grid(**axis)


class TestPointSemantics:
    def test_faults_erode_the_simulated_speedup(self):
        healthy = run_resilience_point(
            drop_probability=0.0, timeout_cycles=0.0,
            max_retries=0, window_cycles=4.0e6, seed=0,
        )
        degraded = run_resilience_point(
            drop_probability=0.2, timeout_cycles=8_000.0,
            window_cycles=4.0e6, seed=0,
        )
        assert degraded.simulated_speedup < healthy.simulated_speedup
        assert degraded.model_speedup < healthy.model_speedup
        assert degraded.fallbacks > 0
        assert degraded.goodput_fraction < healthy.goodput_fraction

    def test_healthy_point_reports_no_fault_activity(self):
        point = run_resilience_point(
            drop_probability=0.0, timeout_cycles=0.0,
            max_retries=0, window_cycles=4.0e6, seed=0,
        )
        assert point.retries == 0
        assert point.fallbacks == 0
        assert point.goodput_fraction == 1.0

    def test_every_fault_field_reaches_the_injector(self):
        cell = dict(drop_probability=0.2, timeout_cycles=2_000.0,
                    window_cycles=4.0e6, seed=0)
        assert run_resilience_point(**cell).fallbacks > 0
        assert run_resilience_point(fallback_to_cpu=False, **cell).fallbacks == 0
        spiky = run_resilience_point(
            spike_probability=0.3, spike_cycles=5_000.0, **cell)
        assert spiky.simulated_speedup != run_resilience_point(
            **cell).simulated_speedup

    def test_speedup_percent_views(self):
        point = run_resilience_point(
            drop_probability=0.05, timeout_cycles=1_000.0,
            window_cycles=4.0e6, seed=0,
        )
        assert point.model_speedup_pct == pytest.approx(
            (point.model_speedup - 1.0) * 100.0
        )
        assert point.simulated_speedup_pct == pytest.approx(
            (point.simulated_speedup - 1.0) * 100.0
        )


class TestAds1Sweep:
    def test_zero_drop_rate_reproduces_the_healthy_estimate(self):
        """At p = 0 the sweep must collapse onto Table 6's 72.39%
        model estimate for the Ads1 remote-inference offload."""
        points = ads1_resilience_sweep(drop_probabilities=(0.0,),
                                       timeout_cycles=(2.5e7,))
        (point,) = points
        assert point.erosion_pp == 0.0
        assert point.degraded_speedup_pct == point.healthy_speedup_pct
        assert point.healthy_speedup_pct == pytest.approx(72.39, abs=0.1)

    def test_erosion_monotone_in_drop_probability(self):
        drops = (0.0, 0.01, 0.05, 0.1, 0.2)
        points = ads1_resilience_sweep(drop_probabilities=drops,
                                       timeout_cycles=(2.5e7,))
        erosions = [point.erosion_pp for point in points]
        assert erosions == sorted(erosions)
        assert erosions[0] == 0.0
        assert erosions[-1] > 0.0

    def test_timeout_does_not_erode_throughput_for_async_offload(self):
        """Ads1 offloads asynchronously on a distinct thread; timeouts
        are waited out off-core, so throughput erosion is flat in the
        timeout axis (unlike Sync, where the grid test above bites)."""
        short, long = (
            ads1_resilience_sweep(drop_probabilities=(0.1,),
                                  timeout_cycles=(t,))[0]
            for t in (2.5e7, 1.0e8)
        )
        assert short.degraded_speedup_pct == long.degraded_speedup_pct

    def test_fallback_erodes_more_throughput_than_dropping(self):
        """Re-running the inference on the host costs host cycles, so
        fallback erodes *throughput* more than silently losing the
        offload does -- the price of dropping shows up as lost goodput,
        which the throughput equations deliberately do not credit."""
        with_fb = ads1_resilience_sweep(
            drop_probabilities=(0.2,), timeout_cycles=(2.5e7,),
            fallback_to_cpu=True,
        )[0]
        without_fb = ads1_resilience_sweep(
            drop_probabilities=(0.2,), timeout_cycles=(2.5e7,),
            fallback_to_cpu=False,
        )[0]
        assert with_fb.erosion_pp >= without_fb.erosion_pp
        assert with_fb.erosion_pp > 0.0
