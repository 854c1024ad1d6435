"""Unit tests for the Amdahl and LogCA baseline models."""

import math

import pytest

from repro.core import amdahl_ceiling
from repro.core.baselines import LogCA, amdahl_speedup
from repro.core import equations as eq
from repro.errors import ParameterError


class TestAmdahl:
    def test_basic(self):
        assert amdahl_speedup(0.5, 2) == pytest.approx(1 / 0.75)

    def test_ceiling(self):
        assert amdahl_ceiling(0.75) == pytest.approx(4.0)

    def test_speedup_approaches_ceiling(self):
        assert amdahl_speedup(0.75, 1e9) == pytest.approx(4.0, rel=1e-6)

    def test_local_slowdown_propagates(self):
        assert amdahl_speedup(0.5, 0.5) < 1.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            amdahl_speedup(1.5, 2)
        with pytest.raises(ParameterError):
            amdahl_ceiling(1.0)


class TestLogCA:
    MODEL = LogCA(latency=100, overhead=50, computational_index=2.0,
                  acceleration=10.0)

    def test_host_time(self):
        assert self.MODEL.host_time(100) == 200

    def test_accelerated_time(self):
        assert self.MODEL.accelerated_time(100) == 150 + 20

    def test_kernel_speedup_crosses_one_at_breakeven(self):
        g1 = self.MODEL.g_breakeven()
        assert self.MODEL.kernel_speedup(g1) == pytest.approx(1.0)
        assert self.MODEL.kernel_speedup(g1 * 2) > 1.0
        assert self.MODEL.kernel_speedup(g1 / 2) < 1.0

    def test_g_breakeven_value(self):
        # C*g*(1-1/A) = o+L  =>  2*g*0.9 = 150  =>  g = 83.33
        assert self.MODEL.g_breakeven() == pytest.approx(150 / 1.8)

    def test_g_half_peak(self):
        g_half = self.MODEL.g_half_peak()
        assert self.MODEL.kernel_speedup(g_half) == pytest.approx(
            self.MODEL.acceleration / 2
        )

    def test_speedup_approaches_a_for_large_g(self):
        assert self.MODEL.kernel_speedup(1e9) == pytest.approx(10.0, rel=1e-4)

    def test_no_overhead_breakeven_is_zero(self):
        model = LogCA(0, 0, 2.0, 10.0)
        assert model.g_breakeven() == 0.0

    def test_a_leq_one_never_breaks_even(self):
        model = LogCA(100, 0, 2.0, 1.0)
        assert math.isinf(model.g_breakeven())

    def test_application_speedup_matches_accelerometer_sync(self):
        """LogCA folded through Amdahl agrees with Accelerometer's Sync
        equation -- the paper's claim that it extends prior models."""
        alpha, g, n_over_c = 0.3, 1000.0, None
        logca_value = self.MODEL.application_speedup(alpha, g)
        # Accelerometer Sync with per-offload overheads expressed in the
        # same per-kernel terms: C = host kernel time / alpha scaled so
        # n = 1 offload per unit.
        kernel_host = self.MODEL.host_time(g)
        c = kernel_host / alpha
        sync = eq.sync_speedup(
            c=c, alpha=alpha, a=10.0, n=1,
            o0=self.MODEL.overhead, l=self.MODEL.latency, q=0.0,
        )
        assert logca_value == pytest.approx(sync)

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            LogCA(-1, 0, 1, 1)
        with pytest.raises(ParameterError):
            LogCA(0, 0, 0, 1)
