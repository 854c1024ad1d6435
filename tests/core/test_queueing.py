"""Unit tests for the queueing-delay estimators behind Q."""

import pytest

from repro.core import mmk_wait_cycles, utilization
from repro.core.queueing import mm1_wait_cycles
from repro.errors import ParameterError


class TestUtilization:
    def test_basic(self):
        # 1000 offloads/unit x 1e6 cycles each over 2e9 cycles = 50% busy.
        assert utilization(1000, 1e6, 2e9) == pytest.approx(0.5)

    def test_servers_divide_load(self):
        single = utilization(1000, 1e6, 2e9, servers=1)
        assert utilization(1000, 1e6, 2e9, servers=4) == pytest.approx(single / 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            utilization(-1, 1, 1)
        with pytest.raises(ParameterError):
            utilization(1, 1, 0)


class TestMM1:
    def test_formula(self):
        # rho = 0.5 -> Wq = S
        rate = 1e9 / 1e6 / 2  # rho = rate * S / C = 0.5
        assert mm1_wait_cycles(rate, 1e6, 1e9) == pytest.approx(1e6)

    def test_grows_without_bound_near_saturation(self):
        low = mm1_wait_cycles(100, 1e6, 1e9)
        high = mm1_wait_cycles(990, 1e6, 1e9)
        assert high > 50 * low

    def test_unstable_raises(self):
        with pytest.raises(ParameterError):
            mm1_wait_cycles(1000, 1e6, 1e9)


class TestMMK:
    def test_reduces_to_mm1_for_one_server(self):
        rate = 400
        assert mmk_wait_cycles(rate, 1e6, 1e9, servers=1) == pytest.approx(
            mm1_wait_cycles(rate, 1e6, 1e9)
        )

    def test_more_servers_less_waiting(self):
        rate = 1500  # rho = 0.75 at 2 servers
        two = mmk_wait_cycles(rate, 1e6, 1e9, servers=2)
        four = mmk_wait_cycles(rate, 1e6, 1e9, servers=4)
        assert four < two

    def test_zero_rate_no_wait(self):
        assert mmk_wait_cycles(0, 1e6, 1e9, servers=2) == 0.0

    def test_unstable_raises(self):
        with pytest.raises(ParameterError):
            mmk_wait_cycles(4000, 1e6, 1e9, servers=2)


RHOS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
SERVER_COUNTS = [1, 2, 4, 8]
S, C = 1e6, 1e9


def _rate_for(rho, servers=1, service=S, total=C):
    """Offload rate that puts *servers* engines at utilization *rho*."""
    return rho * servers * total / service


class TestClosedForms:
    @pytest.mark.parametrize("rho", RHOS)
    def test_mm1_is_rho_over_one_minus_rho_services(self, rho):
        assert mm1_wait_cycles(_rate_for(rho), S, C) == pytest.approx(
            rho / (1.0 - rho) * S, rel=1e-12)

    @pytest.mark.parametrize("rho", RHOS)
    def test_one_server_erlang_c_is_mm1(self, rho):
        rate = _rate_for(rho)
        assert mmk_wait_cycles(rate, S, C, servers=1) == pytest.approx(
            mm1_wait_cycles(rate, S, C), rel=1e-12)

    @pytest.mark.parametrize("rho", RHOS)
    def test_two_servers_match_textbook_mm2(self, rho):
        """M/M/2: P(wait) = 2 rho^2 / (1 + rho), so Wq = rho^2 S / (1 - rho^2)."""
        rate = _rate_for(rho, servers=2)
        assert mmk_wait_cycles(rate, S, C, servers=2) == pytest.approx(
            rho**2 / (1.0 - rho**2) * S, rel=1e-12)


class TestErlangCLaws:
    @pytest.mark.parametrize("servers", SERVER_COUNTS)
    def test_wait_strictly_increases_with_load(self, servers):
        waits = [mmk_wait_cycles(_rate_for(rho, servers), S, C, servers)
                 for rho in RHOS]
        assert all(a < b for a, b in zip(waits, waits[1:]))

    @pytest.mark.parametrize("servers", SERVER_COUNTS)
    def test_wait_scales_with_service_time_at_fixed_utilization(self, servers):
        base = mmk_wait_cycles(_rate_for(0.6, servers), S, C, servers)
        slower = mmk_wait_cycles(
            _rate_for(0.6, servers, service=10 * S), 10 * S, C, servers)
        assert slower == pytest.approx(10.0 * base, rel=1e-12)

    @pytest.mark.parametrize("servers", SERVER_COUNTS)
    def test_wait_is_below_mm1_at_equal_utilization(self, servers):
        """k engines at utilization rho wait no longer than one engine at
        the same rho: pooling only shortens the queue."""
        rho = 0.8
        pooled = mmk_wait_cycles(_rate_for(rho, servers), S, C, servers)
        assert pooled <= mm1_wait_cycles(_rate_for(rho), S, C) * (1 + 1e-12)

    @pytest.mark.parametrize("fewer,more", [(1, 2), (2, 3), (3, 4), (4, 8),
                                            (8, 16)])
    def test_more_servers_wait_less_for_the_same_traffic(self, fewer, more):
        rate = _rate_for(0.9)  # 0.9 Erlang of offered load
        assert (mmk_wait_cycles(rate, S, C, servers=more)
                < mmk_wait_cycles(rate, S, C, servers=fewer))

    @pytest.mark.parametrize("servers", [0, -1])
    def test_rejects_fewer_than_one_server(self, servers):
        with pytest.raises(ParameterError, match="servers"):
            mmk_wait_cycles(1.0, S, C, servers=servers)

    @pytest.mark.parametrize("servers", SERVER_COUNTS)
    def test_zero_service_time_waits_nothing(self, servers):
        assert mmk_wait_cycles(1.0e6, 0.0, C, servers=servers) == 0.0


class TestUtilizationValidation:
    @pytest.mark.parametrize("kwargs, needle", [
        (dict(offload_rate=-1.0, service_cycles=S, total_cycles=C),
         "offload_rate"),
        (dict(offload_rate=1.0, service_cycles=-1.0, total_cycles=C),
         "service_cycles"),
        (dict(offload_rate=1.0, service_cycles=S, total_cycles=0.0),
         "total_cycles"),
        (dict(offload_rate=1.0, service_cycles=S, total_cycles=-C),
         "total_cycles"),
        (dict(offload_rate=1.0, service_cycles=S, total_cycles=C, servers=0),
         "servers"),
    ])
    def test_rejects_each_bad_argument(self, kwargs, needle):
        with pytest.raises(ParameterError, match=needle):
            utilization(**kwargs)

    @pytest.mark.parametrize("servers", SERVER_COUNTS)
    def test_inverts_rate_for_utilization(self, servers):
        assert utilization(_rate_for(0.37, servers), S, C, servers) == (
            pytest.approx(0.37, rel=1e-12))
