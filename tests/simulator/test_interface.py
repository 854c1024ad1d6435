"""Unit tests for host-accelerator interface models."""

import pytest

from repro.core import Placement
from repro.errors import ParameterError
from repro.simulator import (
    InterfaceModel,
    network_interface,
    on_chip_interface,
    pcie_interface,
)


class TestTransferCycles:
    def test_unpipelined_scales_with_granularity(self):
        interface = InterfaceModel(
            Placement.OFF_CHIP, transfer_base_cycles=100,
            transfer_cycles_per_byte=0.5,
        )
        assert interface.transfer_cycles(0) == 100
        assert interface.transfer_cycles(200) == 200

    def test_mean_transfer_matches_mean_granularity(self):
        interface = InterfaceModel(
            Placement.OFF_CHIP, transfer_base_cycles=10,
            transfer_cycles_per_byte=2.0,
        )
        assert interface.mean_transfer_cycles(50) == 110

    def test_rejects_negative_granularity(self):
        with pytest.raises(ParameterError):
            InterfaceModel(Placement.OFF_CHIP).transfer_cycles(-1)

    def test_rejects_negative_costs(self):
        with pytest.raises(ParameterError):
            InterfaceModel(Placement.OFF_CHIP, dispatch_cycles=-1)


class TestPresets:
    def test_on_chip_is_free_transfer(self):
        interface = on_chip_interface(dispatch_cycles=10)
        assert interface.placement is Placement.ON_CHIP
        assert interface.transfer_cycles(10_000) == 0
        assert interface.dispatch_cycles == 10

    def test_pcie_is_us_scale(self):
        interface = pcie_interface()
        assert interface.placement is Placement.OFF_CHIP
        # ~1 us at 2 GHz for a small transfer.
        assert 1_000 <= interface.transfer_cycles(64) <= 10_000

    def test_network_is_ms_scale(self):
        interface = network_interface()
        assert interface.placement is Placement.REMOTE
        assert interface.transfer_cycles(64) >= 1_000_000

    def test_ordering_of_scales(self):
        g = 1024
        assert (
            on_chip_interface().transfer_cycles(g)
            < pcie_interface().transfer_cycles(g)
            < network_interface().transfer_cycles(g)
        )
