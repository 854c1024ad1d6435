"""Unit tests for host-accelerator interface models."""

import pytest

from repro.core import Placement
from repro.errors import ParameterError
from repro.simulator import InterfaceModel


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


PLACEMENTS = list(Placement)


class TestAcrossPlacements:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_transfer_is_affine_in_granularity(self, placement):
        interface = InterfaceModel(placement, transfer_base_cycles=40.0,
                                   transfer_cycles_per_byte=0.25)
        base = interface.transfer_cycles(0)
        assert base == 40.0
        assert (interface.transfer_cycles(4096) - base
                == 2 * (interface.transfer_cycles(2048) - base))

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_default_link_is_free(self, placement):
        interface = InterfaceModel(placement)
        assert interface.dispatch_cycles == 0.0
        assert interface.transfer_cycles(1 << 20) == 0.0
        assert interface.mean_transfer_cycles(512.0) == 0.0

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_mean_transfer_rejects_negative_mean(self, placement):
        with pytest.raises(ParameterError, match="granularity"):
            InterfaceModel(placement).mean_transfer_cycles(-0.5)

    @pytest.mark.parametrize("field", ["dispatch_cycles",
                                       "transfer_base_cycles",
                                       "transfer_cycles_per_byte"])
    def test_rejects_each_negative_cost(self, field):
        with pytest.raises(ParameterError, match=field):
            InterfaceModel(Placement.OFF_CHIP, **{field: -1e-9})
