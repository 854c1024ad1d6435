"""Host-accelerator interface models.

The paper's "interface" abstraction carries the per-offload dispatch
overheads: kernel setup ``o0``, transfer latency ``L`` (unpipelined, so
proportional to granularity), and queueing ``Q`` (which our simulator
measures rather than assumes).  One :class:`InterfaceModel` instance
describes the link for one accelerator placement.
"""

from __future__ import annotations

import dataclasses

from ..core.strategies import Placement
from ..errors import ParameterError


@dataclasses.dataclass(frozen=True, slots=True)
class InterfaceModel:
    """Cost model for moving offloads between host and accelerator."""

    placement: Placement

    #: ``o0``: host cycles to prepare one offload.
    dispatch_cycles: float = 0.0

    #: Fixed component of the transfer latency ``L`` in host cycles.
    transfer_base_cycles: float = 0.0

    #: Per-byte component of ``L``.  The paper's systems are unpipelined
    #: (the accelerator needs the whole block before starting), so ``L``
    #: scales with g.
    transfer_cycles_per_byte: float = 0.0

    def __post_init__(self) -> None:
        if self.dispatch_cycles < 0:
            raise ParameterError("dispatch_cycles must be >= 0")
        if self.transfer_base_cycles < 0:
            raise ParameterError("transfer_base_cycles must be >= 0")
        if self.transfer_cycles_per_byte < 0:
            raise ParameterError("transfer_cycles_per_byte must be >= 0")

    def transfer_cycles(self, granularity_bytes: float) -> float:
        """``L`` for one offload of *granularity_bytes*."""
        if granularity_bytes < 0:
            raise ParameterError("granularity must be >= 0")
        return (
            self.transfer_base_cycles
            + self.transfer_cycles_per_byte * granularity_bytes
        )

    def mean_transfer_cycles(self, mean_granularity_bytes: float) -> float:
        """Average ``L`` under a granularity distribution with the given
        mean (exact for unpipelined transfers since L is linear in g)."""
        return self.transfer_cycles(mean_granularity_bytes)


def on_chip_interface(dispatch_cycles: float = 0.0) -> InterfaceModel:
    """ns-scale on-die offload: negligible transfer latency."""
    return InterfaceModel(
        placement=Placement.ON_CHIP,
        dispatch_cycles=dispatch_cycles,
        transfer_base_cycles=0.0,
        transfer_cycles_per_byte=0.0,
    )


def pcie_interface(
    dispatch_cycles: float = 0.0,
    base_cycles: float = 2_000.0,
    cycles_per_byte: float = 0.5,
) -> InterfaceModel:
    """us-scale PCIe offload: fixed DMA setup plus per-byte transfer.

    Defaults give ~1 us base latency at 2 GHz, the order of magnitude the
    paper cites for off-chip accelerators.
    """
    return InterfaceModel(
        placement=Placement.OFF_CHIP,
        dispatch_cycles=dispatch_cycles,
        transfer_base_cycles=base_cycles,
        transfer_cycles_per_byte=cycles_per_byte,
    )


def network_interface(
    dispatch_cycles: float = 0.0,
    base_cycles: float = 2_000_000.0,
    cycles_per_byte: float = 2.0,
) -> InterfaceModel:
    """ms-scale remote offload over commodity ethernet.

    Defaults give ~1 ms base latency at 2 GHz, the order of magnitude the
    paper cites for remote accelerators.
    """
    return InterfaceModel(
        placement=Placement.REMOTE,
        dispatch_cycles=dispatch_cycles,
        transfer_base_cycles=base_cycles,
        transfer_cycles_per_byte=cycles_per_byte,
    )
