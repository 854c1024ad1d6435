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
