"""Latency-SLO admission checks for acceleration plans.

The paper: "service operators can use the ... latency reduction equation
to ensure that the latency SLO is not violated" -- Sync-OS in particular
can buy throughput at a per-request latency *slowdown*, and remote
offloads add network traversal delay (Ads1 pays ~10 ms) that never shows
in host cycles.  :func:`check_slo` answers the operator question
directly: does this plan, plus any extra network delay, meet the SLO?
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.model import Accelerometer
from ..core.params import OffloadScenario
from ..errors import ParameterError


@dataclasses.dataclass(frozen=True)
class SloCheck:
    """Outcome of checking one plan against a latency SLO."""

    scenario: OffloadScenario
    baseline_latency_cycles: float
    slo_cycles: float
    projected_latency_cycles: float
    extra_delay_cycles: float

    @property
    def admissible(self) -> bool:
        return self.projected_latency_cycles <= self.slo_cycles

    @property
    def headroom_cycles(self) -> float:
        """Positive when under the SLO; negative when violating it."""
        return self.slo_cycles - self.projected_latency_cycles

    @property
    def latency_change_pct(self) -> float:
        """Projected per-request latency change vs baseline (negative =
        faster)."""
        return (
            self.projected_latency_cycles / self.baseline_latency_cycles - 1.0
        ) * 100.0


def check_slo(
    scenario: OffloadScenario,
    baseline_latency_cycles: float,
    slo_cycles: float,
    extra_delay_cycles: float = 0.0,
    model: Optional[Accelerometer] = None,
) -> SloCheck:
    """Project the accelerated per-request latency and compare to the SLO.

    *extra_delay_cycles* captures delay outside the host-cycle model --
    chiefly the network traversal of remote offloads (the paper's ~10 ms
    for Ads1), expressed in host-clock cycles for unit consistency.
    """
    if baseline_latency_cycles <= 0:
        raise ParameterError("baseline latency must be positive")
    if slo_cycles <= 0:
        raise ParameterError("SLO must be positive")
    if extra_delay_cycles < 0:
        raise ParameterError("extra delay must be non-negative")
    model = model or Accelerometer()
    reduction = model.latency_reduction(scenario)
    projected = baseline_latency_cycles / reduction + extra_delay_cycles
    return SloCheck(
        scenario=scenario,
        baseline_latency_cycles=baseline_latency_cycles,
        slo_cycles=slo_cycles,
        projected_latency_cycles=projected,
        extra_delay_cycles=extra_delay_cycles,
    )
