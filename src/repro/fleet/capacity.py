"""Accelerator capacity planning.

Sec. 3 motivates the model with the risk of "carefully planning capacity
to provision the hardware to match projected load": a shared accelerator
that saturates turns ``Q`` from the assumed zero into the dominant
overhead.  These helpers size a deployment: how many device engines does
each host (or rack) need so queueing stays within budget, and what does
the fleet-wide device count look like?
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..core.queueing import mmk_wait_cycles, utilization
from ..errors import ParameterError


@dataclasses.dataclass(frozen=True)
class CapacityPlan:
    """A sized accelerator deployment for one host."""

    offload_rate: float
    service_cycles: float
    total_cycles: float
    engines: int

    @property
    def utilization(self) -> float:
        return utilization(
            self.offload_rate, self.service_cycles, self.total_cycles,
            self.engines,
        )

    @property
    def expected_queue_cycles(self) -> float:
        """Mean per-offload queueing delay (M/M/k) at this provisioning."""
        return mmk_wait_cycles(
            self.offload_rate, self.service_cycles, self.total_cycles,
            self.engines,
        )


def engines_for_utilization(
    offload_rate: float,
    service_cycles: float,
    total_cycles: float,
    max_utilization: float = 0.6,
) -> int:
    """Minimum engines keeping device utilization at or below the target."""
    if not 0.0 < max_utilization < 1.0:
        raise ParameterError("max_utilization must be in (0, 1)")
    if offload_rate < 0 or service_cycles < 0:
        raise ParameterError("rates and service times must be non-negative")
    if total_cycles <= 0:
        raise ParameterError("total_cycles must be positive")
    if offload_rate == 0 or service_cycles == 0:
        return 1
    offered = offload_rate * service_cycles / total_cycles
    return max(1, math.ceil(offered / max_utilization))


def engines_for_queue_budget(
    offload_rate: float,
    service_cycles: float,
    total_cycles: float,
    queue_budget_cycles: float,
    max_engines: int = 4096,
) -> int:
    """Minimum engines keeping the mean M/M/k queue delay within budget.

    Raises when even *max_engines* cannot meet the budget (the budget is
    smaller than what an always-idle device would deliver -- i.e. zero --
    can never happen since Wq -> 0 as k grows; the cap guards absurd
    inputs).
    """
    if queue_budget_cycles < 0:
        raise ParameterError("queue budget must be non-negative")
    engines = engines_for_utilization(
        offload_rate, service_cycles, total_cycles, max_utilization=0.999
    )
    while engines <= max_engines:
        wait = mmk_wait_cycles(
            offload_rate, service_cycles, total_cycles, engines
        )
        if wait <= queue_budget_cycles:
            return engines
        engines += 1
    raise ParameterError(
        f"queue budget {queue_budget_cycles} cycles unreachable within "
        f"{max_engines} engines"
    )


def plan_capacity(
    offload_rate: float,
    service_cycles: float,
    total_cycles: float,
    queue_budget_cycles: Optional[float] = None,
    max_utilization: float = 0.6,
) -> CapacityPlan:
    """Size one host's accelerator: utilization target by default, or the
    stricter of utilization and queue-delay budget when both are given."""
    engines = engines_for_utilization(
        offload_rate, service_cycles, total_cycles, max_utilization
    )
    if queue_budget_cycles is not None:
        engines = max(
            engines,
            engines_for_queue_budget(
                offload_rate, service_cycles, total_cycles, queue_budget_cycles
            ),
        )
    return CapacityPlan(
        offload_rate=offload_rate,
        service_cycles=service_cycles,
        total_cycles=total_cycles,
        engines=engines,
    )
