"""Fleet-wide projection (the paper's first stated use case:
"data center operators can project fleet-wide gains from optimizing key
service overheads")."""

from .demand import (
    DemandScenario,
    InvestmentOutcome,
    Provisioning,
    demand_risk_sweep,
    investment_outcome,
    provision,
    provision_engines_for_peak,
)
from .capacity import (
    CapacityPlan,
    engines_for_queue_budget,
    engines_for_utilization,
    plan_capacity,
)
from .projection import (
    FleetComposition,
    FleetProjection,
    fleet_projection,
    default_fleet,
)

__all__ = [
    "CapacityPlan",
    "DemandScenario",
    "FleetComposition",
    "InvestmentOutcome",
    "Provisioning",
    "demand_risk_sweep",
    "investment_outcome",
    "provision",
    "provision_engines_for_peak",
    "FleetProjection",
    "default_fleet",
    "engines_for_queue_budget",
    "engines_for_utilization",
    "fleet_projection",
    "plan_capacity",
]
