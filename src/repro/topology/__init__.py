"""Microservice call-graph layer: end-to-end latency and the
application-level impact of per-service acceleration plans."""

from .acceleration import (
    ApplicationImpact,
    ServiceAcceleration,
    apply_accelerations,
    default_application_graph,
)
from .graph import Call, CallGraph, ServiceNode
from .simulate import (
    ApplicationSimConfig,
    ApplicationSimResult,
    ApplicationSimulation,
    simulate_application,
)

__all__ = [
    "ApplicationImpact",
    "ApplicationSimConfig",
    "ApplicationSimResult",
    "ApplicationSimulation",
    "simulate_application",
    "Call",
    "CallGraph",
    "ServiceAcceleration",
    "ServiceNode",
    "apply_accelerations",
    "default_application_graph",
]
