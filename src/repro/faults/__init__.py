"""Seeded fault injection for the offload simulator.

Public API::

    from repro.faults import (
        FaultPolicy, FaultInjector, AttemptOutcome,
        DegradationWindow, DegradationSchedule,
    )

Attach a policy to an offload via
``OffloadConfig(faults=FaultInjector(policy, seed=...))``; the simulator
then executes retry + exponential backoff + fallback-to-CPU semantics
whose expected costs are mirrored in closed form by
:mod:`repro.core.resilience`.
"""

from .degradation import DegradationSchedule, DegradationWindow
from .injector import FaultInjector
from .policy import AttemptOutcome, FaultPolicy

__all__ = [
    "AttemptOutcome",
    "DegradationSchedule",
    "DegradationWindow",
    "FaultInjector",
    "FaultPolicy",
]
