"""The Accelerometer analytical model (the paper's primary contribution).

Public API::

    from repro.core import (
        Accelerometer, OffloadScenario, KernelProfile, AcceleratorSpec,
        OffloadCosts, ThreadingDesign, Placement, project,
    )
"""

from .baselines import amdahl_ceiling
from .batching import (
    BatchedProjection,
    BatchingPolicy,
    batch_size_sweep,
    batched_scenario,
    min_profitable_batch_size,
    project_batched,
)
from .bounds import (
    BindingConstraint,
    CycleDecomposition,
    GranularityLandmarks,
    bound_report,
    decompose,
    granularity_landmarks,
)
from .breakeven import min_profitable_granularity
from .granularity import (
    GranularityDistribution,
    lucrative_subset,
    selective_profile,
)
from .model import Accelerometer, ProjectionResult, project
from .params import AcceleratorSpec, KernelProfile, OffloadCosts, OffloadScenario
from .resilience import (
    degraded_async_distinct_thread_speedup,
    degraded_async_speedup,
    degraded_batched_async_speedup,
    degraded_speedup,
    degraded_sync_os_speedup,
    degraded_sync_speedup,
    doorbell_drop_probability,
    expected_backoff_cycles,
    expected_failures,
    fallback_probability,
)
from .queueing import mmk_wait_cycles, utilization
from .sensitivity import SENSITIVITY_PARAMETERS, SensitivityReport, sensitivity
from .strategies import Placement, ThreadingDesign
from .sweep import (
    SWEEPABLE_PARAMETERS,
    SweepPoint,
    SweepResult,
    compare_designs,
    crossover,
    sweep,
)

__all__ = [
    "Accelerometer",
    "AcceleratorSpec",
    "BatchedProjection",
    "BatchingPolicy",
    "BindingConstraint",
    "CycleDecomposition",
    "GranularityLandmarks",
    "SENSITIVITY_PARAMETERS",
    "SensitivityReport",
    "batch_size_sweep",
    "batched_scenario",
    "bound_report",
    "decompose",
    "granularity_landmarks",
    "min_profitable_batch_size",
    "project_batched",
    "sensitivity",
    "GranularityDistribution",
    "KernelProfile",
    "OffloadCosts",
    "OffloadScenario",
    "Placement",
    "ProjectionResult",
    "SWEEPABLE_PARAMETERS",
    "SweepPoint",
    "SweepResult",
    "ThreadingDesign",
    "amdahl_ceiling",
    "compare_designs",
    "crossover",
    "degraded_async_distinct_thread_speedup",
    "degraded_async_speedup",
    "degraded_batched_async_speedup",
    "doorbell_drop_probability",
    "degraded_speedup",
    "degraded_sync_os_speedup",
    "degraded_sync_speedup",
    "expected_backoff_cycles",
    "expected_failures",
    "fallback_probability",
    "lucrative_subset",
    "min_profitable_granularity",
    "mmk_wait_cycles",
    "project",
    "selective_profile",
    "sweep",
    "utilization",
]
