"""Discrete-event microservice simulator.

This subpackage is the substrate standing in for the paper's production
environment: it executes synthetic microservices at peak load, measures
throughput and latency, attributes every host cycle to functionality and
leaf categories (the Strobelight role), and implements the Sync / Sync-OS /
Async offload designs whose costs the Accelerometer model projects.
"""

from .accelerator import (
    AcceleratorDevice,
    AcceleratorStats,
    TenantPort,
    TenantStats,
)
from .cpu import (
    CPU,
    Compute,
    Core,
    HoldCore,
    ReleaseCore,
    SimThread,
    ThreadState,
    YieldCore,
)
from .engine import Engine
from .interface import (
    InterfaceModel,
)
from .guards import require_positive_window
from .metrics import (
    CycleKind,
    FaultCounters,
    MetricSink,
    OffloadRecord,
    RequestRecord,
)
from .runner import (
    SimulationConfig,
    measured_latency_reduction,
    measured_speedup,
    run_simulation,
)
from .summary import RunSummary
from .service import (
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    ResponseHandler,
    SegmentWork,
)
from .trace_export import export_chrome_trace, trace_events
from .workload import BlockSampler, request_stream

__all__ = [
    "AcceleratorDevice",
    "AcceleratorStats",
    "BlockSampler",
    "CPU",
    "Compute",
    "Core",
    "YieldCore",
    "CycleKind",
    "Engine",
    "FaultCounters",
    "HoldCore",
    "InterfaceModel",
    "KernelInvocation",
    "KernelSpec",
    "MetricSink",
    "Microservice",
    "OffloadConfig",
    "OffloadRecord",
    "ReleaseCore",
    "RequestRecord",
    "RequestSpec",
    "ResponseHandler",
    "RunSummary",
    "SegmentWork",
    "SimThread",
    "SimulationConfig",
    "TenantPort",
    "TenantStats",
    "ThreadState",
    "require_positive_window",
    "export_chrome_trace",
    "measured_latency_reduction",
    "measured_speedup",
    "trace_events",
    "request_stream",
    "run_simulation",
]
