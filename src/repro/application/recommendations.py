"""Quantifying Table 4's acceleration recommendations.

Table 4 lists the characterization's findings and suggests optimizations;
Sec. 5 quantifies three of them (compression, memory copy, allocation).
This module extends the quantification to the remaining software-
addressable findings, producing a per-service speedup projection for each
recommendation so operators can rank them -- the "fleet-wide wins" the
paper argues common overheads offer.

Each recommendation is modelled conservatively as removing (or
accelerating) a fraction of the relevant cycles:

* **logging** -- halving log volume removes ~50% of logging cycles
  (software optimization, no offload overheads).
* **kernel-bypass I/O** -- user-space networking removes a large share of
  the kernel cycles attributed to I/O (the paper cites mTCP/IX/ZygOS).
* **thread-pool tuning** -- better scheduling removes part of the
  thread-pool management cycles.
* **compression / memory copy / allocation** -- the paper's own on-chip
  projections, applied per service via its calibrated kernels.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..core import (
    Accelerometer,
    AcceleratorSpec,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ThreadingDesign,
)
from ..errors import ParameterError
from ..paperdata.categories import FunctionalityCategory as F
from ..workloads import ServiceWorkload, build_workload


@dataclasses.dataclass(frozen=True)
class Recommendation:
    """One quantified Table-4 recommendation for one service."""

    finding: str
    service: str
    mechanism: str
    projected_speedup_pct: float


def _kernel_onchip_speedup(
    workload: ServiceWorkload, kernel: str, peak_speedup: float
) -> Optional[float]:
    if kernel not in workload.kernels:
        return None
    scenario = OffloadScenario(
        kernel=workload.kernel_profile(kernel),
        accelerator=AcceleratorSpec(peak_speedup, Placement.ON_CHIP),
        costs=OffloadCosts(),
        design=ThreadingDesign.SYNC,
    )
    return Accelerometer().speedup(scenario)


def _fractional_removal_speedup(
    workload: ServiceWorkload, functionality: F, removed_fraction: float
) -> float:
    """Amdahl speedup from removing a fraction of one functionality's
    cycles via software optimization (no offload overheads)."""
    if not 0.0 <= removed_fraction <= 1.0:
        raise ParameterError("removed_fraction must be in [0, 1]")
    share = workload.functionality_fractions.get(functionality, 0.0)
    alpha = share * removed_fraction
    if alpha <= 0:
        return 1.0
    # Removing the cycles outright == accelerating them infinitely.
    return 1.0 / (1.0 - alpha)


def quantify_recommendations(
    service: str,
    compression_speedup: float = 5.0,
    copy_speedup: float = 4.0,
    alloc_speedup: float = 1.5,
    logging_reduction: float = 0.5,
    kernel_bypass_reduction: float = 0.6,
    thread_tuning_reduction: float = 0.4,
) -> Dict[str, Recommendation]:
    """Project every applicable Table-4 recommendation for *service*."""
    workload = build_workload(service)
    out: Dict[str, Recommendation] = {}

    def add(key: str, finding: str, mechanism: str, speedup: Optional[float]):
        if speedup is None or speedup <= 1.0 + 1e-12:
            return
        out[key] = Recommendation(
            finding=finding,
            service=service,
            mechanism=mechanism,
            projected_speedup_pct=(speedup - 1.0) * 100.0,
        )

    add(
        "compression",
        "High compression overhead",
        f"on-chip compression unit (A = {compression_speedup:g})",
        _kernel_onchip_speedup(workload, "compression", compression_speedup),
    )
    add(
        "memory-copy",
        "Memory copies & allocations are significant",
        f"SIMD/dense-copy acceleration (A = {copy_speedup:g})",
        _kernel_onchip_speedup(workload, "memcpy", copy_speedup),
    )
    add(
        "memory-allocation",
        "Memory copies & allocations are significant",
        f"hardware allocation support (A = {alloc_speedup:g})",
        _kernel_onchip_speedup(workload, "allocation", alloc_speedup),
    )
    add(
        "logging",
        "Logging overheads can dominate",
        f"reduce log size/updates by {logging_reduction:.0%}",
        _fractional_removal_speedup(workload, F.LOGGING, logging_reduction),
    )
    add(
        "kernel-bypass",
        "High kernel overhead and low IPC",
        f"kernel-bypass I/O removing {kernel_bypass_reduction:.0%} of IO cycles",
        _fractional_removal_speedup(workload, F.IO, kernel_bypass_reduction),
    )
    add(
        "thread-tuning",
        "Cache synchronizes frequently",
        f"thread-pool tuning removing {thread_tuning_reduction:.0%} of "
        "management cycles",
        _fractional_removal_speedup(
            workload, F.THREAD_POOL, thread_tuning_reduction
        ),
    )
    return out
