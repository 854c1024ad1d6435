"""Break-even offload granularities (inversions of eqns. 2, 4, 7).

The paper's validation methodology (Sec. 4) first identifies "offload sizes
``g`` that improve speedup" -- e.g. ``g >= 1 B`` for AES-NI on Cache1 and
``g >= 425 B`` for off-chip Sync compression on Feed1 -- then counts only
those offloads into ``n`` and ``alpha``.  This module computes those
thresholds for every threading design.
"""

from __future__ import annotations

import math
from ..errors import ParameterError
from .params import AcceleratorSpec, KernelProfile, OffloadCosts
from .strategies import ThreadingDesign


def _invert_host_cost(
    required_cycles: float, cycles_per_byte: float, beta: float
) -> float:
    """Smallest g with ``Cb * g**beta >= required_cycles``."""
    if required_cycles <= 0:
        return 0.0
    return (required_cycles / cycles_per_byte) ** (1.0 / beta)


def min_profitable_granularity(
    design: ThreadingDesign,
    cycles_per_byte: float,
    accelerator: AcceleratorSpec,
    costs: OffloadCosts,
    beta: float = 1.0,
    for_latency: bool = False,
) -> float:
    """Return the smallest granularity (bytes) at which one offload helps.

    Returns ``math.inf`` when no granularity can ever be profitable (for
    Sync designs this happens when ``A <= 1`` with nonzero overheads: the
    accelerator never beats the host on the critical path).

    With *for_latency* True, the per-request latency conditions are used
    instead of the throughput conditions; they differ for Sync-OS and
    async designs because accelerator cycles stay on the request's
    critical path.
    """
    if cycles_per_byte <= 0:
        raise ParameterError(f"Cb must be > 0, got {cycles_per_byte}")
    if beta <= 0:
        raise ParameterError(f"beta must be > 0, got {beta}")

    a = accelerator.peak_speedup
    overhead = costs.dispatch_total

    throughput_uses_accelerator_path = design is ThreadingDesign.SYNC
    if for_latency:
        # Latency conditions always keep the accelerator on the request's
        # critical path, except fire-and-forget on a remote device where
        # the response never returns to this microservice.
        from .strategies import Placement

        fire_and_forget_remote = (
            design is ThreadingDesign.ASYNC_NO_RESPONSE
            and accelerator.placement is Placement.REMOTE
        )
        uses_accelerator_path = not fire_and_forget_remote
    else:
        uses_accelerator_path = throughput_uses_accelerator_path

    if design is ThreadingDesign.SYNC_OS:
        extra_switches = 1.0 if for_latency else 2.0
        overhead += extra_switches * costs.thread_switch_cycles
    elif design is ThreadingDesign.ASYNC_DISTINCT_THREAD:
        overhead += costs.thread_switch_cycles

    if uses_accelerator_path:
        # Cb * g**beta * (1 - 1/A) >= overhead
        shrink = 1.0 - 1.0 / a
        if shrink <= 0:
            return 0.0 if overhead <= 0 else math.inf
        return _invert_host_cost(overhead / shrink, cycles_per_byte, beta)
    # Cb * g**beta >= overhead
    return _invert_host_cost(overhead, cycles_per_byte, beta)


def offload_is_profitable(
    granularity_bytes: float,
    design: ThreadingDesign,
    cycles_per_byte: float,
    accelerator: AcceleratorSpec,
    costs: OffloadCosts,
    beta: float = 1.0,
    for_latency: bool = False,
) -> bool:
    """Whether a single offload of *granularity_bytes* improves speedup
    (or, with *for_latency*, reduces per-request latency)."""
    threshold = min_profitable_granularity(
        design, cycles_per_byte, accelerator, costs, beta, for_latency
    )
    return granularity_bytes >= threshold and granularity_bytes > 0


def aggregate_offload_margin(
    kernel: KernelProfile,
    design: ThreadingDesign,
    accelerator: AcceleratorSpec,
    costs: OffloadCosts,
) -> float:
    """Net cycles saved per time unit by offloading all ``n`` offloads.

    Positive margin corresponds to the paper's aggregate "speedup > 1"
    conditions, e.g. for Sync: ``alpha*C > alpha*C/A + n*(o0 + L + Q)``.
    """
    saved = kernel.kernel_cycles
    n = kernel.offloads_per_unit
    overhead = n * costs.dispatch_total
    if design is ThreadingDesign.SYNC:
        overhead += kernel.kernel_cycles / accelerator.peak_speedup
    elif design is ThreadingDesign.SYNC_OS:
        overhead += n * 2.0 * costs.thread_switch_cycles
    elif design is ThreadingDesign.ASYNC_DISTINCT_THREAD:
        overhead += n * costs.thread_switch_cycles
    return saved - overhead
