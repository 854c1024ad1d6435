"""Queueing-delay estimators for the accelerator interface parameter ``Q``.

The paper treats ``Q`` as "avg. cycles spent in queuing between host and
accelerator for a single offload" and notes that ``Q`` lets the model
project speedup *based on accelerator load*.  This module provides the
M/M/1 and M/M/k (Erlang-C) estimators, so a designer can derive ``Q`` from
an offered offload rate rather than guessing.

All quantities are in host cycles; rates are offloads per time unit
(matching ``n``), converted internally.
"""

from __future__ import annotations

import math

from ..errors import ParameterError


def utilization(
    offload_rate: float, service_cycles: float, total_cycles: float, servers: int = 1
) -> float:
    """Accelerator utilization rho = (n * S) / (k * C).

    *offload_rate* is ``n`` (offloads per time unit), *service_cycles* the
    accelerator's per-offload service time ``S``, *total_cycles* the
    cycles in the time unit (``C``), *servers* the number of accelerator
    engines ``k``.
    """
    if offload_rate < 0:
        raise ParameterError("offload_rate must be >= 0")
    if service_cycles < 0:
        raise ParameterError("service_cycles must be >= 0")
    if total_cycles <= 0:
        raise ParameterError("total_cycles must be > 0")
    if servers < 1:
        raise ParameterError("servers must be >= 1")
    return offload_rate * service_cycles / (servers * total_cycles)


def mm1_wait_cycles(
    offload_rate: float, service_cycles: float, total_cycles: float
) -> float:
    """Mean M/M/1 queueing delay (time in queue, excluding service).

    ``Wq = rho / (1 - rho) * S``.  Raises when the queue is unstable
    (rho >= 1): at that operating point the accelerator cannot keep up and
    no finite ``Q`` exists.
    """
    rho = utilization(offload_rate, service_cycles, total_cycles)
    if rho >= 1.0:
        raise ParameterError(
            f"accelerator overloaded (rho = {rho:.3f} >= 1); queue is unstable"
        )
    return rho / (1.0 - rho) * service_cycles


def mmk_wait_cycles(
    offload_rate: float,
    service_cycles: float,
    total_cycles: float,
    servers: int,
) -> float:
    """Mean M/M/k queueing delay via the Erlang-C formula.

    Useful for accelerator devices exposing multiple independent engines
    (e.g. several compression queues behind one PCIe function).
    """
    if servers < 1:
        raise ParameterError("servers must be >= 1")
    rho = utilization(offload_rate, service_cycles, total_cycles, servers)
    if rho >= 1.0:
        raise ParameterError(
            f"accelerator overloaded (rho = {rho:.3f} >= 1); queue is unstable"
        )
    if offload_rate == 0 or service_cycles == 0:
        return 0.0
    offered_load = servers * rho  # a = lambda * S in Erlang units
    # Erlang-C probability that an arrival must wait.
    summation = sum(offered_load**i / math.factorial(i) for i in range(servers))
    top = offered_load**servers / (math.factorial(servers) * (1.0 - rho))
    p_wait = top / (summation + top)
    return p_wait * service_cycles / (servers * (1.0 - rho))
