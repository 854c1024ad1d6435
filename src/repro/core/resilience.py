"""Expected-cost-under-failure extensions of the Accelerometer equations.

The paper's equations (Sec. 3) assume every offload succeeds.  Production
accelerators do not: dispatches get dropped, remote links time out,
devices degrade.  This module extends each design's speedup with a
seeded-failure regime described by a :class:`~repro.faults.FaultPolicy`
-- per-attempt drop probability ``p``, bounded retries ``r`` with
exponential backoff, and fallback to the host CPU once retries are
exhausted.

Closed forms (geometric attempt process, attempts independent)::

    E[F]    = p * (1 - p**(r+1)) / (1 - p)      expected failed attempts
    p_fb    = p**(r+1)                          probability of fallback
    E[B]    = sum_{k=0}^{r-1} b * m**k * p**(k+1)   expected backoff cycles

and the effective per-offload cost becomes::

    C_off' = E[F] * C_fail + E[B] + (1 - p_fb) * C_success + p_fb * C_fallback

Every ``degraded_*_speedup`` function evaluates its fault-free base
denominator with the *same expression* as :mod:`repro.core.equations` and
adds a penalty term that is exactly ``0.0`` under a null policy, so a
zero-fault call is bit-identical to the published equation -- the
metamorphic reduction property the test harness asserts.

The per-design failed-attempt and success costs mirror what the
discrete-event simulator charges (see :mod:`repro.simulator.service`):

==============  =======================  ==========================
design          failed attempt (core)    successful attempt (core)
==============  =======================  ==========================
Sync            ``o0 + timeout``         ``o0 + L + Q + h/A`` (+spike)
Sync-OS         ``o0 + 2*o1``            ``o0 + L + Q + 2*o1``
Async           ``o0 + L``               ``o0 + L + Q``
Async-distinct  ``o0 + L``               ``o0 + L + Q + o1``
==============  =======================  ==========================

where ``h = alpha*C/n`` is one offload's host-equivalent kernel cycles.
Sync timeouts block the issuing core; Sync-OS and async timeouts happen
off-core and only delay the response, so they do not enter throughput.
Latency spikes add blocked core time only for Sync (the caller waits).
"""

from __future__ import annotations

from ..errors import ParameterError
from ..faults.policy import FaultPolicy
from .strategies import ThreadingDesign
from .equations import _validate_accel, _validate_common, _validate_overheads

__all__ = [
    "degraded_async_distinct_thread_speedup",
    "degraded_async_speedup",
    "degraded_batched_async_speedup",
    "degraded_speedup",
    "degraded_sync_os_speedup",
    "degraded_sync_speedup",
    "doorbell_drop_probability",
    "expected_backoff_cycles",
    "expected_failures",
    "fallback_probability",
]


def _validate_probability(p: float, name: str = "drop_probability") -> None:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {p}")


def _validate_retries(max_retries: int) -> None:
    if max_retries < 0:
        raise ParameterError(f"max_retries must be >= 0, got {max_retries}")


def expected_failures(drop_probability: float, max_retries: int) -> float:
    """Expected number of failed attempts per offload, ``E[F]``.

    With per-attempt failure probability ``p`` and up to ``r`` retries
    (``r + 1`` attempts total), the attempt process is a truncated
    geometric: ``E[F] = p * (1 - p**(r+1)) / (1 - p)``, degenerating to
    ``r + 1`` when ``p == 1`` (every attempt fails).
    """
    _validate_probability(drop_probability)
    _validate_retries(max_retries)
    p = drop_probability
    if p == 1.0:
        return float(max_retries + 1)
    return p * (1.0 - p ** (max_retries + 1)) / (1.0 - p)


def fallback_probability(drop_probability: float, max_retries: int) -> float:
    """Probability all ``r + 1`` attempts fail: ``p_fb = p**(r+1)``."""
    _validate_probability(drop_probability)
    _validate_retries(max_retries)
    return drop_probability ** (max_retries + 1)


def expected_backoff_cycles(
    drop_probability: float,
    max_retries: int,
    backoff_base_cycles: float,
    backoff_multiplier: float = 2.0,
) -> float:
    """Expected backoff cycles per offload, ``E[B]``.

    The k-th retry (zero-indexed) is preceded by ``b * m**k`` backoff
    cycles and happens with probability ``p**(k+1)`` (the first ``k + 1``
    attempts all failed), so ``E[B] = sum_{k=0}^{r-1} b * m**k * p**(k+1)``.
    """
    _validate_probability(drop_probability)
    _validate_retries(max_retries)
    _validate_overheads(backoff_base_cycles=backoff_base_cycles)
    if backoff_multiplier <= 0:
        raise ParameterError(
            f"backoff_multiplier must be > 0, got {backoff_multiplier}"
        )
    p = drop_probability
    total = 0.0
    for k in range(max_retries):
        total += backoff_base_cycles * backoff_multiplier**k * p ** (k + 1)
    return total


# ---------------------------------------------------------------------------
# Shared probability terms
# ---------------------------------------------------------------------------


def _fault_terms(policy: FaultPolicy, batch_size: int = 1):
    """``(E[F], E[B], p_fb)`` for *policy* -- the three scalars every
    degraded equation needs -- at doorbell level for a batch of
    *batch_size*.

    The retry machine is the same for every doorbell; batching only
    lifts the per-attempt failure probability from ``p`` to ``p_B``
    (:func:`doorbell_drop_probability`, which is ``p`` itself at
    ``batch_size = 1``).
    """
    p = doorbell_drop_probability(policy.drop_probability, batch_size)
    r = policy.max_retries
    return (
        expected_failures(p, r),
        expected_backoff_cycles(
            p, r, policy.backoff_base_cycles, policy.backoff_multiplier
        ),
        fallback_probability(p, r),
    )


def _conditional_spike_cycles(policy: FaultPolicy) -> float:
    """Expected spike cycles per *successful* attempt.

    A spike happens with probability ``p_s`` per attempt and the attempt
    still succeeds, so conditioned on not dropping the spike rate is
    ``p_s / (1 - p_d)`` (zero when every attempt drops).
    """
    if policy.drop_probability == 1.0:
        return 0.0
    return (
        policy.spike_cycles
        * policy.spike_probability
        / (1.0 - policy.drop_probability)
    )


def _per_offload_kernel_cycles(c: float, alpha: float, n: float) -> float:
    """``h = alpha * C / n``: one offload's host-equivalent kernel work."""
    if n == 0:
        return 0.0
    return alpha * c / n


# ---------------------------------------------------------------------------
# Degraded throughput speedups (one per threading design)
# ---------------------------------------------------------------------------


def degraded_sync_speedup(
    c: float,
    alpha: float,
    a: float,
    n: float,
    o0: float,
    l: float,
    q: float,
    policy: FaultPolicy,
) -> float:
    """Sync speedup under *policy* (degraded eqn. 1).

    Failed attempts hold the issuing core for ``o0 + timeout`` cycles;
    backoff and latency spikes also block it.  A fallback skips the
    accelerator path entirely (``-(o0 + L + Q + h/A)``) and -- when the
    policy falls back to the CPU -- re-runs the kernel on the host
    (``+h``); without fallback the work is simply lost.
    """
    _validate_common(c, alpha, n)
    _validate_accel(a)
    _validate_overheads(o0=o0, L=l, Q=q)
    denominator = (1.0 - alpha) + alpha / a + (n / c) * (o0 + l + q)
    failures, backoff, p_fb = _fault_terms(policy)
    h = _per_offload_kernel_cycles(c, alpha, n)
    if n > 0:
        delta = (
            failures * (o0 + policy.timeout_cycles)
            + backoff
            + (1.0 - p_fb) * _conditional_spike_cycles(policy)
            - p_fb * (o0 + l + q + h / a)
            + (p_fb * h if policy.fallback_to_cpu else 0.0)
        )
        denominator += (n / c) * delta
    return 1.0 / denominator


def degraded_sync_os_speedup(
    c: float,
    alpha: float,
    n: float,
    o0: float,
    l: float,
    q: float,
    o1: float,
    policy: FaultPolicy,
) -> float:
    """Sync-OS speedup under *policy* (degraded eqn. 3).

    A failed attempt costs the dispatch plus both thread switches
    (``o0 + 2*o1``); the timeout itself is waited out off-core, so it
    delays the response without consuming throughput.  Spikes likewise
    only delay the off-core wait.
    """
    _validate_common(c, alpha, n)
    _validate_overheads(o0=o0, L=l, Q=q, o1=o1)
    denominator = (1.0 - alpha) + (n / c) * (o0 + l + q + 2.0 * o1)
    failures, backoff, p_fb = _fault_terms(policy)
    h = _per_offload_kernel_cycles(c, alpha, n)
    if n > 0:
        delta = (
            failures * (o0 + 2.0 * o1)
            + backoff
            - p_fb * (o0 + l + q + 2.0 * o1)
            + (p_fb * h if policy.fallback_to_cpu else 0.0)
        )
        denominator += (n / c) * delta
    return 1.0 / denominator


def degraded_async_speedup(
    c: float,
    alpha: float,
    n: float,
    o0: float,
    l: float,
    q: float,
    policy: FaultPolicy,
) -> float:
    """Async speedup under *policy* (degraded eqn. 6).

    A failed attempt costs the dispatch work actually performed
    (``o0 + L``); the timeout is detected asynchronously and only shifts
    the response arrival.  An unbatched offload is a doorbell of one, so
    this is :func:`degraded_batched_async_speedup` at ``batch_size = 1``.
    """
    return degraded_batched_async_speedup(
        c, alpha, n, o0, l, q, policy, batch_size=1
    )


def degraded_async_distinct_thread_speedup(
    c: float,
    alpha: float,
    n: float,
    o0: float,
    l: float,
    q: float,
    o1: float,
    policy: FaultPolicy,
) -> float:
    """Async-distinct-thread speedup under *policy*.

    Same failure cost as Async (``o0 + L``); the response thread's single
    switch ``o1`` is only paid on success.
    """
    _validate_common(c, alpha, n)
    _validate_overheads(o0=o0, L=l, Q=q, o1=o1)
    denominator = (1.0 - alpha) + (n / c) * (o0 + l + q + o1)
    failures, backoff, p_fb = _fault_terms(policy)
    h = _per_offload_kernel_cycles(c, alpha, n)
    if n > 0:
        delta = (
            failures * (o0 + l)
            + backoff
            - p_fb * (o0 + l + q + o1)
            + (p_fb * h if policy.fallback_to_cpu else 0.0)
        )
        denominator += (n / c) * delta
    return 1.0 / denominator


def degraded_speedup(
    design: ThreadingDesign,
    policy: FaultPolicy,
    *,
    c: float,
    alpha: float,
    n: float,
    o0: float,
    l: float,
    q: float,
    a: float = 1.0,
    o1: float = 0.0,
) -> float:
    """Dispatch to the degraded speedup equation for *design*."""
    if design is ThreadingDesign.SYNC:
        return degraded_sync_speedup(c, alpha, a, n, o0, l, q, policy)
    if design is ThreadingDesign.SYNC_OS:
        return degraded_sync_os_speedup(c, alpha, n, o0, l, q, o1, policy)
    if design is ThreadingDesign.ASYNC_DISTINCT_THREAD:
        return degraded_async_distinct_thread_speedup(
            c, alpha, n, o0, l, q, o1, policy
        )
    return degraded_async_speedup(c, alpha, n, o0, l, q, policy)


# ---------------------------------------------------------------------------
# Doorbell batching under failures
# ---------------------------------------------------------------------------


def _validate_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")


def doorbell_drop_probability(drop_probability: float, batch_size: int) -> float:
    """Per-doorbell drop probability for a batch of *batch_size* items.

    The simulator adjudicates every buffered invocation per attempt and
    any single DROP fails the whole doorbell, so
    ``p_B = 1 - (1 - p)**B``.  ``batch_size = 1`` returns
    *drop_probability* unchanged (the complement round trip
    ``1 - (1 - p)`` is *not* bit-exact for tiny ``p``, so the reduction
    is gated rather than computed).
    """
    _validate_probability(drop_probability)
    _validate_batch_size(batch_size)
    if batch_size == 1:
        return drop_probability
    return 1.0 - (1.0 - drop_probability) ** batch_size


def degraded_batched_async_speedup(
    c: float,
    alpha: float,
    n: float,
    o0: float,
    l: float,
    q: float,
    policy: FaultPolicy,
    batch_size: int = 1,
) -> float:
    """Async speedup with doorbell batching under *policy*.

    One doorbell covers ``B`` invocations, so each invocation pays an
    amortized dispatch ``o0 / B`` and queue wait ``q / B`` while the
    transfer ``L`` stays per-item (bytes scale with the batch).  Fault
    economics move to doorbell level: a doorbell drops with
    ``p_B = 1 - (1 - p)**B``, a failed doorbell wastes the whole batch's
    dispatch (``o0 / B + L`` per item), and an exhausted doorbell falls
    back the entire batch (``+h`` per item when falling back to CPU).

    ``batch_size = 1`` is :func:`degraded_async_speedup` (division by
    1.0 is exact, so the amortization vanishes bit for bit), and a null
    policy at any ``B`` leaves only the amortized base denominator.
    """
    _validate_common(c, alpha, n)
    _validate_overheads(o0=o0, L=l, Q=q)
    _validate_batch_size(batch_size)
    b = float(batch_size)
    denominator = (1.0 - alpha) + (n / c) * (o0 / b + l + q / b)
    failures, backoff, p_fb = _fault_terms(policy, batch_size)
    h = _per_offload_kernel_cycles(c, alpha, n)
    if n > 0:
        delta = (
            failures * (o0 / b + l)
            + backoff / b
            - p_fb * (o0 / b + l + q / b)
            + (p_fb * h if policy.fallback_to_cpu else 0.0)
        )
        denominator += (n / c) * delta
    return 1.0 / denominator

