"""Acceleration strategies and threading designs from the paper (Sec. 3).

The paper distinguishes *where* the accelerator sits (:class:`Placement`)
from *how* the host thread offloads to it (:class:`ThreadingDesign`), and,
for asynchronous offload, *who* consumes the accelerator's response
(:class:`ResponseHandling`).  Speedup and latency-reduction equations differ
along all three axes.
"""

from __future__ import annotations

import enum


class Placement(enum.Enum):
    """Where the accelerator is located relative to the host CPU."""

    #: Optimizations on the CPU die (e.g. AES-NI, wider SIMD).  Offload
    #: latencies are ns-scale; the paper assumes negligible ``o0 + L``.
    ON_CHIP = "on-chip"

    #: Devices reached over PCIe or a coherent interconnect (GPUs, smart
    #: NICs, ASICs).  Offload latencies are us-scale.
    OFF_CHIP = "off-chip"

    #: Off-platform devices reached over the network (remote inference
    #: CPUs, network switches).  Offload latencies are ms-scale.
    REMOTE = "remote"


class ThreadingDesign(enum.Enum):
    """How the host thread behaves while an offload is in flight."""

    #: One thread per core; the offloading thread blocks and its core idles
    #: until the accelerator responds.  Accelerator cycles sit on the host's
    #: critical path (paper eqn. 1).
    SYNC = "sync"

    #: Threads are over-subscribed; the offloading thread blocks but the
    #: core context-switches (cost ``o1``, paid twice: away and back) to
    #: another runnable thread (paper eqns. 3 and 5).
    SYNC_OS = "sync-os"

    #: The offloading thread continues doing useful work and later picks up
    #: the response itself, so no thread switch is needed (paper eqns. 6
    #: and 8).
    ASYNC = "async"

    #: Asynchronous offload where a distinct, dedicated thread picks up the
    #: response: one thread-switch overhead ``o1`` (paper: "same as (3)
    #: with only one thread switching overhead").
    ASYNC_DISTINCT_THREAD = "async-distinct-thread"

    #: Asynchronous offload where the host never consumes a response (e.g.
    #: the accelerator forwards encrypted requests to the next
    #: microservice).  Speedup is eqn. (6); latency reduction is eqn. (8)
    #: off-chip and eqn. (6) for remote placement.
    ASYNC_NO_RESPONSE = "async-no-response"
