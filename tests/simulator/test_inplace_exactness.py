"""In-place computes are exact: ``run_until`` equals single-stepping.

Under ``PyEngine.run_until``, ``CPU._advance`` runs a thread's next
compute in place when it is provably the next event; under ``step()``
it never does.  A seeded scenario with frequent equal-time ties
(integer cycles), every blocking primitive, and an eager-device offload
must measure the same either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Placement, ThreadingDesign
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    CPU,
    AcceleratorDevice,
    Compute,
    HoldCore,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    MetricSink,
    Microservice,
    OffloadConfig,
    RequestSpec,
    SegmentWork,
    YieldCore,
)
from repro.simulator.engine import PyEngine

HORIZON = 40_000.0

SYNC_KERNEL = KernelSpec("sync", F.IO, L.SSL, cycles_per_byte=2.0)
OS_KERNEL = KernelSpec("os", F.COMPRESSION, L.MEMORY, cycles_per_byte=3.0)
HOST_KERNEL = KernelSpec("host", F.SERIALIZATION, L.MEMORY,
                         cycles_per_byte=1.0)


class CountingEngine(PyEngine):
    """A pure engine that counts the events it ran in place.

    Every event that reaches the heap goes through :meth:`at` or
    :meth:`after`; a processed event that was never scheduled there ran
    in place.
    """

    scheduled = 0

    def at(self, time, callback):
        self.scheduled += 1
        super().at(time, callback)

    def after(self, delay, callback):
        self.scheduled += 1
        super().after(delay, callback)

    @property
    def in_place(self):
        popped = self.scheduled - self.pending_events
        return self.events_processed - popped


def requests(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        invocations = tuple(
            KernelInvocation(
                (SYNC_KERNEL, OS_KERNEL, HOST_KERNEL)[int(rng.integers(3))],
                float(rng.integers(0, 40)),
            )
            for _ in range(int(rng.integers(1, 5)))
        )
        yield RequestSpec(
            segments=(
                SegmentWork(
                    F.APPLICATION_LOGIC,
                    plain_cycles=float(rng.integers(0, 6) * 10),
                    leaf_mix={L.C_LIBRARIES: 1.0, L.MEMORY: 1.0},
                ),
                SegmentWork(F.IO, invocations=invocations),
            )
        )


def run(seed: int, stepped: bool):
    engine = CountingEngine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, 2)
    device = AcceleratorDevice(engine, 4.0, servers=1)
    interface = InterfaceModel(
        Placement.OFF_CHIP, dispatch_cycles=20.0, transfer_base_cycles=30.0
    )
    offloads = {
        "sync": OffloadConfig(
            device=device, interface=interface, design=ThreadingDesign.SYNC,
            min_granularity=10.0,
        ),
        "os": OffloadConfig(
            device=device, interface=interface,
            design=ThreadingDesign.SYNC_OS, thread_switch_cycles=40.0,
        ),
    }
    service = Microservice(engine, cpu, metrics, offloads=offloads)
    for index in range(3):
        service.spawn_worker(requests(seed + index))

    def poller(thread):
        # A non-service thread: fixed computes, a timed HoldCore woken by
        # a scheduled cpu.resume, and cooperative yields.
        while True:
            for cycles in (10.0, 20.0, 10.0):
                yield Compute(cycles, F.LOGGING, L.MISCELLANEOUS)
            engine.after(50.0, lambda: cpu.resume(thread))
            yield HoldCore(F.LOGGING, L.MISCELLANEOUS)
            yield YieldCore()

    cpu.spawn(poller)

    if stepped:
        while engine.pending_events and engine._queue[0][0] <= HORIZON:
            engine.step()
    engine.run_until(HORIZON)
    cpu.finalize(HORIZON)
    return engine, metrics


@pytest.mark.parametrize("seed", [2020, 7, 11])
def test_run_until_matches_single_stepping(seed):
    chained, chained_metrics = run(seed, stepped=False)
    stepped, stepped_metrics = run(seed, stepped=True)
    # The scenario exercises both paths.
    assert chained.in_place > 0
    assert stepped.in_place == 0
    assert chained_metrics.offloads
    assert list(chained_metrics.cycles.items()) == list(
        stepped_metrics.cycles.items()
    )
    assert chained_metrics.requests == stepped_metrics.requests
    assert chained_metrics.offloads == stepped_metrics.offloads
    assert dict(chained_metrics.kernel_cycles_by_origin) == dict(
        stepped_metrics.kernel_cycles_by_origin
    )
    assert chained.events_processed == stepped.events_processed
    assert chained.pending_events == stepped.pending_events
    assert chained.now == stepped.now == HORIZON
