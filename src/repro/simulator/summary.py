"""Portable, picklable summaries of simulation runs.

:class:`RunSummary` is what :func:`~repro.simulator.runner.run_simulation`
returns: the run's configuration, its full
:class:`~repro.simulator.metrics.MetricSink` measurement record (plain
data -- cycle attribution, per-request latencies, kernel and offload
counters), the engine's event count, the finished trace of a traced run,
and every derived measurement the rest of the repository reads
(throughput, latency percentiles, cycles-per-request).  The live engine,
CPU threads and service never leave the runner, so a summary pickles as
it is: it is the unit the :mod:`repro.runtime` batch executor ships
between worker processes and stores in the result cache.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..canonical import canonical_digest
from ..errors import ParameterError
from .guards import require_positive_window
from .metrics import CycleKind, MetricSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import SimulationConfig

#: Latency percentiles pre-tabulated into every summary fingerprint.
SUMMARY_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0)

#: Core-consuming cycle kinds (the model's critical-path quantity).
_CONSUMING_KINDS = (
    CycleKind.USEFUL,
    CycleKind.OFFLOAD_OVERHEAD,
    CycleKind.THREAD_SWITCH,
    CycleKind.BLOCKED,
)


@dataclasses.dataclass(slots=True)
class RunSummary:
    """Measurements from one run, detached from the live simulator."""

    config: "SimulationConfig"
    metrics: MetricSink
    events_processed: int

    #: :class:`~repro.observability.TraceData` from a traced run; None
    #: otherwise.  Deliberately **excluded** from
    #: :meth:`measurement_record`, so a traced run's fingerprint equals
    #: the untraced run's -- the zero-observer-effect contract.  (Adding
    #: this field changed the pickle layout; the cache SCHEMA_VERSION was
    #: bumped to v4.)
    trace: Optional[object] = None

    # -- the measurement surface -----------------------------------------

    @property
    def completed_requests(self) -> int:
        return len(self.metrics.completed_requests())

    @property
    def throughput(self) -> float:
        """Requests completed per window cycle."""
        window = require_positive_window(self.config.window_cycles)
        return self.completed_requests / window

    # -- degraded-mode measurements ---------------------------------------

    @property
    def degraded_requests(self) -> int:
        """Completed requests that a fault degraded (an offload fell back
        to the host CPU, or its work was lost outright)."""
        return sum(
            1
            for record in self.metrics.requests
            if record.completed_at is not None and record.degraded
        )

    @property
    def goodput(self) -> float:
        """Fully-served (non-degraded) requests completed per window
        cycle.  Equal to :attr:`throughput` in a fault-free run; the gap
        between the two is the service quality the fault regime cost."""
        window = require_positive_window(self.config.window_cycles)
        return (self.completed_requests - self.degraded_requests) / window

    @property
    def goodput_fraction(self) -> float:
        """Share of completed requests that were not degraded."""
        completed = self.completed_requests
        if completed == 0:
            raise ParameterError("no completed requests in the window")
        return (completed - self.degraded_requests) / completed

    @property
    def mean_latency_cycles(self) -> float:
        return self.metrics.mean_latency()

    def latency_percentile(self, percentile: float) -> float:
        return self.metrics.latency_percentile(percentile)

    @property
    def host_cycles_per_request(self) -> float:
        """Busy host cycles consumed per completed request."""
        completed = self.completed_requests
        if completed == 0:
            raise ParameterError("no completed requests in the window")
        return self.metrics.busy_cycles() / completed

    @property
    def core_time_per_request(self) -> float:
        """Core time (busy + blocked) per completed request."""
        completed = self.completed_requests
        if completed == 0:
            raise ParameterError("no completed requests in the window")
        return self.metrics.total_cycles(_CONSUMING_KINDS) / completed

    # -- serialization helpers -------------------------------------------

    def measurement_record(self) -> Dict[str, object]:
        """Every scalar measurement, as one canonicalizable mapping.

        This is the value the determinism tests compare and the
        fingerprint hashes: if two runs agree on this record, they are the
        same measurement bit for bit.
        """
        sink = self.metrics
        completed = self.completed_requests
        record: Dict[str, object] = {
            "config": self.config,
            "events_processed": self.events_processed,
            "completed_requests": completed,
            "throughput": self.throughput if completed else 0.0,
            "cycles": dict(sink.cycles),
            "kernel_invocations": dict(sink.kernel_invocations),
            "kernel_cycles": dict(sink.kernel_cycles),
            "kernel_cycles_by_origin": dict(sink.kernel_cycles_by_origin),
            "offload_count": len(sink.offloads),
            "mean_queue_cycles": sink.mean_queue_cycles(),
            "latencies": tuple(
                request.completed_at - request.started_at
                for request in sink.requests
                if request.completed_at is not None
            ),
        }
        if completed:
            record["mean_latency_cycles"] = self.mean_latency_cycles
            record["percentiles"] = {
                p: self.latency_percentile(p) for p in SUMMARY_PERCENTILES
            }
        if sink.faults:
            # Only fault-affected runs grow these keys, so a fault-free
            # run's record (and fingerprint) is bit-identical to one taken
            # before the fault layer existed.
            record["faults"] = dict(sink.faults)
            record["degraded_requests"] = self.degraded_requests
            record["goodput"] = self.goodput if completed else 0.0
        return record

    def fingerprint(self) -> str:
        """Stable SHA-256 digest of the full measurement record.

        Identical across serial, pooled, and cached executions of the
        same :class:`~repro.runtime.RunSpec` -- the bit-identity contract
        the determinism regression tests enforce.
        """
        return canonical_digest(self.measurement_record(), salt="run-summary")
