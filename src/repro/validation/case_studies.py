"""The three retrospective case studies (Sec. 4, Table 6, Figs. 15-18).

For each study this module provides:

* :func:`model_estimate` -- the Accelerometer projection from Table 6's
  parameters (reproducing the paper's printed estimates), and
* :func:`simulate` -- an A/B experiment on the simulator substrate whose
  accelerated variant implements the study's acceleration strategy, so the
  model can be validated against a *measured* speedup the way the paper
  validates against production.

Study-specific modelling notes:

* **AES-NI (Cache1, Sync, on-chip)** -- the accelerator is replicated per
  core (an instruction, not a shared device), so no cross-core queueing.
* **Encryption device (Cache3, Async fire-and-forget, off-chip)** -- the
  host pays the PCIe transfer per offload and never consumes a response;
  Table 6 lists A as NA because accelerator cycles never reach the host's
  critical path.
* **Remote inference (Ads1, async with a distinct response thread)** --
  production batched ~100 requests per offload (n = 10/s at ~1000 rps), so
  the simulated accelerated variant amortizes the Table-6 per-offload
  dispatch cost (o0 = 25M cycles of extra I/O) and thread switch (o1)
  across the requests in a batch, and drops the local inference segment.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..core import (
    Accelerometer,
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    ProjectionResult,
)
from ..core.strategies import ThreadingDesign
from ..errors import ParameterError
from ..paperdata.case_studies import (
    ADS1_INFERENCE_STUDY,
    CACHE1_AES_NI_STUDY,
    CACHE3_ENCRYPTION_STUDY,
    CaseStudyRecord,
    TABLE6_CASE_STUDIES,
)
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import (
    AcceleratorDevice,
    InterfaceModel,
    Microservice,
    OffloadConfig,
    SimulationConfig,
)
from ..simulator.service import KernelInvocation, KernelSpec, RequestSpec, SegmentWork
from ..workloads import build_workload
from .abtest import ABTestResult, ab_test

#: Device-side peak speedup assumed for the Cache3 simulation.  Table 6
#: lists A as NA (it cancels out of the Async fire-and-forget speedup);
#: the simulator still needs a finite service rate for the device queue.
CACHE3_DEVICE_SPEEDUP = 20.0


def scenario_for(record: CaseStudyRecord) -> OffloadScenario:
    """Map a Table-6 row onto an Accelerometer scenario."""
    peak = record.peak_speedup
    if peak is None:
        # A is NA: the host never waits for the accelerator, so any large
        # value leaves the projected speedup unchanged; keep it finite for
        # the latency equations.
        peak = 1.0e9
    return OffloadScenario(
        kernel=KernelProfile(
            total_cycles=record.total_cycles,
            kernel_fraction=record.alpha,
            offloads_per_unit=record.offloads_per_unit,
        ),
        accelerator=AcceleratorSpec(peak_speedup=peak, placement=record.placement),
        costs=OffloadCosts(
            dispatch_cycles=record.dispatch_cycles,
            interface_cycles=record.interface_cycles,
            queue_cycles=record.queue_cycles,
            thread_switch_cycles=record.thread_switch_cycles,
        ),
        design=record.design,
    )


def model_estimate(record: CaseStudyRecord) -> ProjectionResult:
    """Accelerometer's projection for one case study (Table 6's
    "Est. Speedup" column)."""
    return Accelerometer().evaluate(scenario_for(record))


def validation_error_pct(record: CaseStudyRecord) -> float:
    """|model-estimated - production-measured| speedup, in percentage
    points, using the paper's printed production numbers."""
    estimated = model_estimate(record).speedup_percent
    return abs(estimated - record.real_speedup_pct)


# ---------------------------------------------------------------------------
# Simulated A/B experiments.
# ---------------------------------------------------------------------------


def _encryption_study_builds(
    record: CaseStudyRecord,
    service: str,
    design: ThreadingDesign,
    device_speedup: float,
    num_cores: int,
    seed: int,
):
    """Builds for the two encryption studies: the service's calibrated
    workload with its encryption kernel re-pinned to the study's alpha and
    offload count."""
    workload = build_workload(service)
    requests_per_unit = record.total_cycles / workload.request_cycles
    invocations_per_request = record.offloads_per_unit / requests_per_unit
    kernel_cycles_per_request = (
        record.alpha * workload.request_cycles
    )
    distribution = workload.granularity_distribution("encryption")
    cycles_per_byte = kernel_cycles_per_request / (
        invocations_per_request * distribution.mean
    )
    kernel_template = KernelSpec(
        name="encryption",
        functionality=F.IO,
        leaf=L.SSL,
        cycles_per_byte=cycles_per_byte,
    )
    # The "secure IO" functionality also contains non-encryption work
    # (session bookkeeping, plain sends) that acceleration cannot remove --
    # that residue is why the paper's Fig. 16 shows a 73% (not ~100%)
    # secure-IO reduction.  Keep a slice of plain cycles inside the IO
    # segment to model it.
    io_plain_cycles = 0.025 * workload.request_cycles
    plain_cycles = (
        workload.request_cycles - kernel_cycles_per_request - io_plain_cycles
    )

    # Invocations are immutable, so one per distinct size serves every
    # request of both builds.
    invocations_by_size: Dict[float, KernelInvocation] = {}

    def invocation(size: float) -> KernelInvocation:
        shared = invocations_by_size.get(size)
        if shared is None:
            shared = invocations_by_size[size] = KernelInvocation(
                kernel=kernel_template, granularity=size
            )
        return shared

    def make_factory(rng: np.random.Generator):
        def factory() -> RequestSpec:
            count = int(rng.poisson(invocations_per_request))
            sizes = distribution.sample(rng, count) if count else []
            invocations = tuple(
                invocation(float(s)) for s in np.atleast_1d(sizes)
            ) if count else ()
            return RequestSpec(
                segments=(
                    SegmentWork(
                        functionality=F.APPLICATION_LOGIC,
                        plain_cycles=plain_cycles,
                        leaf_mix={L.MISCELLANEOUS: 1.0},
                    ),
                    SegmentWork(
                        functionality=F.IO,
                        plain_cycles=io_plain_cycles,
                        leaf_mix={L.KERNEL: 1.0},
                        invocations=invocations,
                    ),
                )
            )

        return factory

    def build_baseline(engine, cpu, metrics):
        service_runtime = Microservice(engine, cpu, metrics, name=service)
        return service_runtime, make_factory(np.random.default_rng(seed))

    def build_accelerated(engine, cpu, metrics):
        device = AcceleratorDevice(
            engine,
            peak_speedup=device_speedup,
            placement=record.placement,
            servers=num_cores,
            name=record.name,
        )
        interface = InterfaceModel(
            placement=record.placement,
            dispatch_cycles=record.dispatch_cycles,
            transfer_base_cycles=record.interface_cycles,
        )
        config = OffloadConfig(
            device=device,
            interface=interface,
            design=design,
            thread_switch_cycles=record.thread_switch_cycles,
        )
        service_runtime = Microservice(
            engine, cpu, metrics, name=service, offloads={"encryption": config}
        )
        return service_runtime, make_factory(np.random.default_rng(seed))

    return build_baseline, build_accelerated


def simulate_aes_ni(
    num_cores: int = 4, requests: int = 600, seed: int = 11
) -> ABTestResult:
    """Case study 1: AES-NI for Cache1 (on-chip, Sync)."""
    record = CACHE1_AES_NI_STUDY
    workload = build_workload("cache1")
    build_baseline, build_accelerated = _encryption_study_builds(
        record,
        "cache1",
        ThreadingDesign.SYNC,
        device_speedup=record.peak_speedup,
        num_cores=num_cores,
        seed=seed,
    )
    config = SimulationConfig(
        num_cores=num_cores,
        threads_per_core=1,
        window_cycles=workload.request_cycles * requests,
    )
    return ab_test(build_baseline, build_accelerated, config)


def simulate_cache3_encryption(
    num_cores: int = 4, requests: int = 600, seed: int = 13
) -> ABTestResult:
    """Case study 2: off-chip encryption device for Cache3 (Async,
    fire-and-forget with receipt acknowledgement)."""
    record = CACHE3_ENCRYPTION_STUDY
    workload = build_workload("cache3")
    build_baseline, build_accelerated = _encryption_study_builds(
        record,
        "cache3",
        ThreadingDesign.ASYNC_NO_RESPONSE,
        device_speedup=CACHE3_DEVICE_SPEEDUP,
        num_cores=num_cores,
        seed=seed,
    )
    config = SimulationConfig(
        num_cores=num_cores,
        threads_per_core=1,
        window_cycles=workload.request_cycles * requests,
    )
    return ab_test(build_baseline, build_accelerated, config)


def simulate_remote_inference(
    num_cores: int = 4, requests: int = 400, seed: int = 17
) -> ABTestResult:
    """Case study 3: remote CPU inference for Ads1 (async offload, distinct
    response thread, A = 1).

    Production batches inference offloads (n = 10/s against ~1000
    requests/s), so the accelerated variant drops the local inference
    segment and adds the batch-amortized I/O dispatch overhead and one
    amortized response-thread switch per request.
    """
    record = ADS1_INFERENCE_STUDY
    workload = build_workload("ads1")
    request_cycles = workload.request_cycles
    requests_per_unit = record.total_cycles / request_cycles
    inference_cycles = record.alpha * request_cycles
    plain_cycles = request_cycles - inference_cycles
    extra_io_per_request = (
        record.offloads_per_unit * record.dispatch_cycles / requests_per_unit
    )
    switch_per_request = (
        record.offloads_per_unit * record.thread_switch_cycles / requests_per_unit
    )

    def make_factory(accelerated: bool):
        def factory() -> RequestSpec:
            segments = [
                SegmentWork(
                    functionality=F.APPLICATION_LOGIC,
                    plain_cycles=plain_cycles,
                    leaf_mix={L.MISCELLANEOUS: 1.0},
                )
            ]
            if accelerated:
                segments.append(
                    SegmentWork(
                        functionality=F.IO,
                        plain_cycles=extra_io_per_request,
                        leaf_mix={L.KERNEL: 1.0},
                    )
                )
                segments.append(
                    SegmentWork(
                        functionality=F.THREAD_POOL,
                        plain_cycles=switch_per_request,
                        leaf_mix={L.KERNEL: 1.0},
                    )
                )
            else:
                segments.append(
                    SegmentWork(
                        functionality=F.PREDICTION_RANKING,
                        plain_cycles=inference_cycles,
                        leaf_mix={L.MATH: 1.0},
                    )
                )
            return RequestSpec(segments=tuple(segments))

        return factory

    def build_baseline(engine, cpu, metrics):
        return Microservice(engine, cpu, metrics, name="ads1"), make_factory(False)

    def build_accelerated(engine, cpu, metrics):
        return Microservice(engine, cpu, metrics, name="ads1"), make_factory(True)

    config = SimulationConfig(
        num_cores=num_cores,
        threads_per_core=1,
        window_cycles=request_cycles * requests,
    )
    return ab_test(build_baseline, build_accelerated, config)


@dataclasses.dataclass(frozen=True)
class CaseStudyOutcome:
    """Everything Table 6 reports for one study, from our substrate."""

    record: CaseStudyRecord
    model_speedup_pct: float
    simulated_speedup_pct: float
    paper_estimated_pct: float
    paper_real_pct: float

    @property
    def model_vs_simulation_error(self) -> float:
        """|model - simulated| in percentage points: the reproduction's
        analogue of the paper's <= 3.7% validation claim."""
        return abs(self.model_speedup_pct - self.simulated_speedup_pct)

    @property
    def model_vs_paper_error(self) -> float:
        return abs(self.model_speedup_pct - self.paper_estimated_pct)


CASE_STUDY_SIMULATORS = {
    "aes-ni": simulate_aes_ni,
    "encryption": simulate_cache3_encryption,
    "inference": simulate_remote_inference,
}

# Backwards-compatible alias.
_SIMULATORS = CASE_STUDY_SIMULATORS


def simulate_all_case_studies(
    workers: int = 1, cache=None, **kwargs
) -> Dict[str, ABTestResult]:
    """Run all three case-study A/B simulations through the batch
    executor (*workers* parallel processes, optional result *cache*)."""
    from ..runtime import RunSpec, execute_batch

    names = tuple(CASE_STUDY_SIMULATORS)
    specs = [
        RunSpec.create("case_study", name=name, **kwargs) for name in names
    ]
    results = execute_batch(specs, workers=workers, cache=cache)
    return dict(zip(names, results))


def run_case_study(name: str, **kwargs) -> CaseStudyOutcome:
    """Run one named case study end to end (model + simulation)."""
    records = {record.name: record for record in TABLE6_CASE_STUDIES}
    if name not in records:
        raise ParameterError(
            f"unknown case study {name!r}; choose from {sorted(records)}"
        )
    record = records[name]
    estimate = model_estimate(record)
    simulated = CASE_STUDY_SIMULATORS[name](**kwargs)
    return CaseStudyOutcome(
        record=record,
        model_speedup_pct=estimate.speedup_percent,
        simulated_speedup_pct=simulated.speedup_percent,
        paper_estimated_pct=record.estimated_speedup_pct,
        paper_real_pct=record.real_speedup_pct,
    )


def run_all_case_studies(
    workers: int = 1, cache=None, **kwargs
) -> Dict[str, CaseStudyOutcome]:
    """All three Table-6 studies (simulated via the batch executor)."""
    records = {record.name: record for record in TABLE6_CASE_STUDIES}
    simulations = simulate_all_case_studies(
        workers=workers, cache=cache, **kwargs
    )
    outcomes: Dict[str, CaseStudyOutcome] = {}
    for name, simulated in simulations.items():
        record = records[name]
        estimate = model_estimate(record)
        outcomes[name] = CaseStudyOutcome(
            record=record,
            model_speedup_pct=estimate.speedup_percent,
            simulated_speedup_pct=simulated.speedup_percent,
            paper_estimated_pct=record.estimated_speedup_pct,
            paper_real_pct=record.real_speedup_pct,
        )
    return outcomes
