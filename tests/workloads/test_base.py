"""Unit tests for the ServiceWorkload model."""

import numpy as np
import pytest

from repro.core import GranularityDistribution, ThreadingDesign
from repro.errors import CalibrationError, UnknownServiceError
from repro.paperdata import CACHE1_AES_NI_STUDY, CACHE3_ENCRYPTION_STUDY
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    CPU,
    BlockSampler,
    Engine,
    KernelInvocation,
    KernelSpec,
    MetricSink,
    RequestSpec,
    SegmentWork,
)
from repro.workloads import KernelTarget, ServiceWorkload, build_workload
from repro.workloads.calibration import FUNCTIONALITIES

DIST = GranularityDistribution(sizes=(100.0,), counts=(1.0,))


def make_workload(kernels=(), functionality=None, leaf=None):
    functionality = functionality or {
        F.IO: 30, F.COMPRESSION: 20, F.APPLICATION_LOGIC: 50,
    }
    leaf = leaf or {
        L.KERNEL: 25, L.ZSTD: 15, L.MEMORY: 20, L.C_LIBRARIES: 40,
    }
    return ServiceWorkload(
        name="toy",
        reference_cycles=1.0e9,
        request_cycles=1.0e5,
        functionality_shares=functionality,
        leaf_shares=leaf,
        kernel_targets=tuple(kernels),
    )


def compression_kernel(fraction=0.15, cb=5.0):
    return KernelTarget(
        name="compression", leaf=L.ZSTD, cycle_fraction=fraction,
        cycles_per_byte=cb, granularity=DIST,
        origin_weights={F.COMPRESSION: 1.0},
    )


class TestConstruction:
    def test_marginals_disagreeing_rejected(self):
        with pytest.raises(CalibrationError):
            make_workload(
                functionality={F.IO: 100},
                leaf={L.KERNEL: 50},
            )

    def test_joint_matches_published_marginals(self):
        workload = make_workload()
        assert workload.plain_cycle_fraction(F.IO) == pytest.approx(0.30, abs=1e-6)
        assert workload.joint.leaf_share(L.ZSTD) == pytest.approx(0.15, abs=1e-6)

    def test_kernel_cycles_deducted_from_joint(self):
        workload = make_workload([compression_kernel(0.15)])
        # All ZSTD leaf cycles belong to the kernel; the residual joint
        # has none left.
        assert workload.joint.leaf_share(L.ZSTD) == pytest.approx(0.0, abs=1e-6)
        assert workload.plain_cycle_fraction(F.COMPRESSION) == pytest.approx(
            0.05, abs=1e-6
        )

    def test_overcommitted_leaf_rejected(self):
        with pytest.raises(CalibrationError):
            make_workload([compression_kernel(0.20)])  # only 15% ZSTD exists

    def test_overcommitted_functionality_rejected(self):
        kernel = KernelTarget(
            name="k", leaf=L.MEMORY, cycle_fraction=0.19,
            cycles_per_byte=1.0, granularity=DIST,
            origin_weights={F.COMPRESSION: 1.0},  # compression is only 20%...
        )
        # 19% memory inside 20% compression is fine; 15% zstd kernel on
        # top overcommits the compression functionality (19 + 15 > 20).
        with pytest.raises(CalibrationError):
            make_workload([kernel, compression_kernel(0.15)])

    def test_duplicate_kernel_rejected(self):
        with pytest.raises(CalibrationError):
            make_workload([compression_kernel(), compression_kernel()])


class TestKernelCalibration:
    def test_offload_count_from_alpha_cb_and_mean(self):
        workload = make_workload([compression_kernel(0.15, cb=5.0)])
        kernel = workload.kernels["compression"]
        # alpha*C / (Cb * mean_g) = 0.15e9 / 500
        assert kernel.offloads_per_unit == pytest.approx(3.0e5)

    def test_invocations_per_request(self):
        workload = make_workload([compression_kernel(0.15, cb=5.0)])
        kernel = workload.kernels["compression"]
        assert kernel.invocations_per_request == pytest.approx(
            kernel.offloads_per_unit * 1e5 / 1e9
        )

    def test_kernel_profile_for_model(self):
        workload = make_workload([compression_kernel(0.15, cb=5.0)])
        profile = workload.kernel_profile("compression")
        assert profile.kernel_fraction == 0.15
        assert profile.cycles_per_byte == 5.0
        assert profile.total_cycles == 1.0e9

    def test_unknown_kernel_raises(self):
        workload = make_workload()
        with pytest.raises(UnknownServiceError):
            workload.kernel_profile("nope")

    def test_requests_per_unit(self):
        assert make_workload().requests_per_unit == pytest.approx(1e4)


class TestRequestFactory:
    def test_mean_request_cost_matches_target(self):
        workload = make_workload([compression_kernel(0.15, cb=5.0)])
        rng = np.random.default_rng(5)
        factory = workload.request_factory(rng)
        costs = [factory().total_host_cycles() for _ in range(300)]
        assert np.mean(costs) == pytest.approx(1e5, rel=0.02)

    def test_kernel_invocation_rate(self):
        workload = make_workload([compression_kernel(0.15, cb=5.0)])
        rng = np.random.default_rng(6)
        factory = workload.request_factory(rng)
        counts = []
        for _ in range(300):
            spec = factory()
            counts.append(
                sum(len(segment.invocations) for segment in spec.segments)
            )
        expected = workload.kernels["compression"].invocations_per_request
        assert np.mean(counts) == pytest.approx(expected, rel=0.05)

    def test_segments_have_positive_cycles_or_invocations(self):
        workload = make_workload([compression_kernel()])
        rng = np.random.default_rng(7)
        spec = workload.request_factory(rng)()
        for segment in spec.segments:
            assert segment.plain_cycles > 0 or segment.invocations


    def test_invocation_free_segments_are_shared(self):
        workload = build_workload("cache1")
        factory = workload.request_factory(np.random.default_rng(4))
        shared = {}
        for _ in range(50):
            for segment in factory().segments:
                if not segment.invocations:
                    first = shared.setdefault(segment.functionality, segment)
                    assert first is segment
        # Every plain-only functionality appeared at least once.
        assert len(shared) >= 3


def per_call_factory(workload, rng):
    """The request factory as it was before invocation tables: one
    ``rng.choice`` over the sizes themselves and a fresh
    :class:`KernelInvocation` per call (deterministic plain cycles)."""
    samplers = []
    for kernel in workload.kernels.values():
        dist = kernel.target.granularity
        sizes = np.asarray(dist.sizes, dtype=float)
        probs = np.asarray(dist.counts, dtype=float)
        probs = probs / probs.sum()
        for origin, rate in kernel.origin_rates.items():
            samplers.append((
                origin,
                kernel.specs[origin],
                BlockSampler(lambda n, r=rate: rng.poisson(r, size=n)),
                BlockSampler(
                    lambda n, s=sizes, p=probs: rng.choice(s, size=n, p=p)
                ),
            ))

    def factory():
        by_origin = {}
        for origin, spec, count_sampler, size_sampler in samplers:
            count = int(count_sampler.next())
            if count == 0:
                continue
            by_origin.setdefault(origin, []).extend(
                KernelInvocation(kernel=spec, granularity=float(size))
                for size in size_sampler.take(count)
            )
        segments = []
        for functionality in FUNCTIONALITIES:
            cycles = workload.joint.functionality_share(functionality) * (
                workload.request_cycles
            )
            invocations = tuple(by_origin.get(functionality, ()))
            if cycles <= 0 and not invocations:
                continue
            segments.append(SegmentWork(
                functionality=functionality,
                plain_cycles=cycles,
                leaf_mix=workload.joint.leaf_mix(functionality)
                or {L.MISCELLANEOUS: 1.0},
                invocations=invocations,
            ))
        return RequestSpec(segments=tuple(segments))

    return factory


def per_call_study_factory(record, service, rng):
    """The Table-6 encryption-study factory as it was before size tables:
    per request, one ``rng.poisson`` count, then ``rng.choice`` over the
    sizes themselves with freshly normalized probabilities, and a fresh
    :class:`KernelInvocation` per call inside a fresh IO segment."""
    workload = build_workload(service)
    requests_per_unit = record.total_cycles / workload.request_cycles
    invocations_per_request = record.offloads_per_unit / requests_per_unit
    kernel_cycles = record.alpha * workload.request_cycles
    distribution = workload.granularity_distribution("encryption")
    spec = KernelSpec(
        name="encryption", functionality=F.IO, leaf=L.SSL,
        cycles_per_byte=kernel_cycles
        / (invocations_per_request * distribution.mean),
    )
    io_plain = 0.025 * workload.request_cycles
    logic = SegmentWork(
        F.APPLICATION_LOGIC,
        plain_cycles=workload.request_cycles - kernel_cycles - io_plain,
        leaf_mix={L.MISCELLANEOUS: 1.0},
    )

    def factory():
        count = int(rng.poisson(invocations_per_request))
        sizes = ()
        if count:
            probabilities = np.asarray(distribution.counts, dtype=float)
            probabilities = probabilities / probabilities.sum()
            sizes = rng.choice(
                np.asarray(distribution.sizes, dtype=float), size=count,
                p=probabilities,
            )
        io = SegmentWork(
            F.IO, plain_cycles=io_plain, leaf_mix={L.KERNEL: 1.0},
            invocations=tuple(
                KernelInvocation(kernel=spec, granularity=float(size))
                for size in np.atleast_1d(sizes)
            ),
        )
        return RequestSpec(segments=(logic, io))

    return factory


def study_factory(record, service, seed):
    """The lowered factory a Table-6 encryption study's baseline runs."""
    from repro.validation.case_studies import _encryption_study_builds

    build_baseline, _ = _encryption_study_builds(
        record, service, ThreadingDesign.SYNC,
        device_speedup=record.peak_speedup, num_cores=1, seed=seed,
    )
    engine = Engine()
    metrics = MetricSink()
    return build_baseline(engine, CPU(engine, metrics, 1), metrics)[1]


def assert_same_requests(lowered, reference, count=40):
    """*count* requests compare equal, split plain ops included (they are
    ``compare=False`` on :class:`SegmentWork`)."""
    for _ in range(count):
        mine, theirs = lowered(), reference()
        assert mine == theirs
        assert [segment.plain_ops for segment in mine.segments] == [
            segment.plain_ops for segment in theirs.segments
        ]


class TestInvocationTables:
    @pytest.mark.parametrize("service", ["cache1", "feed1", "web"])
    @pytest.mark.parametrize("seed", [0, 7, 2020])
    def test_lowered_factory_equals_per_call_construction(self, service, seed):
        workload = build_workload(service)
        lowered = workload.request_factory(np.random.default_rng(seed))
        reference = per_call_factory(workload, np.random.default_rng(seed))
        assert_same_requests(lowered, reference)

    @pytest.mark.parametrize(
        "record,service",
        [(CACHE1_AES_NI_STUDY, "cache1"), (CACHE3_ENCRYPTION_STUDY, "cache3")],
        ids=["aes-ni", "encryption"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2020])
    def test_study_factory_equals_per_call_construction(
        self, record, service, seed
    ):
        lowered = study_factory(record, service, seed)
        reference = per_call_study_factory(
            record, service, np.random.default_rng(seed)
        )
        assert_same_requests(lowered, reference)

    def test_requests_share_one_invocation_per_size(self):
        workload = build_workload("cache1")
        factory = workload.request_factory(np.random.default_rng(3))
        seen = {}
        for _ in range(20):
            for segment in factory().segments:
                for invocation in segment.invocations:
                    key = (invocation.kernel, invocation.granularity)
                    assert seen.setdefault(key, invocation) is invocation
        assert seen


class TestTraceTemplates:
    def test_templates_cover_joint_and_kernels(self):
        workload = make_workload([compression_kernel()])
        templates = workload.trace_templates()
        pairs = {(t.functionality, t.leaf) for t in templates}
        assert (F.COMPRESSION, L.ZSTD) in pairs  # the kernel's cell
        assert (F.IO, L.KERNEL) in pairs

    def test_templates_round_trip_through_default_tools(self):
        from repro.profiling import LeafTagger, TraceBucketer

        workload = make_workload([compression_kernel()])
        tagger, bucketer = LeafTagger(), TraceBucketer()
        for template in workload.trace_templates():
            assert tagger.tag(template.leaf_function) is template.leaf
            assert bucketer.bucket(template.frames) is template.functionality
