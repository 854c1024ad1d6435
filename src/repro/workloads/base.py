"""Synthetic service workload models.

A :class:`ServiceWorkload` is the executable stand-in for one production
microservice: it carries the service's published functionality and leaf
cycle breakdowns, a fitted joint matrix for the "plain" (non-kernel)
cycles, and calibrated named kernels (encryption, compression, memory
copies, allocations) whose counts, granularity distributions, and
cycles-per-byte are mutually consistent with the paper's model parameters
(``alpha * C = n * Cb * E[g]``).

From a workload you can:

* generate request specs for the simulator (:meth:`request_factory`),
* read off a kernel's :class:`~repro.core.params.KernelProfile` for the
  analytical model (:meth:`kernel_profile`),
* get Strobelight-style trace templates (:meth:`trace_templates`).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from ..core.granularity import GranularityDistribution
from ..core.params import KernelProfile
from ..errors import CalibrationError, UnknownServiceError
from ..paperdata.categories import (
    LEAF_CATEGORIES,
    FunctionalityCategory,
    LeafCategory,
)
from ..profiling.stacks import TraceTemplate
from ..simulator.service import KernelInvocation, KernelSpec, RequestSpec, SegmentWork
from ..simulator.workload import BlockSampler
from .calibration import FUNCTIONALITIES, LEAVES, JointBreakdown, fit_joint

#: Frame names that make the default :class:`TraceBucketer` recover each
#: functionality -- used when synthesizing call-trace templates.
_FUNCTIONALITY_MARKER_FRAMES = {
    FunctionalityCategory.IO: "secure_io_send_recv",
    FunctionalityCategory.IO_PROCESSING: "io_preprocess_buffer",
    FunctionalityCategory.COMPRESSION: "zstd_compress_block",
    FunctionalityCategory.SERIALIZATION: "thrift_serialize_struct",
    FunctionalityCategory.FEATURE_EXTRACTION: "feature_extract_dense",
    FunctionalityCategory.PREDICTION_RANKING: "mlp_forward_inference",
    FunctionalityCategory.APPLICATION_LOGIC: "handle_request_core",
    FunctionalityCategory.LOGGING: "logger_append_entry",
    FunctionalityCategory.THREAD_POOL: "thread_pool_dispatch",
    FunctionalityCategory.MISCELLANEOUS: "runtime_support",
}


@dataclasses.dataclass(frozen=True)
class KernelTarget:
    """Declarative spec of one named kernel inside a service."""

    name: str
    leaf: LeafCategory
    #: Fraction of the service's total cycles spent in this kernel (its
    #: contribution to the Fig.-2 leaf share of ``leaf``).
    cycle_fraction: float
    #: Host cycles per byte (``Cb``).
    cycles_per_byte: float
    #: Offload-size distribution (Figs. 15/19/21/22).
    granularity: GranularityDistribution
    #: How the kernel's invocations distribute over functionality
    #: categories (Fig. 4's copy origins); weights are normalized.
    origin_weights: Mapping[FunctionalityCategory, float]
    complexity_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.cycle_fraction < 1.0:
            raise CalibrationError(
                f"kernel {self.name}: cycle_fraction must be in (0, 1)"
            )
        if self.cycles_per_byte <= 0:
            raise CalibrationError(f"kernel {self.name}: Cb must be positive")
        total = sum(self.origin_weights.values())
        if total <= 0:
            raise CalibrationError(
                f"kernel {self.name}: origin weights must have positive mass"
            )

    def normalized_origins(self) -> Dict[FunctionalityCategory, float]:
        total = sum(self.origin_weights.values())
        return {
            origin: weight / total
            for origin, weight in self.origin_weights.items()
            if weight > 0
        }


@dataclasses.dataclass(frozen=True)
class CalibratedKernel:
    """A kernel with derived counts and per-origin simulator specs."""

    target: KernelTarget
    #: ``n``: offloads per reference time unit.
    offloads_per_unit: float
    #: Mean invocations per request (summed over origins).
    invocations_per_request: float
    #: Mean invocations per request per origin functionality.
    origin_rates: Dict[FunctionalityCategory, float]
    #: One simulator KernelSpec per origin (same name and cost model, so a
    #: single OffloadConfig covers the whole kernel).
    specs: Dict[FunctionalityCategory, KernelSpec]

    @property
    def name(self) -> str:
        return self.target.name

    @property
    def mean_granularity(self) -> float:
        return self.target.granularity.mean


class ServiceWorkload:
    """One calibrated synthetic microservice."""

    def __init__(
        self,
        name: str,
        reference_cycles: float,
        request_cycles: float,
        functionality_shares: Mapping[FunctionalityCategory, float],
        leaf_shares: Mapping[LeafCategory, float],
        kernel_targets: Tuple[KernelTarget, ...] = (),
        platform_cores: int = 20,
    ) -> None:
        if reference_cycles <= 0:
            raise CalibrationError("reference_cycles must be positive")
        if request_cycles <= 0:
            raise CalibrationError("request_cycles must be positive")
        func_total = float(sum(functionality_shares.values()))
        leaf_total = float(sum(leaf_shares.values()))
        if abs(func_total - leaf_total) > 1e-6 * max(func_total, 1.0):
            raise CalibrationError(
                f"{name}: functionality and leaf breakdowns disagree on "
                f"total mass ({func_total} vs {leaf_total})"
            )
        self.name = name
        self.reference_cycles = reference_cycles
        self.request_cycles = request_cycles
        self.platform_cores = platform_cores
        # Normalize published shares (usually percents) to fractions.
        self.functionality_fractions = {
            f: functionality_shares.get(f, 0.0) / func_total for f in FUNCTIONALITIES
        }
        self.leaf_fractions = {
            l: leaf_shares.get(l, 0.0) / leaf_total for l in LEAVES
        }
        self.kernels: Dict[str, CalibratedKernel] = {}
        kernel_cell: Dict[Tuple[FunctionalityCategory, LeafCategory], float] = {}
        for target in kernel_targets:
            if target.name in self.kernels:
                raise CalibrationError(f"duplicate kernel {target.name!r}")
            calibrated = self._calibrate_kernel(target)
            self.kernels[target.name] = calibrated
            for origin, weight in target.normalized_origins().items():
                key = (origin, target.leaf)
                kernel_cell[key] = (
                    kernel_cell.get(key, 0.0) + target.cycle_fraction * weight
                )
        self._kernel_cells = kernel_cell
        self.joint = self._fit_residual_joint()

    # -- calibration ---------------------------------------------------------

    def _calibrate_kernel(self, target: KernelTarget) -> CalibratedKernel:
        dist = target.granularity
        mean_cost = sum(
            count * target.cycles_per_byte * size**target.complexity_exponent
            for size, count in zip(dist.sizes, dist.counts)
        ) / dist.total_count
        if mean_cost <= 0:
            raise CalibrationError(f"kernel {target.name}: zero mean cost")
        offloads_per_unit = (
            target.cycle_fraction * self.reference_cycles / mean_cost
        )
        invocations_per_request = (
            offloads_per_unit * self.request_cycles / self.reference_cycles
        )
        origins = target.normalized_origins()
        origin_rates = {
            origin: invocations_per_request * weight
            for origin, weight in origins.items()
        }
        specs = {
            origin: KernelSpec(
                name=target.name,
                functionality=origin,
                leaf=target.leaf,
                cycles_per_byte=target.cycles_per_byte,
                complexity_exponent=target.complexity_exponent,
            )
            for origin in origins
        }
        return CalibratedKernel(
            target=target,
            offloads_per_unit=offloads_per_unit,
            invocations_per_request=invocations_per_request,
            origin_rates=origin_rates,
            specs=specs,
        )

    def _fit_residual_joint(self) -> JointBreakdown:
        residual_func = dict(self.functionality_fractions)
        residual_leaf = dict(self.leaf_fractions)
        for (origin, leaf), fraction in self._kernel_cells.items():
            residual_func[origin] = residual_func.get(origin, 0.0) - fraction
            residual_leaf[leaf] = residual_leaf.get(leaf, 0.0) - fraction
        for category, value in {**residual_func, **residual_leaf}.items():
            if value < -1e-9:
                raise CalibrationError(
                    f"{self.name}: kernels over-commit {category} "
                    f"by {-value:.4f} of total cycles"
                )
        residual_total = sum(max(v, 0.0) for v in residual_func.values())
        fitted = fit_joint(
            {f: max(residual_func.get(f, 0.0), 0.0) for f in FUNCTIONALITIES},
            {l: max(residual_leaf.get(l, 0.0), 0.0) for l in LEAVES},
        )
        # fit_joint normalizes to 1; rescale so cells are fractions of the
        # service's *total* cycles.
        return JointBreakdown(matrix=fitted.matrix * residual_total)

    # -- derived quantities ----------------------------------------------------

    @property
    def requests_per_unit(self) -> float:
        """Requests served per reference time unit (one busy core-second)."""
        return self.reference_cycles / self.request_cycles

    def kernel_profile(self, kernel_name: str) -> KernelProfile:
        """The kernel's parameters for the Accelerometer model."""
        kernel = self._get_kernel(kernel_name)
        return KernelProfile(
            total_cycles=self.reference_cycles,
            kernel_fraction=kernel.target.cycle_fraction,
            offloads_per_unit=kernel.offloads_per_unit,
            cycles_per_byte=kernel.target.cycles_per_byte,
            complexity_exponent=kernel.target.complexity_exponent,
        )

    def granularity_distribution(self, kernel_name: str) -> GranularityDistribution:
        return self._get_kernel(kernel_name).target.granularity

    def _get_kernel(self, kernel_name: str) -> CalibratedKernel:
        if kernel_name not in self.kernels:
            raise UnknownServiceError(
                f"service {self.name!r} has no kernel {kernel_name!r}"
            )
        return self.kernels[kernel_name]

    def plain_cycle_fraction(
        self, functionality: FunctionalityCategory
    ) -> float:
        """Non-kernel cycle fraction for one functionality."""
        return self.joint.functionality_share(functionality)

    # -- request generation -------------------------------------------------------

    def request_factory(
        self, rng: np.random.Generator
    ) -> Callable[[], RequestSpec]:
        """A factory of request specs whose expected cycle composition
        matches the published breakdowns.

        Plain cycles per functionality are deterministic (their joint-cell
        share of ``request_cycles``); kernel invocation counts are Poisson
        with the calibrated per-request rate, and granularities are drawn
        from the kernel's distribution.

        Each functionality's segment is built once, as a template: a
        request that draws no kernel call there shares the template
        itself, and one that does gets a copy carrying its calls that
        shares the template's split plain ops
        (:meth:`~repro.simulator.service.SegmentWork.with_invocations`).
        """
        plain = {
            functionality: self.joint.functionality_share(functionality)
            * self.request_cycles
            for functionality in FUNCTIONALITIES
        }
        #: functionality -> its segment without kernel calls.  Requests
        #: share it whole when they draw no call there, and otherwise
        #: stamp their calls onto it, sharing its split plain ops.
        templates = {
            functionality: SegmentWork(
                functionality=functionality,
                plain_cycles=plain[functionality],
                leaf_mix=self.joint.leaf_mix(functionality)
                or {LeafCategory.MISCELLANEOUS: 1.0},
            )
            for functionality in FUNCTIONALITIES
        }

        # Pre-sampled draws: vectorized numpy calls amortized over many
        # requests replace scalar RNG calls per request on the simulator
        # hot path.  Distributions are identical; only the order of draws
        # on the shared generator changes.
        #
        # Each (kernel, origin) lowers to a table of shared invocations,
        # one per distinct size, and requests draw indices into it
        # through the distribution's precomputed CDF.
        kernel_samplers = []
        for kernel in self.kernels.values():
            dist = kernel.target.granularity
            for origin, rate in kernel.origin_rates.items():
                spec = kernel.specs[origin]
                table = tuple(
                    KernelInvocation(kernel=spec, granularity=float(size))
                    for size in dist.sizes
                )
                kernel_samplers.append(
                    (
                        origin,
                        table,
                        BlockSampler(
                            lambda n, r=rate: rng.poisson(r, size=n)
                        ),
                        BlockSampler(functools.partial(dist.sample_indices, rng)),
                    )
                )

        def factory() -> RequestSpec:
            invocations_by_origin: Dict[FunctionalityCategory, list] = {}
            for origin, table, count_sampler, index_sampler in kernel_samplers:
                count = int(count_sampler.next())
                if count == 0:
                    continue
                invocations_by_origin.setdefault(origin, []).extend(
                    [table[i] for i in index_sampler.take(count).tolist()]
                )
            segments = []
            for functionality in FUNCTIONALITIES:
                invocations = invocations_by_origin.get(functionality)
                if invocations is not None:
                    segments.append(
                        templates[functionality].with_invocations(
                            tuple(invocations)
                        )
                    )
                elif plain[functionality] > 0:
                    segments.append(templates[functionality])
            return RequestSpec(segments=tuple(segments))

        return factory

    # -- trace templates --------------------------------------------------------

    def trace_templates(self) -> Tuple[TraceTemplate, ...]:
        """Strobelight-style call-stack templates covering every
        (functionality, leaf) pair this workload can charge cycles to."""
        templates = []
        pairs = set()
        for i, functionality in enumerate(FUNCTIONALITIES):
            for j, leaf in enumerate(LEAVES):
                if self.joint.matrix[i, j] > 1e-6:
                    pairs.add((functionality, leaf))
        for (origin, leaf), fraction in self._kernel_cells.items():
            if fraction > 0:
                pairs.add((origin, leaf))
        for functionality, leaf in sorted(pairs, key=lambda p: (p[0].value, p[1].value)):
            leaf_function = LEAF_CATEGORIES[leaf][0]
            templates.append(
                TraceTemplate(
                    frames=(
                        f"{self.name}_worker_loop",
                        _FUNCTIONALITY_MARKER_FRAMES[functionality],
                        leaf_function,
                    ),
                    functionality=functionality,
                    leaf=leaf,
                )
            )
        return tuple(templates)
