"""Offload granularity distributions.

The paper measures, with bpftrace, the distribution of offload sizes ``g``
for each kernel (CDFs in Figs. 15, 19, 21, 22) and then offloads only the
sizes above the break-even threshold.  :class:`GranularityDistribution`
captures such a distribution; :func:`selective_profile` restricts a
:class:`~repro.core.params.KernelProfile` to the lucrative subset, which is
step (1)-(2) of the paper's validation methodology.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from .breakeven import min_profitable_granularity
from .params import AcceleratorSpec, KernelProfile, OffloadCosts
from .strategies import ThreadingDesign


def _geometric_midpoint(low: float, high: float) -> float:
    """Representative size for a histogram bin spanning [low, high)."""
    low = max(low, 1.0)
    if math.isinf(high):
        return low * 2.0
    if high <= low:
        return low
    return math.sqrt(low * high)


@dataclasses.dataclass(frozen=True)
class GranularityDistribution:
    """A discrete distribution over offload sizes in bytes.

    ``sizes`` are strictly increasing; ``counts`` are the (possibly
    fractional) number of offloads observed at each size per time unit.
    The simulator draws sizes as indices into ``sizes`` through
    :meth:`sample_indices`, whose CDF is built once per distribution.
    """

    sizes: Tuple[float, ...]
    counts: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.counts):
            raise ParameterError("sizes and counts must have equal length")
        if not self.sizes:
            raise ParameterError("distribution must contain at least one size")
        if any(s < 0 for s in self.sizes):
            raise ParameterError("sizes must be non-negative")
        if any(c < 0 for c in self.counts):
            raise ParameterError("counts must be non-negative")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ParameterError("sizes must be strictly increasing")
        if self.total_count == 0:
            raise ParameterError("distribution must have positive total count")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "GranularityDistribution":
        """Build from raw observed sizes (e.g. bpftrace samples)."""
        tally: dict = {}
        for s in samples:
            tally[float(s)] = tally.get(float(s), 0.0) + 1.0
        if not tally:
            raise ParameterError("no samples provided")
        sizes = tuple(sorted(tally))
        return cls(sizes=sizes, counts=tuple(tally[s] for s in sizes))

    @classmethod
    def from_histogram(
        cls,
        bin_edges: Sequence[float],
        bin_counts: Sequence[float],
    ) -> "GranularityDistribution":
        """Build from a binned histogram like the paper's CDF figures.

        *bin_edges* has one more element than *bin_counts*; the last edge
        may be ``math.inf``.  Each bin is represented by its geometric
        midpoint, matching the log-scaled ranges the paper plots.
        """
        if len(bin_edges) != len(bin_counts) + 1:
            raise ParameterError("need len(bin_edges) == len(bin_counts) + 1")
        sizes: List[float] = []
        counts: List[float] = []
        for low, high, count in zip(bin_edges[:-1], bin_edges[1:], bin_counts):
            if high <= low:
                raise ParameterError("bin edges must be increasing")
            if count < 0:
                raise ParameterError("bin counts must be non-negative")
            if count == 0:
                continue
            sizes.append(_geometric_midpoint(low, high))
            counts.append(float(count))
        return cls(sizes=tuple(sizes), counts=tuple(counts))

    # -- basic statistics ----------------------------------------------

    @property
    def total_count(self) -> float:
        return float(sum(self.counts))

    @property
    def total_bytes(self) -> float:
        return float(sum(s * c for s, c in zip(self.sizes, self.counts)))

    @property
    def mean(self) -> float:
        return self.total_bytes / self.total_count

    def cdf(self, granularity: float) -> float:
        """P(size <= granularity)."""
        acc = 0.0
        for s, c in zip(self.sizes, self.counts):
            if s <= granularity:
                acc += c
        return acc / self.total_count

    def count_fraction_at_least(self, granularity: float) -> float:
        """Fraction of offloads (by count) with size >= granularity."""
        acc = sum(c for s, c in zip(self.sizes, self.counts) if s >= granularity)
        return acc / self.total_count

    def byte_fraction_at_least(self, granularity: float) -> float:
        """Fraction of offloaded bytes carried by sizes >= granularity."""
        acc = sum(s * c for s, c in zip(self.sizes, self.counts) if s >= granularity)
        return acc / self.total_bytes

    def quantile(self, q: float) -> float:
        """Smallest size s with CDF(s) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {q}")
        target = q * self.total_count
        acc = 0.0
        for s, c in zip(self.sizes, self.counts):
            acc += c
            if acc >= target:
                return s
        return self.sizes[-1]

    def scaled_to(self, total_count: float) -> "GranularityDistribution":
        """Rescale counts so they sum to *total_count* (e.g. the paper's
        measured ``n`` per second)."""
        if total_count <= 0:
            raise ParameterError("total_count must be positive")
        factor = total_count / self.total_count
        return dataclasses.replace(
            self, counts=tuple(c * factor for c in self.counts)
        )

    # -- CDF rendering --------------------------------------------------

    def binned_cdf(
        self, bin_edges: Sequence[float]
    ) -> List[Tuple[str, float]]:
        """Cumulative fraction per bin, labelled like the paper's x-axes.

        Returns ``[(label, cumulative_fraction), ...]`` with one entry per
        bin of *bin_edges* (labels such as ``"64-128"`` or ``">4K"``).
        """
        from ..units import format_bytes

        rows: List[Tuple[str, float]] = []
        for low, high in zip(bin_edges[:-1], bin_edges[1:]):
            if math.isinf(high):
                label = f">{format_bytes(low)}"
                upper = float("inf")
            else:
                label = f"{format_bytes(low)}-{format_bytes(high)}"
                upper = high
            acc = sum(c for s, c in zip(self.sizes, self.counts) if s < upper)
            rows.append((label, acc / self.total_count))
        return rows

    # -- sampling --------------------------------------------------------

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        # Built exactly as ``Generator.choice`` builds it from ``p``.
        probabilities = np.asarray(self.counts, dtype=float)
        cdf = (probabilities / probabilities.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw *n* indices into :attr:`sizes`, proportionally to counts.

        Returns what ``rng.choice(len(sizes), size=n, p=counts / total)``
        returns, element for element and in dtype, from the same *n*
        uniforms, so the generator's stream is unchanged; only the
        per-call argument checks and the CDF construction are skipped.
        """
        return self._cdf.searchsorted(rng.random(n), side="right")


def lucrative_subset(
    distribution: GranularityDistribution,
    design: ThreadingDesign,
    cycles_per_byte: float,
    accelerator: AcceleratorSpec,
    costs: OffloadCosts,
    beta: float = 1.0,
) -> Tuple[float, float, float]:
    """Identify the profitable offloads in a granularity distribution.

    Returns ``(threshold_bytes, count_fraction, byte_fraction)`` where
    *threshold_bytes* is the break-even granularity and the fractions say
    how much of the distribution (by offload count and by bytes) clears it.
    """
    threshold = min_profitable_granularity(
        design, cycles_per_byte, accelerator, costs, beta
    )
    if math.isinf(threshold):
        return threshold, 0.0, 0.0
    return (
        threshold,
        distribution.count_fraction_at_least(threshold),
        distribution.byte_fraction_at_least(threshold),
    )


def selective_profile(
    kernel: KernelProfile,
    distribution: GranularityDistribution,
    design: ThreadingDesign,
    accelerator: AcceleratorSpec,
    costs: OffloadCosts,
    weight_alpha_by: str = "count",
) -> KernelProfile:
    """Restrict *kernel* to the offloads worth sending to the accelerator.

    This is the paper's validation step (1)-(2): find sizes that improve
    speedup, count them into ``n``, and scale ``alpha`` accordingly.  With
    ``weight_alpha_by="count"`` the kernel-cycle fraction is scaled by the
    offload-count fraction (the approximation the paper's Table 7
    application uses); with ``"bytes"`` it is scaled by the byte fraction,
    exact for linear-complexity kernels.
    """
    if kernel.cycles_per_byte is None:
        raise ParameterError("selective_profile requires Cb (cycles_per_byte)")
    if weight_alpha_by not in ("count", "bytes"):
        raise ParameterError(
            f"weight_alpha_by must be 'count' or 'bytes', got {weight_alpha_by!r}"
        )
    threshold, count_frac, byte_frac = lucrative_subset(
        distribution,
        design,
        kernel.cycles_per_byte,
        accelerator,
        costs,
        kernel.complexity_exponent,
    )
    selected_n = kernel.offloads_per_unit * count_frac
    frac = count_frac if weight_alpha_by == "count" else byte_frac
    selected_alpha = kernel.kernel_fraction * frac
    return kernel.with_selected_offloads(selected_n, selected_alpha)
