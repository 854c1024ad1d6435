"""Profile capture: from simulator metrics or call-trace samples to
category breakdowns with cycles, instructions, and IPC.

This module closes the loop of the paper's characterization methodology
(Sec. 2.2): measure cycles and instructions per call trace, tag leaves
(Table 2), bucket functionalities (Table 3), and aggregate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional

from ..errors import ProfileError
from ..paperdata.categories import FunctionalityCategory, LeafCategory
from ..simulator.metrics import CycleKind, MetricSink
from .bucketer import TraceBucketer
from .ipc import IPCModel
from .stacks import SampledTrace, StackSampler
from .tagger import LeafTagger


@dataclasses.dataclass
class CategoryCounters:
    """Cycles and instructions aggregated for one category."""

    cycles: float = 0.0
    instructions: float = 0.0

    def add(self, cycles: float, instructions: float) -> None:
        if cycles < 0 or instructions < 0:
            raise ProfileError("counters must be non-negative")
        self.cycles += cycles
        self.instructions += instructions

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            raise ProfileError("category has zero cycles")
        return self.instructions / self.cycles


@dataclasses.dataclass
class ExecutionProfile:
    """A captured profile of one service on one platform."""

    service: str
    platform: str
    leaf: Dict[LeafCategory, CategoryCounters]
    functionality: Dict[FunctionalityCategory, CategoryCounters]

    @property
    def total_cycles(self) -> float:
        return sum(c.cycles for c in self.leaf.values())

    def leaf_shares(self) -> Dict[LeafCategory, float]:
        """Fraction of total cycles per leaf category."""
        total = self.total_cycles
        if total == 0:
            raise ProfileError("profile has no cycles")
        return {cat: counters.cycles / total for cat, counters in self.leaf.items()}

    def functionality_shares(self) -> Dict[FunctionalityCategory, float]:
        total = sum(c.cycles for c in self.functionality.values())
        if total == 0:
            raise ProfileError("profile has no cycles")
        return {
            cat: counters.cycles / total
            for cat, counters in self.functionality.items()
        }

    def leaf_ipc(self, category: LeafCategory) -> float:
        if category not in self.leaf:
            raise ProfileError(f"no cycles recorded for {category}")
        return self.leaf[category].ipc

    def functionality_ipc(self, category: FunctionalityCategory) -> float:
        if category not in self.functionality:
            raise ProfileError(f"no cycles recorded for {category}")
        return self.functionality[category].ipc


def profile_from_traces(
    samples: Iterable[SampledTrace],
    service: str,
    platform: str,
    tagger: Optional[LeafTagger] = None,
    bucketer: Optional[TraceBucketer] = None,
) -> ExecutionProfile:
    """Build a profile the paper's way: tag each sampled trace's leaf
    function (Table 2) and bucket its full stack (Table 3), then
    aggregate cycles and instructions per category."""
    tagger = tagger or LeafTagger()
    bucketer = bucketer or TraceBucketer()
    leaf: Dict[LeafCategory, CategoryCounters] = {}
    functionality: Dict[FunctionalityCategory, CategoryCounters] = {}
    count = 0
    for sample in samples:
        count += 1
        leaf_cat = tagger.tag(sample.leaf_function)
        func_cat = bucketer.bucket(sample.frames)
        leaf.setdefault(leaf_cat, CategoryCounters()).add(
            sample.cycles, sample.instructions
        )
        functionality.setdefault(func_cat, CategoryCounters()).add(
            sample.cycles, sample.instructions
        )
    if count == 0:
        raise ProfileError("no trace samples provided")
    return ExecutionProfile(
        service=service, platform=platform, leaf=leaf, functionality=functionality
    )


def capture_trace_profile(
    metrics: MetricSink,
    sampler: StackSampler,
    ipc_model: IPCModel,
    service: str,
    tagger: Optional[LeafTagger] = None,
    bucketer: Optional[TraceBucketer] = None,
    kinds: tuple = (CycleKind.USEFUL,),
) -> ExecutionProfile:
    """Full Strobelight-style pipeline: expand simulator cycle attribution
    into call traces via templates, then tag + bucket + aggregate."""
    attributed: Dict[tuple, float] = {}
    for (func_cat, leaf_cat, kind), cycles in metrics.cycles.items():
        if kind in kinds and cycles > 0:
            key = (func_cat, leaf_cat)
            attributed[key] = attributed.get(key, 0.0) + cycles
    samples = sampler.sample(attributed, ipc_model.lookup)
    return profile_from_traces(
        samples, service, ipc_model.platform, tagger=tagger, bucketer=bucketer
    )
