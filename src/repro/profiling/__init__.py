"""Profiling substrate: the Strobelight + tagging-tool equivalents.

Pipeline (paper Sec. 2.2): capture cycles/instructions per call trace
(:mod:`stacks`), tag leaf functions into Table-2 categories
(:mod:`tagger`), bucket traces into Table-3 functionalities
(:mod:`bucketer`), and aggregate into :class:`ExecutionProfile` breakdowns
(:mod:`profiler`) that the characterization layer turns into the paper's
figures.
"""

from .bucketer import TraceBucketer
from .folded import fold_traces, to_folded_text
from .ipc import IPCModel
from .profiler import (
    CategoryCounters,
    ExecutionProfile,
    capture_trace_profile,
    profile_from_traces,
)
from .reports import (
    as_percent,
    dominant,
    l1_distance,
    normalize,
    rank_agreement,
    render_bars,
    render_table,
    same_dominant,
)
from .stacks import SampledTrace, StackSampler, TraceTemplate
from .tagger import LeafTagger

__all__ = [
    "CategoryCounters",
    "ExecutionProfile",
    "IPCModel",
    "LeafTagger",
    "SampledTrace",
    "StackSampler",
    "TraceBucketer",
    "TraceTemplate",
    "as_percent",
    "capture_trace_profile",
    "dominant",
    "fold_traces",
    "to_folded_text",
    "l1_distance",
    "normalize",
    "profile_from_traces",
    "rank_agreement",
    "render_bars",
    "render_table",
    "same_dominant",
]
