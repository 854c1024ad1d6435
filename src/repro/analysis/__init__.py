"""AST-based invariant linter for the reproduction's unwritten rules.

The runtime (PR 1) and the Accelerometer model are correct only while
the code keeps promises no test asserts directly: simulated paths draw
entropy exclusively from seeded generators, spec objects stay hashable
and picklable, the DES hot path stays ``__slots__``-clean, cycle
arithmetic never mixes units, and package facades export what they
declare.  This package makes those promises mechanical:

* :func:`analyze_paths` / :func:`analyze_sources` -- the driver;
* :class:`Rule` + :func:`register_rule` -- the pluggable rule registry
  (see :mod:`repro.analysis.rules` for the built-in pack);
* :class:`Finding` / :class:`Severity` -- typed findings with
  ``path:line:column`` locations, fix hints, and (for whole-program
  findings) a supporting trace;
* ``# repro: noqa[RULE]`` pragmas for deliberate exceptions;
* the whole-program layer behind ``--deep``: :class:`ProjectModel`
  (module graph + symbol table), :func:`build_call_graph`, the shared
  fixpoint dataflow framework (:class:`DataflowAnalysis`,
  :func:`compute_summaries`, :class:`SummaryCache`),
  :func:`find_taint_paths` (interprocedural nondeterminism),
  :class:`UnitFlowAnalyzer` (units through dataflow), and
  :class:`EffectAnalysis` (effect & purity summaries behind the
  EFF001, EFF003 and EFF004 contracts);
* text/JSON reporters and the ``repro lint`` CLI glue.

Run it as ``python -m repro lint`` (or ``make lint``); add ``--deep``
for the whole-program passes.
"""

from .dataflow import (
    CallStep,
    DataflowAnalysis,
    SummaryCache,
    compute_summaries,
)
from .effects import (
    EffectAnalysis,
    find_frozen_writes,
    find_gate_violations,
    function_effects,
    observer_class_names,
)
from .engine import (
    AnalysisContext,
    AnalysisResult,
    analyze_paths,
    analyze_sources,
    collect_files,
    load_sources,
)
from .findings import Finding, Severity
from .graph import CallGraph, build_call_graph
from .incremental import changed_python_files
from .project import ProjectModel, module_name_for
from .registry import Rule, all_rules, register_rule, resolve_rules
from .reporters import render_json, render_text
from .source import SourceFile, parse_suppressions
from .taint import TaintPath, find_taint_paths
from .unitflow import UnitFlowAnalyzer

__all__ = [
    "AnalysisContext",
    "AnalysisResult",
    "CallGraph",
    "CallStep",
    "DataflowAnalysis",
    "EffectAnalysis",
    "Finding",
    "ProjectModel",
    "Rule",
    "SummaryCache",
    "Severity",
    "SourceFile",
    "TaintPath",
    "UnitFlowAnalyzer",
    "all_rules",
    "analyze_paths",
    "analyze_sources",
    "build_call_graph",
    "changed_python_files",
    "collect_files",
    "compute_summaries",
    "find_frozen_writes",
    "find_gate_violations",
    "find_taint_paths",
    "function_effects",
    "observer_class_names",
    "load_sources",
    "module_name_for",
    "parse_suppressions",
    "register_rule",
    "render_json",
    "render_text",
    "resolve_rules",
]
