"""Interprocedural nondeterminism taint: entropy sources reaching
determinism sinks along the call graph.

The per-file DET001/DET002 rules catch a wall-clock read *in* a
simulated path; they cannot see one **three calls upstream of a cache
key** -- a helper in one module reading ``time.time`` while a
``cache_key``/``fingerprint`` function in another module (transitively)
calls it.  This pass can: it marks every function containing a
*source* (wall clocks, unseeded RNGs, ``os.urandom``, environment
reads, set-order-dependent iteration), then walks forward from every
*sink* (cache-key construction, canonical fingerprints,
``RunSummary`` assembly) through the call graph, reporting the full
source -> sink call chain when they meet.

This module also owns the entropy-call catalog; the syntactic DET001
rule imports it from here so the two stay in lockstep.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from .dataflow import CallStep, DataflowAnalysis, compute_summaries
from .graph import CallGraph
from .project import FunctionInfo, ModuleInfo, ProjectModel

#: Call targets that read ambient entropy: wall clocks and OS randomness.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid1": "clock/MAC-derived identifier",
    "uuid.uuid4": "OS entropy read",
    "random.SystemRandom": "OS entropy source",
}

#: numpy.random attributes that are *constructors of seeded streams* and
#: therefore fine; every other ``numpy.random.*`` call hits the global
#: unseeded singleton.
NUMPY_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Environment reads: deep-only sources (configuration reads are fine in
#: scripts; they become hazards only when a cache key depends on them).
_ENV_READS = {
    "os.getenv": "environment read",
    "os.environ.get": "environment read",
}


def classify_entropy_call(target: str) -> Optional[str]:
    """Why a resolved dotted call target is an entropy source, or None."""
    reason = BANNED_CALLS.get(target)
    if reason is not None:
        return reason
    if target.startswith("random.") and target != "random.Random":
        return "module-level stdlib RNG (unseeded shared state)"
    if target.startswith("numpy.random."):
        attribute = target.rsplit(".", 1)[-1]
        if attribute not in NUMPY_ALLOWED:
            return "global numpy RNG singleton (unseeded shared state)"
    return None


def classify_env_read(target: str) -> Optional[str]:
    return _ENV_READS.get(target)


def is_set_expression(node: ast.expr) -> bool:
    """Whether *node* evaluates to a set (literal, comprehension, or
    ``set()``/``frozenset()`` call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@dataclasses.dataclass(frozen=True)
class TaintSource:
    """One nondeterminism source inside one function."""

    fq: str
    relpath: str
    line: int
    reason: str
    detail: str  # the offending target / construct


#: One call edge on a source->sink path (the framework's witness step).
TaintStep = CallStep


@dataclasses.dataclass(frozen=True)
class TaintPath:
    """A sink that transitively executes a nondeterminism source."""

    sink: str
    sink_relpath: str
    sink_line: int
    sink_reason: str
    steps: Tuple[TaintStep, ...]
    source: TaintSource

    def chain(self) -> List[str]:
        """Human-readable call chain, sink first."""
        lines = [f"{self.sink} [{self.sink_reason}]"]
        for step in self.steps:
            lines.append(
                f"-> calls {step.callee} "
                f"(at {_caller_relpath(self, step)}:{step.line})"
            )
        lines.append(
            f"** {self.source.detail} ({self.source.reason}) at "
            f"{self.source.relpath}:{self.source.line}"
        )
        return lines


def _caller_relpath(path: TaintPath, step: TaintStep) -> str:
    # Steps are printed for orientation only; the caller file is the
    # previous node's file, which readers recover from the fq name.
    return step.caller


# ---------------------------------------------------------------------------
# Sources.
# ---------------------------------------------------------------------------


def function_sources(
    func: FunctionInfo, module: ModuleInfo
) -> List[TaintSource]:
    """Nondeterminism sources directly inside *func* (nested defs
    included: closures run on behalf of their enclosing function)."""
    sources: List[TaintSource] = []

    def add(line: int, reason: str, detail: str) -> None:
        sources.append(
            TaintSource(
                fq=func.fq,
                relpath=func.relpath,
                line=line,
                reason=reason,
                detail=detail,
            )
        )

    for node in module.source.walk(func.node):
        if isinstance(node, ast.Call):
            dotted = _resolved_target(node.func, module)
            if dotted is not None:
                reason = classify_entropy_call(dotted)
                if reason is not None:
                    add(node.lineno, reason, f"call to {dotted}")
                    continue
                reason = classify_env_read(dotted)
                if reason is not None:
                    add(node.lineno, reason, f"call to {dotted}")
                    continue
        elif isinstance(node, ast.Attribute):
            dotted = _resolved_target(node, module)
            if dotted is not None and dotted.startswith("os.environ"):
                add(node.lineno, "environment read", dotted)
        for site in _set_iteration_sites(node):
            add(
                site.lineno,
                "set-order-dependent iteration",
                "iteration over a set",
            )
    return sources


def _resolved_target(node: ast.AST, module: ModuleInfo) -> Optional[str]:
    """Absolute dotted target of a Name/Attribute chain, through the
    module's import table."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    target = module.imports.get(parts[0])
    if target is None:
        return None
    return ".".join([target] + parts[1:])


def _set_iteration_sites(node: ast.AST) -> Iterable[ast.expr]:
    """Expressions iterated where the iterable is literally a set."""
    sites: List[ast.expr] = []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        sites.append(node.iter)
    elif isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        sites.extend(generator.iter for generator in node.generators)
    return [site for site in sites if is_set_expression(site)]


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------


def sink_reason(func: FunctionInfo) -> Optional[str]:
    """Why a function is a determinism sink, or None.

    Sinks are where nondeterminism becomes *permanent*: content-
    addressed cache keys, canonical fingerprints, and the summary
    objects those fingerprints are computed over.
    """
    name = func.name
    module_parts = func.module.split(".")
    if "cache_key" in name or "fingerprint" in name:
        return "cache-key construction"
    if "runtime" in module_parts and name == "key":
        return "cache-key construction"
    if module_parts[-1] == "canonical" and name in (
        "canonicalize",
        "canonical_digest",
    ):
        return "canonical fingerprint"
    if func.class_name == "RunSummary" and name == "__init__":
        return "RunSummary assembly (cached measurement surface)"
    return None


# ---------------------------------------------------------------------------
# Propagation (an instance of the shared dataflow framework).
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TaintFact:
    """This function transitively reaches the given source function.

    ``steps`` is the witness call chain from the summarized function to
    the source's enclosing function (empty when the source is local).
    """

    steps: Tuple[TaintStep, ...]
    source: TaintSource


class TaintAnalysis(DataflowAnalysis):
    """Entropy reachability, keyed by source-function fq.

    Facts flow from callee to caller with one call step prepended;
    ``prefer`` keeps the shorter chain (ties keep the incumbent), which
    together with the framework's sorted first-edge-per-callee order
    reproduces the breadth-first shortest paths the pre-framework BFS
    reported.
    """

    name = "taint"
    version = "1"

    def local_facts(
        self, func: FunctionInfo, module: ModuleInfo, model: ProjectModel
    ) -> Dict[str, object]:
        found = function_sources(func, module)
        if not found:
            return {}
        source = sorted(found, key=lambda s: (s.line, s.detail))[0]
        return {func.fq: TaintFact(steps=(), source=source)}

    def lift(
        self,
        fact: TaintFact,
        caller: FunctionInfo,
        line: int,
        callee_fq: str,
    ) -> TaintFact:
        step = TaintStep(caller=caller.fq, line=line, callee=callee_fq)
        return TaintFact(steps=(step,) + fact.steps, source=fact.source)

    def prefer(self, old: TaintFact, new: TaintFact) -> TaintFact:
        return new if len(new.steps) < len(old.steps) else old

    def encode_fact(self, fact: TaintFact) -> object:
        # Every field is a scalar, so a copy of the instance dict is
        # what ``dataclasses.asdict`` builds, without its deep copy.
        return {
            "steps": [dict(vars(step)) for step in fact.steps],
            "source": dict(vars(fact.source)),
        }

    def decode_fact(self, data: object) -> TaintFact:
        return TaintFact(
            steps=tuple(TaintStep(**step) for step in data["steps"]),
            source=TaintSource(**data["source"]),
        )


def find_taint_paths(
    model: ProjectModel,
    graph: CallGraph,
    summaries: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[TaintPath]:
    """Shortest source->sink path for every (sink, source function) pair.

    Deterministic: the framework visits functions and call edges in
    sorted order, and the final report is sorted by sink location.
    """
    if summaries is None:
        summaries = compute_summaries(model, graph, TaintAnalysis())
    paths: List[TaintPath] = []
    for func in model.functions():
        reason = sink_reason(func)
        if reason is None:
            continue
        for fact in summaries.get(func.fq, {}).values():
            paths.append(
                TaintPath(
                    sink=func.fq,
                    sink_relpath=func.relpath,
                    sink_line=func.line,
                    sink_reason=reason,
                    steps=fact.steps,
                    source=fact.source,
                )
            )
    paths.sort(
        key=lambda p: (p.sink_relpath, p.sink_line, p.sink, p.source.fq)
    )
    return paths
