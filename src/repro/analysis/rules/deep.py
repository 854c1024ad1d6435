"""The deep (whole-program) rule pack: DET003, UNIT002, API002, DEEP001.

These rules only run under ``python -m repro lint --deep`` (or when
named explicitly with ``--rules``): they build the
:class:`~repro.analysis.project.ProjectModel` and call graph once per
run and reason about *interprocedural* properties the per-file rules
cannot see -- taint that crosses module boundaries, units that flow
through call chains, and export surfaces nobody consumes.
"""

from __future__ import annotations

from typing import Iterator, List

from ..effects import EffectAnalysis, entropy_facts, hops_phrase, sink_reason
from ..findings import Finding, Severity
from ..registry import Rule, register_rule
from ..unitflow import UnitFlowAnalyzer, UnitSignatureAnalysis


@register_rule
class InterproceduralTaint(Rule):
    """DET003: nondeterminism reaching a determinism sink through calls."""

    name = "DET003"
    severity = Severity.ERROR
    cache_version = "2"
    description = (
        "no entropy source (wall clock, unseeded RNG, env read, set "
        "iteration) reachable from cache-key/fingerprint/summary code "
        "through the call graph"
    )
    invariant = (
        "serial == pool == cache bit-identity, interprocedurally: a "
        "cache key or canonical fingerprint must not transitively "
        "execute anything a RunSpec does not determine, no matter how "
        "many calls or modules sit between the sink and the source"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        """One finding per (sink, source function): the ``reads-entropy``
        facts of each sink's effect summary, sinks in file order."""
        summaries = context.summaries(EffectAnalysis())
        functions = sorted(
            context.project_model().functions(),
            key=lambda func: (func.relpath, func.line, func.fq),
        )
        for func in functions:
            reason = sink_reason(func)
            if reason is None:
                continue
            for fact in entropy_facts(summaries.get(func.fq, {})):
                yield Finding(
                    rule=self.name,
                    path=func.relpath,
                    line=func.line,
                    column=0,
                    message=(
                        f"{func.fq} ({reason}) reaches "
                        f"{fact.effect.detail}{hops_phrase(fact)}"
                    ),
                    hint=(
                        "break the chain: thread the value through the "
                        "RunSpec (or a seeded generator) instead of reading "
                        "it ambiently; see the trace for the full call path"
                    ),
                    severity=self.severity,
                    trace=tuple(fact.chain(f"{func.fq} [{reason}]")),
                )


@register_rule
class UnitFlow(Rule):
    """UNIT002: cross-dimension mixing established by dataflow."""

    name = "UNIT002"
    severity = Severity.ERROR
    description = (
        "no cycles<->seconds/bytes/hertz mixing through assignments, "
        "call results, or arguments crossing function boundaries"
    )
    invariant = (
        "cycle-accounting correctness across module boundaries: every "
        "argument entering a *_cycles parameter of equations 1-8 must "
        "be a cycle count even when the value was produced two modules "
        "away; the <= 3.7% validation bound dies silently otherwise"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        analyzer = UnitFlowAnalyzer(
            model, signatures=context.summaries(UnitSignatureAnalysis())
        )
        for violation in analyzer.analyze():
            yield Finding(
                rule=self.name,
                path=violation.relpath,
                line=violation.line,
                column=violation.column,
                message=violation.message,
                hint=(
                    "convert explicitly via repro.units "
                    "(cycles_for_duration, ns_to_cycles, ...) at the "
                    "boundary where the dimension changes"
                ),
                severity=self.severity,
                trace=violation.trail,
            )


#: Facade exports that are part of the package contract even when no
#: analyzed module references them.
_ALWAYS_LIVE = {"__version__"}


def _live_definitions(model) -> set:
    """Mark-and-sweep liveness over the program's definitions.

    Roots are definitions with *genuine* users -- a referencing module
    that is neither the definition's own module nor a package facade
    (facade imports are re-exports, the thing being audited) -- plus
    everything module-level executable code touches at import time.
    Liveness then propagates through definition references: a live
    function keeps alive the result class it constructs, the constants
    it reads, and so on, transitively.
    """
    usage = model.usage_index()
    refs = model.definition_refs()

    #: fq -> defining module name, for every definition in the program.
    home = {}
    for module in model.analyzed_modules():
        for func in module.functions.values():
            home[func.fq] = module.name
        for cls_info in module.classes.values():
            home[cls_info.fq] = module.name
            for method in cls_info.methods.values():
                home[method.fq] = module.name
        for name in module.constants:
            home[f"{module.name}.{name}"] = module.name

    def as_unit(fq: str) -> str:
        """Methods live and die with their class."""
        parent = fq.rsplit(".", 1)[0]
        if fq in home and parent in home and home[fq] == home[parent]:
            return parent
        return fq

    roots = set()
    for fq, users in usage.items():
        if fq not in home:
            continue
        for user in users:
            info = model.modules.get(user)
            if info is None or info.is_package:
                continue
            if user == home[fq]:
                continue
            roots.add(as_unit(fq))
            break
    roots.update(as_unit(fq) for fq in model.loose_refs() if fq in home)

    live = set()
    frontier = sorted(roots)
    while frontier:
        fq = frontier.pop()
        if fq in live:
            continue
        live.add(fq)
        frontier.extend(
            as_unit(target)
            for target in refs.get(fq, [])
            if as_unit(target) not in live
        )
    return live


@register_rule
class DeadExport(Rule):
    """API002: facade exports nobody references, and broken chains."""

    name = "API002"
    severity = Severity.WARNING
    description = (
        "every subpackage facade export is transitively reachable from "
        "some genuine use in the program or its users (src, scripts, "
        "examples, benchmarks, bench -- dynamic getattr-by-literal "
        "included; tests do not count) and every re-export chain "
        "resolves to a real definition"
    )
    invariant = (
        "the facade surface stays honest: an export nothing references "
        "is unowned API that rots silently, and a re-export chain that "
        "resolves to nothing is one refactor away from an ImportError"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        live = _live_definitions(model)
        mentions = model.string_mentions()
        for module in model.analyzed_modules():
            if not module.is_package or module.all_names is None:
                continue
            if "." not in module.name:
                # The top-level facade is the published API: external
                # consumers the model cannot see import from it.
                continue
            for name in module.all_names:
                if name in _ALWAYS_LIVE:
                    continue
                resolution = model.resolve_name(module, name)
                if not resolution.resolved:
                    if resolution.broken_chain:
                        yield Finding(
                            rule=self.name,
                            path=module.relpath,
                            line=module.all_line,
                            column=0,
                            message=(
                                f"__all__ entry {name!r} follows a "
                                "re-export chain that never reaches a "
                                "definition"
                            ),
                            hint=(
                                "point the facade import at the module "
                                "that actually defines the symbol"
                            ),
                            severity=Severity.ERROR,
                        )
                    continue
                if resolution.kind in ("external", "module"):
                    # Namespace re-exports (submodules) are structure,
                    # not API surface this rule audits.
                    continue
                if resolution.fq in live or name in mentions:
                    continue
                yield Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=module.all_line,
                    column=0,
                    message=(
                        f"facade export {name!r} "
                        f"(-> {resolution.fq}) is referenced by no "
                        "analyzed module"
                    ),
                    hint=(
                        "drop the export (and the import feeding it) or "
                        "add the consumer that was supposed to exist; "
                        "deliberate forward-looking API can be kept with "
                        "a # repro: noqa[API002] on the __all__ line"
                    ),
                    severity=self.severity,
                )


@register_rule
class DeepCoverage(Rule):
    """DEEP001: files the whole-program model had to skip."""

    name = "DEEP001"
    severity = Severity.WARNING
    description = (
        "every analyzed file participates in the project model (parse "
        "failures and module-name collisions degrade deep coverage)"
    )
    invariant = (
        "deep findings are only trustworthy while the model sees the "
        "whole program; a skipped module is a blind spot every "
        "interprocedural guarantee silently excludes"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        reference_paths = {
            source.relpath for source in context.reference_sources
        }
        for relpath, reason in sorted(model.skipped):
            if relpath in reference_paths:
                # Reference-only trees (examples, benchmarks, bench) are
                # consumers, not analyzed code: a file there that does
                # not parse is no blind spot in the program.
                continue
            yield Finding(
                rule=self.name,
                path=relpath,
                line=1,
                column=0,
                message=f"excluded from the whole-program model: {reason}",
                hint=(
                    "fix the parse error or rename the colliding module "
                    "so the deep passes can see this file"
                ),
                severity=self.severity,
            )


_RULES: List[str] = ["DET003", "UNIT002", "API002", "DEEP001"]
