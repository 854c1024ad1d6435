"""The effect & purity rule pack: EFF001, EFF003, EFF004.

Deep rules over the effect summaries of :mod:`repro.analysis.effects`,
proving the contracts the simulator's correctness argument leans on:

* EFF001 -- *zero-observer purity*: tracing may record, never perturb.
  Observability hooks (and anything they call) must not mutate engine
  state, draw randomness, or schedule events; and in simulator/faults
  code every tracer gate's body is write-only with respect to the
  simulation.  (A tracer touch outside any gate is OBS001's.)
* EFF003 -- *frozen-spec write protection*: specs are immutable after
  construction, ``object.__setattr__`` escapes included.
* EFF004 -- *cache-input effect closure*: computing a cache key or
  canonical fingerprint must be effect-free.  A catalog RNG call on the
  chain is DET003's (one defect, one finding).
"""

from __future__ import annotations

from typing import Iterator

from ..effects import (
    EffectAnalysis,
    engine_facts,
    find_frozen_writes,
    find_gate_violations,
    hops_phrase,
    is_entropy_draw,
    observer_class_names,
    sink_reason,
)
from ..findings import Finding, Severity
from ..registry import Rule, register_rule


@register_rule
class ZeroObserverPurity(Rule):
    """EFF001: tracing hooks and gates never perturb the simulation."""

    name = "EFF001"
    severity = Severity.ERROR
    cache_version = "3"
    description = (
        "observability hooks reach no engine-state mutation, RNG draw, "
        "or event schedule through any call chain; every tracer-gated "
        "region in simulator/faults code is write-only toward the "
        "simulation"
    )
    invariant = (
        "the zero-observer contract: attaching a tracer changes no "
        "simulated timestamp, queue decision, or random draw -- runs "
        "with and without observability are bit-identical, so traces "
        "are evidence about the run they observed, not a different one"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        graph = context.call_graph()
        summaries = context.summaries(EffectAnalysis())
        observers = observer_class_names(model)

        # Face one: hook purity.  Every function belonging to the
        # observability layer must be free of engine effects.
        for func in model.functions():
            observer_side = (
                "observability" in func.module.split(".")
                or func.class_name in observers
            )
            if not observer_side:
                continue
            for fact in engine_facts(summaries.get(func.fq, {})):
                yield Finding(
                    rule=self.name,
                    path=func.relpath,
                    line=func.line,
                    column=0,
                    message=(
                        f"observability hook {func.fq} reaches "
                        f"{fact.effect.detail} ({fact.effect.kind})"
                        f"{hops_phrase(fact)}: hooks must observe, "
                        "never perturb"
                    ),
                    hint=(
                        "record into observer-owned state (ring buffers, "
                        "trace contexts) only; move the engine work to "
                        "the simulator side of the gate"
                    ),
                    severity=self.severity,
                    trace=tuple(fact.chain(f"{func.fq} [observability hook]")),
                )

        # Face two: gated regions in simulator/faults code stay
        # write-only toward the simulation.
        for violation in find_gate_violations(model, graph, summaries):
            yield Finding(
                rule=self.name,
                path=violation.relpath,
                line=violation.line,
                column=violation.column,
                message=violation.message,
                hint=(
                    "move the engine work out of the tracer gate so a "
                    "run without observability executes the identical "
                    "engine path"
                ),
                severity=self.severity,
                trace=violation.trace,
            )


@register_rule
class FrozenSpecWrites(Rule):
    """EFF003: specs stay immutable after construction."""

    name = "EFF003"
    severity = Severity.ERROR
    description = (
        "no write to a RunSpec/FaultPolicy/OffloadConfig (or any "
        "frozen-dataclass) instance after construction, including "
        "object.__setattr__ escapes"
    )
    invariant = (
        "a spec is a value: its canonical digest is computed once and "
        "cached forever, so any post-construction write desynchronizes "
        "the object from every key, fingerprint, and replay derived "
        "from it"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        for write in find_frozen_writes(model):
            yield Finding(
                rule=self.name,
                path=write.relpath,
                line=write.line,
                column=write.column,
                message=write.message,
                hint=(
                    "derive a new spec with dataclasses.replace(...) "
                    "instead of mutating; construction-time writes "
                    "belong in __init__/__post_init__"
                ),
                severity=self.severity,
            )


@register_rule
class CacheInputEffectClosure(Rule):
    """EFF004: cache-key/fingerprint computation is effect-free."""

    name = "EFF004"
    severity = Severity.ERROR
    cache_version = "2"
    description = (
        "functions feeding RunSpec.key/canonical digests (the DET003 "
        "sink set) reach no mutation, RNG draw, event schedule, or IO "
        "through any call chain"
    )
    invariant = (
        "keying a run must not change anything: a cache probe that "
        "mutates state or consumes entropy makes hit and miss paths "
        "diverge, which is exactly the nondeterminism the key exists "
        "to rule out"
    )
    project_rule = True
    deep = True

    _SINK_KINDS = (
        "mutates-param",
        "mutates-global",
        "consumes-rng",
        "schedules-event",
        "performs-io",
    )

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        summaries = context.summaries(EffectAnalysis())
        for func in model.functions():
            reason = sink_reason(func)
            if reason is None:
                continue
            summary = summaries.get(func.fq, {})
            for key in sorted(summary):
                fact = summary[key]
                if fact.effect.kind not in self._SINK_KINDS or (
                    is_entropy_draw(fact.effect)
                ):
                    continue
                yield Finding(
                    rule=self.name,
                    path=func.relpath,
                    line=func.line,
                    column=0,
                    message=(
                        f"{func.fq} ({reason}) reaches "
                        f"{fact.effect.detail} ({fact.effect.kind})"
                        f"{hops_phrase(fact)}: cache inputs must be "
                        "effect-free"
                    ),
                    hint=(
                        "compute the key from already-materialized "
                        "values; hoist the effect out of the keying "
                        "path so probing a cache cannot change the run"
                    ),
                    severity=self.severity,
                    trace=tuple(fact.chain(f"{func.fq} [{reason}]")),
                )


_RULES = ["EFF001", "EFF003", "EFF004"]
