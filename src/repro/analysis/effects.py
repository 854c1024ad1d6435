"""Interprocedural effect inference for the EFF rule pack and DET003.

Each function gets an *effect set* -- what it does to the world beyond
returning a value -- inferred locally from its AST and propagated
bottom-up over the call graph by the shared dataflow framework
(:mod:`repro.analysis.dataflow`).  Effect kinds:

``mutates-param``
    writes an attribute/item of (or calls a mutating method on) an
    object a parameter refers to;
``mutates-global``
    writes through a module-level binding;
``consumes-rng``
    draws randomness (an ``rng``-named receiver or a resolved call the
    entropy catalog below classifies as a genuine RNG -- wall clocks
    are entropy, not an effect);
``schedules-event``
    books simulation work on an ``engine``-named receiver;
``performs-io``
    file/stream writes and other process-visible output;
``raises``
    contains a ``raise`` statement (summarized, never propagated);
``mutates-observer``
    writes observer-side state (tracer/trace-context/ring fields, or
    ``self`` inside an observability class).  Not an *engine* effect --
    it is what tracer hooks exist to do -- so it is kept apart from
    ``mutates-param``/``mutates-global``;
``reads-entropy``
    reaches a nondeterminism source (wall clock, unseeded RNG, OS
    entropy, environment read, set-order-dependent iteration).  One
    fact per *source function*, keyed by its fq and holding its
    earliest site, so DET003 reports one finding per (sink, source
    function).  No EFF rule reads it.

The same summaries therefore serve EFF001/EFF004 (engine effects) and
DET003 (entropy reaching a cache-key sink, :func:`sink_reason`).  The
entropy catalog and the RNG-draw helpers DET001 shares, the observer
gate grammar (:class:`_GateWalker`, shared with OBS001 and PERF001),
the gated-region scan (:func:`find_gate_violations`) and the
frozen-spec write scan (:func:`find_frozen_writes`) live here too, so
the rules stay thin adapters from these results to findings.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .dataflow import CallStep, DataflowAnalysis
from .graph import CallGraph
from .project import FunctionInfo, ModuleInfo, ProjectModel
from .source import walk_nodes

#: Effect kinds that perturb the simulated system: what the zero-
#: observer and cache-input contracts must prove absent.
ENGINE_EFFECT_KINDS = (
    "mutates-param",
    "mutates-global",
    "consumes-rng",
    "schedules-event",
)

#: The kind of the one entropy fact per source function (DET003's).
READS_ENTROPY = "reads-entropy"

#: Name components marking observer-side state: the one tracer
#: vocabulary.  A write whose dotted target contains one of these is the
#: observability layer doing its job, not an engine effect; a receiver
#: or gate test naming one is a tracer touch (OBS001, PERF001, EFF001).
OBSERVER_COMPONENTS = frozenset(
    {"trace", "tracer", "trace_ctx", "_tracer", "observer"}
)

#: Class names that are observer-side wherever they are defined (the
#: real ones live under ``observability/``; fixtures may not).
OBSERVER_CLASS_NAMES = frozenset(
    {"SpanTracer", "PyIntervalSink", "SpanRing", "TraceContext"}
)

#: Receivers whose method calls draw randomness.
_RNG_RECEIVERS = frozenset({"rng", "_rng"})

#: Receivers whose ``after``/``at``/``schedule`` calls book simulation
#: events.
_ENGINE_RECEIVERS = frozenset({"engine", "_engine"})
_SCHEDULE_METHODS = frozenset(
    {"after", "at", "schedule", "call_at", "call_later"}
)

#: The sanctioned entropy façades: draws lexically inside their
#: constructor arguments, or inside their methods, are the seeded
#: streams the determinism contract runs on.
SANCTIONED_RNG_CLASSES = frozenset({"BlockSampler", "FaultInjector"})

#: Methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Resolved dotted call targets that perform IO.
_IO_CALLS = (
    "json.dump",
    "pickle.dump",
    "os.remove",
    "os.unlink",
    "os.rename",
    "os.replace",
    "os.makedirs",
    "os.mkdir",
    "os.rmdir",
    "shutil.",
    "subprocess.",
)

#: Builtins that perform IO.
_IO_BUILTINS = frozenset({"open", "print", "input"})

#: Methods that never count as post-construction mutation.
CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclasses.dataclass(frozen=True)
class Effect:
    """One concrete effect site inside one function."""

    kind: str
    detail: str
    relpath: str
    line: int
    column: int
    #: The name the effect is rooted at (mutated root, RNG receiver...).
    root: str = ""

    @property
    def key(self) -> str:
        return f"{self.kind}@{self.relpath}:{self.line}:{self.column}"


@dataclasses.dataclass(frozen=True)
class EffectFact:
    """An effect transitively reachable from the summarized function."""

    steps: Tuple[CallStep, ...]
    effect: Effect

    def owner(self, fq: str) -> str:
        """The function the effect is lexically inside."""
        return self.steps[-1].callee if self.steps else fq

    def chain(self, head: str) -> List[str]:
        """Human-readable call chain, caller first (Finding.trace)."""
        lines = [head]
        for step in self.steps:
            lines.append(
                f"-> calls {step.callee} (at {step.caller}:{step.line})"
            )
        effect = self.effect
        if effect.kind == READS_ENTROPY:
            # The detail already names the reason; the site is a line.
            lines.append(f"** {effect.detail} at {effect.relpath}:{effect.line}")
        else:
            lines.append(
                f"** {effect.detail} ({effect.kind}) at "
                f"{effect.relpath}:{effect.line}:{effect.column}"
            )
        return lines


def hops_phrase(fact: EffectFact) -> str:
    hops = len(fact.steps)
    if not hops:
        return " directly"
    return f" through {hops} call{'s' if hops != 1 else ''}"


def in_effect_scope(relpath: str, *dirs: str) -> bool:
    """Whether a function's file sits under one of *dirs* (path
    components, filename excluded) -- mirrors ``SourceFile.in_scope``."""
    parts = relpath.split("/")[:-1]
    return any(part in dirs for part in parts)


# ---------------------------------------------------------------------------
# Local extraction.
# ---------------------------------------------------------------------------


def _dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """Components of a Name/Attribute/Subscript chain, root first.

    Subscripts contribute a ``[]`` marker so the rendered path stays
    readable; a chain not rooted at a Name yields ``None``.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append("[]")
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        else:
            return None


def _render_path(parts: List[str]) -> str:
    out = parts[0]
    for part in parts[1:]:
        out += "[...]" if part == "[]" else f".{part}"
    return out


def local_aliases(nodes) -> Dict[str, List[str]]:
    """Local name -> expanded dotted path for ``x = self._ring``-style
    binds among one function's walked *nodes*, in source order so
    chained aliases expand transitively."""
    aliases: Dict[str, List[str]] = {}
    assigns = [
        node
        for node in nodes
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]
    for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
        value = node.value
        if isinstance(node.value, ast.IfExp):
            # ``ctx = context.trace if tracer is not None else None``
            value = node.value.body
        parts = _dotted_parts(value)
        target = node.targets[0].id
        if parts is None:
            aliases.pop(target, None)
            continue
        aliases[target] = expand_alias(aliases, parts)
    return aliases


def expand_alias(aliases: Dict[str, List[str]], parts: List[str]) -> List[str]:
    """*parts* with a leading local alias replaced by what it binds."""
    through = aliases.get(parts[0])
    if through:
        return list(through) + parts[1:]
    return list(parts)


def sanctioned_nodes(nodes) -> Set[int]:
    """AST node ids lexically inside the arguments of a sanctioned
    sampler constructor (``BlockSampler(lambda n: rng...(n))``)."""
    sanctioned: Set[int] = set()
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        callee = _dotted_parts(node.func)
        if not callee or callee[-1] not in SANCTIONED_RNG_CLASSES:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in walk_nodes(arg):
                sanctioned.add(id(sub))
    return sanctioned


def rng_receiver(
    func: ast.expr, aliases: Dict[str, List[str]]
) -> Optional[str]:
    """The ``rng``/``_rng`` receiver a call draws from, seen through
    local aliases (``r = self._rng; r.random()``), or ``None``."""
    if not isinstance(func, ast.Attribute):
        return None
    parts = _dotted_parts(func.value)
    if not parts:
        return None
    receiver = expand_alias(aliases, parts)[-1]
    return receiver if receiver in _RNG_RECEIVERS else None


# ---------------------------------------------------------------------------
# The entropy catalog (DET001, DET003) and the determinism sinks.
# ---------------------------------------------------------------------------

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


def is_entropy_draw(effect: Effect) -> bool:
    """Whether *effect* is a catalog RNG call: a site whose function's
    ``reads-entropy`` fact already carries it to DET003."""
    return (
        effect.kind == "consumes-rng"
        and classify_entropy_call(effect.root) is not None
    )


def is_set_expression(node: ast.expr) -> bool:
    """Whether *node* evaluates to a set (literal, comprehension, or
    ``set()``/``frozenset()`` call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


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


#: Node types that iterate: loops and comprehensions.
_ITERATIONS = frozenset({
    ast.For,
    ast.AsyncFor,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
})


def _set_iteration_sites(node: ast.AST) -> List[ast.expr]:
    """The iterables of an :data:`_ITERATIONS` node that are literally
    sets."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iterated = [node.iter]
    else:
        iterated = [generator.iter for generator in node.generators]
    return [site for site in iterated if is_set_expression(site)]


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


class _FunctionScanner:
    """One function's local effect extraction state."""

    def __init__(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        observer_classes: FrozenSet[str],
    ) -> None:
        self.func = func
        self.module = module
        self.observer_classes = observer_classes
        args = func.node.args
        self.params = {
            arg.arg
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        }
        self.observer_params = {
            arg.arg
            for arg in list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            if arg.annotation is not None
            and self._annotation_is_observer(arg.annotation)
        }
        self.construction = func.name in CONSTRUCTION_METHODS
        self.in_observer_class = func.class_name is not None and (
            func.class_name in observer_classes
        )
        nodes = module.source.walk(func.node)
        self.aliases = local_aliases(nodes)
        self.sanctioned = sanctioned_nodes(nodes)

    def _annotation_is_observer(self, annotation: ast.expr) -> bool:
        node = annotation
        # Unwrap Optional["..."] / string annotations to the bare name.
        if isinstance(node, ast.Subscript):
            node = node.slice
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.rsplit(".", 1)[-1].rsplit("[", 1)[0]
            return name in self.observer_classes
        parts = _dotted_parts(node)
        return bool(parts) and parts[-1] in self.observer_classes

    def _expand(self, parts: List[str]) -> List[str]:
        return expand_alias(self.aliases, parts)

    # -- classification ----------------------------------------------------

    def effects(self) -> List[Effect]:
        found: List[Effect] = []
        for node in self.module.source.walk(self.func.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    effect = self._mutation_effect(target)
                    if effect is not None:
                        found.append(effect)
            elif isinstance(node, ast.Call):
                found.extend(self._call_effects(node))
            elif isinstance(node, ast.Raise):
                found.append(
                    Effect(
                        kind="raises",
                        detail="raise statement",
                        relpath=self.func.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )
        found.sort(key=lambda e: (e.line, e.column, e.kind, e.detail))
        return found

    def entropy_source(self) -> Optional[Effect]:
        """The function's earliest nondeterminism source by ``(line,
        detail)`` as a ``reads-entropy`` effect, or None.  Nested defs
        count (closures run on behalf of their enclosing function), and
        the sampler sanction of RNG draws does not apply."""
        sites: List[Tuple[int, str, str, int]] = []
        imports = self.module.imports
        # Exact type tests: parsed trees hold no subclasses of ast nodes.
        for node in self.module.source.walk(self.func.node):
            kind = type(node)
            if kind is ast.Call:
                dotted = _resolved_target(node.func, self.module)
                if dotted is None:
                    continue
                reason = classify_entropy_call(dotted) or _ENV_READS.get(dotted)
                if reason is not None:
                    sites.append(
                        (node.lineno, f"call to {dotted}", reason, node.col_offset)
                    )
            elif kind is ast.Attribute and type(node.value) is ast.Name:
                # Only a chain's innermost attribute is resolved: an outer
                # one (``os.environ.get``) starts on the same line and
                # extends its text, so it never sorts first.
                target = imports.get(node.value.id)
                if target is None:
                    continue
                dotted = f"{target}.{node.attr}"
                if dotted.startswith("os.environ"):
                    sites.append(
                        (node.lineno, dotted, "environment read", node.col_offset)
                    )
            elif kind in _ITERATIONS:
                for site in _set_iteration_sites(node):
                    sites.append(
                        (
                            site.lineno,
                            "iteration over a set",
                            "set-order-dependent iteration",
                            site.col_offset,
                        )
                    )
        if not sites:
            return None
        line, detail, reason, column = min(sites, key=lambda site: site[:2])
        return Effect(
            kind=READS_ENTROPY,
            detail=f"{detail} ({reason})",
            relpath=self.func.relpath,
            line=line,
            column=column,
        )

    def _mutation_effect(
        self, target: ast.expr, *, receiver: bool = False
    ) -> Optional[Effect]:
        """Classify one assignment target (or mutating-call receiver)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                effect = self._mutation_effect(element, receiver=receiver)
                if effect is not None:
                    return effect
            return None
        if isinstance(target, ast.Name):
            # A bare-name assignment is a local rebind, never an
            # effect -- but a mutating-method *receiver* that merely
            # aliases a longer chain (``buf = self._buf``) mutates
            # whatever the chain roots at.
            if not receiver:
                return None
            expanded = self._expand([target.id])
            if len(expanded) < 2:
                return None
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            parts = _dotted_parts(target)
            if parts is None:
                return None
            expanded = self._expand(parts)
        else:
            return None
        root = expanded[0]
        rendered = _render_path(expanded)
        if self.construction and root == "self":
            return None
        observer = (
            any(part in OBSERVER_COMPONENTS for part in expanded)
            or (root == "self" and self.in_observer_class)
            or root in self.observer_params
        )
        kind: Optional[str] = None
        if root in self.params:
            kind = "mutates-observer" if observer else "mutates-param"
        elif root in self.module.constants or root in self.module.imports:
            kind = "mutates-observer" if observer else "mutates-global"
        if kind is None:
            return None
        return Effect(
            kind=kind,
            detail=f"write to {rendered}",
            relpath=self.func.relpath,
            line=target.lineno,
            column=target.col_offset,
            root=root,
        )

    def _call_effects(self, node: ast.Call) -> List[Effect]:
        found: List[Effect] = []
        func = node.func
        # object.__setattr__ escapes frozen-instance protection.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            if not self.construction:
                first = node.args[0] if node.args else None
                parts = _dotted_parts(first) if first is not None else None
                rendered = _render_path(self._expand(parts)) if parts else "?"
                found.append(
                    Effect(
                        kind="setattr-escape",
                        detail=f"object.__setattr__ on {rendered}",
                        relpath=self.func.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                        root=parts[0] if parts else "",
                    )
                )
            return found
        # Mutating method call: the receiver chain is the target.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
        ):
            effect = self._mutation_effect(func.value, receiver=True)
            if effect is not None:
                found.append(
                    dataclasses.replace(
                        effect,
                        detail=f"call to .{func.attr}() on "
                        + effect.detail.removeprefix("write to "),
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )
        # RNG draws: rng-named receivers and the entropy catalog.
        if id(node) not in self.sanctioned and not (
            self.func.class_name in SANCTIONED_RNG_CLASSES
        ):
            receiver = rng_receiver(func, self.aliases)
            if receiver is not None:
                found.append(
                    Effect(
                        kind="consumes-rng",
                        detail=f"draw from RNG {ast.unparse(func)}",
                        relpath=self.func.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                        root=receiver,
                    )
                )
            else:
                dotted = _resolved_target(func, self.module)
                if dotted is not None:
                    reason = classify_entropy_call(dotted)
                    if reason is not None and "wall-clock" not in reason:
                        found.append(
                            Effect(
                                kind="consumes-rng",
                                detail=f"call to {dotted}",
                                relpath=self.func.relpath,
                                line=node.lineno,
                                column=node.col_offset,
                                root=dotted,
                            )
                        )
        # Event scheduling on an engine-named receiver.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SCHEDULE_METHODS
        ):
            parts = _dotted_parts(func.value)
            if parts and self._expand(parts)[-1] in _ENGINE_RECEIVERS:
                found.append(
                    Effect(
                        kind="schedules-event",
                        detail=f"call to {ast.unparse(func)}",
                        relpath=self.func.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                        root=self._expand(parts)[-1],
                    )
                )
        # IO.
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            found.append(
                Effect(
                    kind="performs-io",
                    detail=f"call to {func.id}",
                    relpath=self.func.relpath,
                    line=node.lineno,
                    column=node.col_offset,
                    root=func.id,
                )
            )
        elif isinstance(func, ast.Attribute):
            dotted = _resolved_target(func, self.module)
            if dotted is not None and any(
                dotted == entry or (entry.endswith(".") and dotted.startswith(entry))
                for entry in _IO_CALLS
            ):
                found.append(
                    Effect(
                        kind="performs-io",
                        detail=f"call to {dotted}",
                        relpath=self.func.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                        root=dotted,
                    )
                )
        return found


def observer_class_names(model: ProjectModel) -> FrozenSet[str]:
    """Classes that are observer-side: the well-known names plus every
    class defined in a module under an ``observability`` component."""
    names = set(OBSERVER_CLASS_NAMES)
    for module in model.analyzed_modules():
        if "observability" in module.name.split("."):
            names.update(module.classes)
    return frozenset(names)


def function_effects(
    func: FunctionInfo, module: ModuleInfo, observer_classes: FrozenSet[str]
) -> List[Effect]:
    """Local effects of one function (nested defs included)."""
    return _FunctionScanner(func, module, observer_classes).effects()


# ---------------------------------------------------------------------------
# The dataflow instance.
# ---------------------------------------------------------------------------


class EffectAnalysis(DataflowAnalysis):
    """Effect sets over the shared fixpoint framework.

    Effect facts are keyed by effect site, the ``reads-entropy`` fact by
    its source function's fq; ``lift`` prepends one call step and
    absorbs ``raises`` (a local property -- exception propagation is
    not this analysis's business); ``prefer`` keeps the shorter witness
    chain, ties to the incumbent, which with the framework's sorted
    first-edge-per-callee order yields breadth-first shortest chains.
    """

    name = "effects"
    #: v2: summaries carry the ``reads-entropy`` facts DET003 reads.
    version = "2"

    def __init__(self) -> None:
        self._observer_cache: Optional[Tuple[int, FrozenSet[str]]] = None

    def _observer_classes(self, model: ProjectModel) -> FrozenSet[str]:
        if self._observer_cache is None or self._observer_cache[0] != id(model):
            self._observer_cache = (id(model), observer_class_names(model))
        return self._observer_cache[1]

    def local_facts(
        self, func: FunctionInfo, module: ModuleInfo, model: ProjectModel
    ) -> Dict[str, object]:
        scanner = _FunctionScanner(func, module, self._observer_classes(model))
        facts = {
            effect.key: EffectFact(steps=(), effect=effect)
            for effect in scanner.effects()
        }
        source = scanner.entropy_source()
        if source is not None:
            facts[f"{READS_ENTROPY}@{func.fq}"] = EffectFact(
                steps=(), effect=source
            )
        return facts

    def lift(
        self,
        fact: EffectFact,
        caller: FunctionInfo,
        line: int,
        callee_fq: str,
    ) -> Optional[EffectFact]:
        if fact.effect.kind in ("raises", "setattr-escape"):
            return None
        step = CallStep(caller=caller.fq, line=line, callee=callee_fq)
        return EffectFact(steps=(step,) + fact.steps, effect=fact.effect)

    def prefer(self, old: EffectFact, new: EffectFact) -> EffectFact:
        return new if len(new.steps) < len(old.steps) else old

    def encode_fact(self, fact: EffectFact) -> object:
        # Every field is a scalar, so a copy of the instance dict is
        # what ``dataclasses.asdict`` builds, without its deep copy.
        return {
            "steps": [dict(vars(step)) for step in fact.steps],
            "effect": dict(vars(fact.effect)),
        }

    def decode_fact(self, data: object) -> EffectFact:
        return EffectFact(
            steps=tuple(CallStep(**step) for step in data["steps"]),
            effect=Effect(**data["effect"]),
        )


def entropy_facts(summary: Dict[str, object]) -> List[EffectFact]:
    """The ``reads-entropy`` facts of one summary, by source-function fq."""
    return [
        summary[key]
        for key in sorted(summary)
        if summary[key].effect.kind == READS_ENTROPY
    ]


def engine_facts(summary: Dict[str, object]) -> List[EffectFact]:
    """The engine-effect facts of one summary, deterministically ordered."""
    return [
        summary[key]
        for key in sorted(summary)
        if summary[key].effect.kind in ENGINE_EFFECT_KINDS
    ]


# ---------------------------------------------------------------------------
# The observer gate grammar (OBS001, PERF001) and EFF001's gated regions.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GateViolation:
    """An engine effect reached from inside an observer gate."""

    relpath: str
    line: int
    column: int
    message: str
    trace: Tuple[str, ...] = ()


_TERMINAL_STMTS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _observer_names_in(
    test: ast.expr, names: FrozenSet[str] = OBSERVER_COMPONENTS
) -> FrozenSet[str]:
    """Handle *names* referenced anywhere in a gate expression."""
    found: Set[str] = set()
    for node in walk_nodes(test):
        if isinstance(node, ast.Name) and node.id in names:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return frozenset(found)


def _observer_receiver(func: ast.expr, names: FrozenSet[str]) -> Optional[str]:
    """The handle name a method call dispatches on, if any."""
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Name) and receiver.id in names:
        return receiver.id
    if isinstance(receiver, ast.Attribute) and receiver.attr in names:
        return receiver.attr
    return None


def _suite_exits(body: List[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], _TERMINAL_STMTS)


def _tests_absence(test: ast.expr) -> bool:
    """``x is None`` / ``not x``: the ``if`` body is the unobserved path,
    so it is no gated region (an early exit there gates the rest)."""
    if isinstance(test, ast.UnaryOp):
        return isinstance(test.op, ast.Not)
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


#: What :class:`_GateWalker` yields: ``(kind, node, handle)``.
GateEvent = Tuple[str, ast.AST, str]


class _GateWalker:
    """The one observer gate grammar.

    An ``if`` whose test names a handle gates its body; an early-exit
    ``if x is None: return`` gates the rest of its suite; a conditional
    expression gates its true arm; gate names accumulate into nested
    suites at any depth.  Walking a suite yields ``("gate", if_node,
    "")`` for each ``if`` whose body is a gated region, and ``("call",
    call, handle)`` / ``("write", target, handle)`` for each call on, or
    write through, a handle that no enclosing gate names.
    """

    def __init__(self, names: FrozenSet[str] = OBSERVER_COMPONENTS) -> None:
        self.names = names

    def walk_suite(
        self, statements: List[ast.stmt], guarded: FrozenSet[str]
    ) -> Iterator[GateEvent]:
        for statement in statements:
            if isinstance(statement, ast.If):
                names = _observer_names_in(statement.test, self.names)
                if names and not _tests_absence(statement.test):
                    yield "gate", statement, ""
                yield from self.walk_suite(statement.body, guarded | names)
                yield from self.walk_suite(statement.orelse, guarded)
                if names and _suite_exits(statement.body):
                    guarded = guarded | names
                continue
            yield from self.walk_node(statement, guarded)

    def walk_node(
        self, node: ast.AST, guarded: FrozenSet[str]
    ) -> Iterator[GateEvent]:
        if isinstance(node, ast.IfExp):
            names = _observer_names_in(node.test, self.names)
            yield from self.walk_node(node.test, guarded | names)
            yield from self.walk_node(node.body, guarded | names)
            yield from self.walk_node(node.orelse, guarded)
            return
        if isinstance(node, ast.Call):
            name = _observer_receiver(node.func, self.names)
            if name is not None and name not in guarded:
                yield "call", node, name
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                parts = _dotted_parts(target)
                if (
                    parts is not None
                    and len(parts) > 1
                    and parts[0] in self.names
                    and parts[0] not in guarded
                ):
                    yield "write", target, parts[0]
        for _, value in ast.iter_fields(node):
            if isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    yield from self.walk_suite(value, guarded)
                else:
                    for item in value:
                        if isinstance(item, ast.AST):
                            yield from self.walk_node(item, guarded)
            elif isinstance(value, ast.AST):
                yield from self.walk_node(value, guarded)


def find_gate_violations(
    model: ProjectModel,
    graph: CallGraph,
    summaries: Dict[str, Dict[str, object]],
) -> List[GateViolation]:
    """EFF001's simulator-side scan.

    Over every function under ``simulator/`` or ``faults/``: a
    tracer-gated region that reaches an engine effect (state mutation,
    RNG draw, event schedule), directly or through calls -- gated code
    must be write-only with respect to the simulation.  Tracer touches
    outside any gate are OBS001's.
    """
    observers = observer_class_names(model)
    adjacency = graph.adjacency()
    infos = {func.fq: func for func in model.functions()}
    violations: List[GateViolation] = []

    for func in model.functions():
        if not in_effect_scope(func.relpath, "simulator", "faults"):
            continue
        spans = [
            (statement.lineno, statement.end_lineno or statement.lineno)
            for kind, gate, _ in _GateWalker().walk_suite(
                func.node.body, frozenset()
            )
            if kind == "gate"
            for statement in gate.body
        ]
        if not spans:
            continue

        def gated(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in spans)

        # Direct engine effects lexically inside a gated region.
        module = model.modules[func.module]
        for effect in function_effects(func, module, observers):
            if effect.kind in ENGINE_EFFECT_KINDS and gated(effect.line):
                fact = EffectFact(steps=(), effect=effect)
                violations.append(
                    GateViolation(
                        relpath=func.relpath,
                        line=effect.line,
                        column=effect.column,
                        message=(
                            f"observer gate in {func.fq} contains "
                            f"{effect.detail} ({effect.kind}): gated "
                            "tracing must not touch the simulation"
                        ),
                        trace=tuple(
                            fact.chain(f"{func.fq} [observer gate]")
                        ),
                    )
                )
        # Calls leaving a gated region into functions with engine
        # effects (the interprocedural face).
        seen_callees: Set[str] = set()
        for callee, line in adjacency.get(func.fq, []):
            if not gated(line) or callee in seen_callees:
                continue
            seen_callees.add(callee)
            callee_info = infos.get(callee)
            if callee_info is not None and (
                callee_info.class_name in observers
            ):
                # Calling a hook is what the gate is *for*; the hook's
                # own purity is EFF001's observability-side half.
                continue
            for fact in engine_facts(summaries.get(callee, {})):
                step = CallStep(caller=func.fq, line=line, callee=callee)
                lifted = EffectFact(
                    steps=(step,) + fact.steps, effect=fact.effect
                )
                violations.append(
                    GateViolation(
                        relpath=func.relpath,
                        line=line,
                        column=0,
                        message=(
                            f"observer gate in {func.fq} reaches "
                            f"{fact.effect.detail} ({fact.effect.kind})"
                            f"{hops_phrase(lifted)}: gated tracing must "
                            "not touch the simulation"
                        ),
                        trace=tuple(
                            lifted.chain(f"{func.fq} [observer gate]")
                        ),
                    )
                )

    violations.sort(key=lambda v: (v.relpath, v.line, v.column, v.message))
    return violations


# ---------------------------------------------------------------------------
# Frozen-spec write protection (EFF003's local scan).
# ---------------------------------------------------------------------------

#: Spec classes protected by name even when the decorator is out of
#: sight (re-exported, or deliberately slots-only like OffloadConfig).
SPEC_CLASS_NAMES = frozenset({"RunSpec", "FaultPolicy", "OffloadConfig"})


@dataclasses.dataclass(frozen=True)
class FrozenWrite:
    """One post-construction write into a frozen spec instance."""

    relpath: str
    line: int
    column: int
    message: str


def frozen_class_names(model: ProjectModel) -> FrozenSet[str]:
    """``dataclass(frozen=True)`` classes plus the named spec classes."""
    names = set(SPEC_CLASS_NAMES)
    for module in model.analyzed_modules():
        for cls_info in module.classes.values():
            for decorator in cls_info.node.decorator_list:
                call = decorator
                if not isinstance(call, ast.Call):
                    continue
                target = _dotted_parts(call.func)
                if not target or target[-1] != "dataclass":
                    continue
                for keyword in call.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        names.add(cls_info.name)
    return frozenset(names)


def find_frozen_writes(model: ProjectModel) -> List[FrozenWrite]:
    protected = frozen_class_names(model)
    writes: List[FrozenWrite] = []
    for func in model.functions():
        if func.name in CONSTRUCTION_METHODS:
            continue
        args = func.node.args
        protected_params = {}
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.annotation is None:
                continue
            node = arg.annotation
            if isinstance(node, ast.Subscript):
                node = node.slice
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value.rsplit(".", 1)[-1].rsplit("[", 1)[0]
            else:
                parts = _dotted_parts(node)
                name = parts[-1] if parts else None
            if name in protected:
                protected_params[arg.arg] = name
        if func.class_name in protected:
            protected_params.setdefault("self", func.class_name)

        for node in model.modules[func.module].source.walk(func.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    parts = _dotted_parts(target)
                    if (
                        parts is not None
                        and len(parts) > 1
                        and parts[0] in protected_params
                    ):
                        cls = protected_params[parts[0]]
                        writes.append(
                            FrozenWrite(
                                relpath=func.relpath,
                                line=target.lineno,
                                column=target.col_offset,
                                message=(
                                    f"{func.fq} writes "
                                    f"{_render_path(parts)} on frozen spec "
                                    f"{cls} after construction"
                                ),
                            )
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                first = node.args[0] if node.args else None
                parts = _dotted_parts(first) if first is not None else None
                if parts and parts[0] in protected_params:
                    subject = (
                        f"frozen spec {protected_params[parts[0]]}"
                    )
                else:
                    subject = (
                        f"{_render_path(parts)}" if parts else "an instance"
                    )
                writes.append(
                    FrozenWrite(
                        relpath=func.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                        message=(
                            f"{func.fq} escapes attribute protection: "
                            f"object.__setattr__ on {subject} outside "
                            "construction"
                        ),
                    )
                )
    writes.sort(key=lambda w: (w.relpath, w.line, w.column, w.message))
    return writes
