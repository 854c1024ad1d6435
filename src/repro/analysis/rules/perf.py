"""PERF001: hot-path hygiene in the discrete-event simulator.

PR 1's throughput work (~214k events/s) leans on two mechanical
properties of everything the event loop touches: instances carry
``__slots__`` (no per-object ``__dict__``), and the drain loops allocate
no containers per event.  Both erode invisibly -- a new helper class or
a convenience dict inside ``run_until`` costs percent-level throughput
without failing any test -- so this rule pins them.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..effects import _GateWalker
from ..findings import Finding, Severity
from ..registry import Rule, register_rule
from ..source import walk_nodes
from ._ast_util import (
    decorator_name,
    import_map,
    is_constant_true,
    keyword_value,
)

#: Base classes that exempt a class from the slots requirement.
_EXEMPT_BASES = {
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
    "Exception",
    "BaseException",
    "Protocol",
    "ABC",
    "NamedTuple",
}

#: Engine/CPU/device methods that form the per-event drain path.
#: ``submit`` and ``_select_tenant`` are the accelerator's side of it:
#: one runs per offload arrival, the other per scheduling decision.
_HOT_FUNCTIONS = {
    "run_until",
    "run_to_completion",
    "step",
    "_advance",
    "_dispatch",
    "submit",
    "_select_tenant",
}

_ALLOC_CALLS = {"dict", "list", "set"}

#: Tracer method-name prefixes that run once per simulated event (the
#: interval/fault hooks), as opposed to the per-request/per-span
#: ``begin_*``/``end_*`` lifecycle methods.
_TRACER_HOT_PREFIXES = ("record", "mark_")

def _object_allocations(nodes) -> Iterator[tuple[ast.AST, str]]:
    """Per-event object allocations: container displays/comprehensions,
    ``dict()``/``list()``/``set()`` calls, and capitalized constructor
    calls (``Interval(...)``, ``spans.Span(...)``).  Tuple packing is
    deliberately allowed -- it is how flat ring rows and dict keys are
    built."""
    for root in nodes:
        for node in walk_nodes(root):
            if isinstance(
                node,
                (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                 ast.SetComp),
            ):
                yield node, type(node).__name__.lower()
            elif isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name is None:
                    continue
                if name in _ALLOC_CALLS:
                    yield node, f"{name}()"
                elif name[:1].isupper() and not name.isupper():
                    yield node, f"{name}(...)"


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


@register_rule
class HotPathHygiene(Rule):
    """PERF001: simulator classes need __slots__; drain loops must not
    allocate containers per event."""

    name = "PERF001"
    severity = Severity.WARNING
    cache_version = "2"
    description = (
        "simulator classes define __slots__ (or dataclass slots=True); "
        "event drain loops and tracer record hooks allocate no "
        "per-event objects"
    )
    invariant = (
        "DES hot-path throughput: per-event attribute access and object "
        "creation dominate the drain loop, so every class the loop "
        "touches avoids __dict__ overhead, loop bodies avoid container "
        "churn, and the tracer's per-event hooks (record_*/mark_* and "
        "the tracer-gated call sites in the scheduler) append to "
        "flat ring buffers instead of constructing objects"
    )

    def check(self, source, context) -> Iterator[Finding]:
        in_simulator = source.in_scope("simulator")
        tracer_module = (
            source.name == "tracer.py" and source.in_scope("observability")
        )
        if not (in_simulator or tracer_module):
            return
        imports = import_map(source)
        for node in source.walk():
            if isinstance(node, ast.ClassDef):
                if in_simulator:
                    yield from self._check_class(source, node, imports)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_simulator and node.name in _HOT_FUNCTIONS:
                    yield from self._check_hot_function(source, node)
                if tracer_module and node.name.startswith(
                    _TRACER_HOT_PREFIXES
                ):
                    yield from self._check_tracer_hook(source, node)
        if in_simulator:
            gates = _GateWalker().walk_suite(source.tree.body, frozenset())
            for kind, gate, _ in gates:
                if kind == "gate":
                    yield from self._check_gated_hook(source, gate)

    def _check_class(self, source, node: ast.ClassDef, imports):
        bases = {_base_name(base) for base in node.bases}
        if bases & _EXEMPT_BASES:
            return
        if node.name.endswith(("Error", "Exception", "Warning")):
            return
        dataclass_dec = None
        for dec in node.decorator_list:
            name = decorator_name(dec, imports)
            if name in ("dataclass", "dataclasses.dataclass"):
                dataclass_dec = dec
                break
        if dataclass_dec is not None:
            if isinstance(dataclass_dec, ast.Call) and is_constant_true(
                keyword_value(dataclass_dec, "slots")
            ):
                return
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"dataclass {node.name} in simulator/ lacks slots=True"
                ),
                hint="decorate with @dataclasses.dataclass(slots=True)",
                severity=self.severity,
            )
            return
        if not _has_slots(node):
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=f"class {node.name} in simulator/ lacks __slots__",
                hint=(
                    "declare __slots__ with the instance attributes; "
                    "simulator objects are allocated on the event hot path"
                ),
                severity=self.severity,
            )

    def _check_tracer_hook(self, source, func):
        """record_*/mark_* tracer methods run once per simulated event:
        they must append to the flat ring, never build objects."""
        for node, alloc in _object_allocations(func.body):
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"per-event {alloc} allocation in tracer hook "
                    f"{func.name}()"
                ),
                hint=(
                    "append a row to the flat ring buffer instead and "
                    "construct objects once, at decode time (finish())"
                ),
                severity=self.severity,
            )

    def _check_gated_hook(self, source, gate):
        """Bodies of tracer gates (``if tracer is not None:``) in the
        scheduler run once per simulated event when tracing is on;
        object construction there is the overhead the ring buffer
        removed."""
        for node, alloc in _object_allocations(gate.body):
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"per-event {alloc} allocation inside a tracer gate"
                ),
                hint=(
                    "pass scalars to the tracer hook and let the ring "
                    "buffer store them flat; objects belong in the "
                    "post-run decode"
                ),
                severity=self.severity,
            )

    def _check_hot_function(self, source, func):
        for loop in walk_nodes(func):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            for node in walk_nodes(loop):
                alloc = None
                if isinstance(
                    node,
                    (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                     ast.SetComp),
                ):
                    alloc = type(node).__name__.lower()
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ALLOC_CALLS
                ):
                    alloc = f"{node.func.id}()"
                if alloc is None:
                    continue
                yield Finding(
                    rule=self.name,
                    path=source.relpath,
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"per-event {alloc} allocation inside "
                        f"{func.name}()'s drain loop"
                    ),
                    hint=(
                        "hoist the container out of the loop or batch the "
                        "accounting; the drain loop runs once per "
                        "simulated event"
                    ),
                    severity=self.severity,
                )
