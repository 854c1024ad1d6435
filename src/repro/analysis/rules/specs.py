"""SPEC001: frozen spec dataclasses must stay hashable and picklable.

Frozen dataclasses are the repository's currency for declarative run
descriptions (:class:`~repro.runtime.RunSpec` and the parameter objects
that ride inside it).  The batch executor pickles them across process
boundaries and the cache hashes them into content-addressed keys -- both
capabilities die quietly when a field grows a mutable or opaque default.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding, Severity
from ..registry import Rule, register_rule
from ._ast_util import (
    decorator_name,
    import_map,
    is_constant_true,
    keyword_value,
)

_MUTABLE_FACTORIES = ("list", "dict", "set", "bytearray")

#: Class-name suffixes that mark a dataclass as a declarative spec even
#: beyond frozen-ness (these participate in cache keys / pickling).
_SPEC_SUFFIXES = ("Spec", "Key")

#: Annotation roots that are mutable containers (unhashable fields).
_MUTABLE_ANNOTATIONS = {"list", "dict", "set", "List", "Dict", "Set"}


def _dataclass_decorator(node: ast.ClassDef, imports) -> Optional[ast.expr]:
    for dec in node.decorator_list:
        name = decorator_name(dec, imports)
        if name in ("dataclass", "dataclasses.dataclass"):
            return dec
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and is_constant_true(
        keyword_value(decorator, "frozen")
    )


def _annotation_root(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register_rule
class SpecFieldDefaults(Rule):
    """SPEC001: mutable/opaque defaults on frozen spec dataclasses."""

    name = "SPEC001"
    severity = Severity.ERROR
    description = (
        "frozen spec dataclasses must not carry mutable or opaque field "
        "defaults"
    )
    invariant = (
        "RunSpec-like objects are pickled to worker processes and hashed "
        "into cache keys; a mutable or lambda default breaks hashability "
        "or hides per-instance state the cache key cannot see"
    )

    def check(self, source, context) -> Iterator[Finding]:
        imports = import_map(source)
        for node in source.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node, imports)
            if decorator is None:
                continue
            frozen = _is_frozen(decorator)
            spec_named = node.name.endswith(_SPEC_SUFFIXES)
            if not frozen:
                continue
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                yield from self._check_field(
                    source, node.name, statement, spec_named
                )

    def _check_field(
        self,
        source,
        class_name: str,
        field_node: ast.AnnAssign,
        spec_named: bool,
    ) -> Iterator[Finding]:
        target = field_node.target
        field_name = target.id if isinstance(target, ast.Name) else "<field>"
        default = field_node.value

        def finding(message: str, hint: str, node: ast.AST) -> Finding:
            return Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=f"{class_name}.{field_name}: {message}",
                hint=hint,
                severity=self.severity,
            )

        # Direct mutable literal default (dataclasses would reject
        # list/dict/set at runtime; catch it statically, plus displays
        # smuggled through field(default=...)).
        candidates = []
        if default is not None:
            if (
                isinstance(default, ast.Call)
                and _call_name(default) in ("field", "dataclasses.field")
            ):
                inner = keyword_value(default, "default")
                if inner is not None:
                    candidates.append(inner)
                factory = keyword_value(default, "default_factory")
                if factory is not None:
                    if isinstance(factory, ast.Name) and (
                        factory.id in _MUTABLE_FACTORIES
                    ):
                        yield finding(
                            f"default_factory={factory.id} gives every "
                            "instance a mutable default",
                            "use an immutable default (tuple / frozen "
                            "mapping constant) so the spec stays hashable",
                            factory,
                        )
                    elif isinstance(factory, ast.Lambda):
                        yield finding(
                            "lambda default_factory hides the default "
                            "value from review and pickling",
                            "name the factory or use an immutable "
                            "module-level constant",
                            factory,
                        )
            else:
                candidates.append(default)
        for candidate in candidates:
            if isinstance(
                candidate, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                            ast.DictComp, ast.SetComp)
            ):
                yield finding(
                    "mutable literal default on a frozen dataclass",
                    "use a tuple or an immutable constant instead",
                    candidate,
                )
        # Mutable container annotations on *Spec/*Key classes: the whole
        # instance must be hashable to serve as a cache-key component.
        if spec_named:
            root = _annotation_root(field_node.annotation)
            if root in _MUTABLE_ANNOTATIONS:
                yield finding(
                    f"annotated as {root}, an unhashable container, on a "
                    "spec class",
                    "use Tuple[...] (or a tuple of sorted pairs for "
                    "mappings) so the spec can be hashed and cached",
                    field_node.annotation,
                )


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        prefix = call.func.value
        if isinstance(prefix, ast.Name):
            return f"{prefix.id}.{call.func.attr}"
        return call.func.attr
    return None
