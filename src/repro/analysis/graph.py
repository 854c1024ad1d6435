"""Call-graph construction over the :class:`~repro.analysis.project
.ProjectModel`.

Every function and method of the analyzed modules becomes a node; every
call site becomes one of three things, never silently dropped:

* an **internal edge** ``caller -> callee`` when the target resolves to
  a project function (direct calls, facade re-exports, ``self.method``,
  ``Class()`` constructors, and attribute calls typed through parameter
  annotations / dataclass fields / ``self.x = C()`` assignments --
  ``config.device.submit(...)`` resolves through ``config:
  OffloadConfig`` and ``device: AcceleratorDevice``);
* an **external call** when the chain resolves outside the project
  (``time.time``, ``hashlib.sha256``, builtins);
* an **unresolved** entry when static resolution genuinely cannot finish
  (unknown receiver types, dynamic dispatch), recorded with the call
  text so coverage is auditable.

The edge, external-call and unresolved tuples are sorted by caller, line
and target, so the same tree always builds an equal graph whatever the
input order or hash seed -- asserted by the tier-1 snapshot test.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
from typing import Dict, List, Optional, Tuple

from .project import ClassInfo, FunctionInfo, ModuleInfo, ProjectModel, _dotted

#: Calls to these bare names are Python syntax, not program structure.
_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclasses.dataclass(frozen=True)
class CallEdge:
    """One resolved project-internal call site."""

    caller: str
    callee: str
    line: int


@dataclasses.dataclass(frozen=True)
class ExternalCall:
    """A call whose target resolved outside the project."""

    caller: str
    target: str
    line: int


@dataclasses.dataclass(frozen=True)
class UnresolvedCall:
    """A call static resolution could not finish."""

    caller: str
    text: str
    line: int


@dataclasses.dataclass
class CallGraph:
    """The whole-program call graph."""

    #: fq -> (module, kind, relpath, line); kind is "function"|"method".
    nodes: Dict[str, Tuple[str, str, str, int]]
    edges: Tuple[CallEdge, ...]
    external: Tuple[ExternalCall, ...]
    unresolved: Tuple[UnresolvedCall, ...]

    def adjacency(self) -> Dict[str, List[Tuple[str, int]]]:
        """caller fq -> sorted [(callee fq, line)]."""
        table: Dict[str, List[Tuple[str, int]]] = {}
        for edge in self.edges:
            table.setdefault(edge.caller, []).append((edge.callee, edge.line))
        for sites in table.values():
            sites.sort()
        return table

    def external_by_caller(self) -> Dict[str, List[ExternalCall]]:
        table: Dict[str, List[ExternalCall]] = {}
        for call in self.external:
            table.setdefault(call.caller, []).append(call)
        return table


class CallResolver:
    """Shared static resolution of call targets and expression types."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model

    # -- environments ------------------------------------------------------

    def function_env(
        self, func: FunctionInfo, module: ModuleInfo
    ) -> Dict[str, ClassInfo]:
        """Local name -> inferred class, from parameter annotations,
        ``self``/``cls``, and ``x = ClassName(...)`` assignments."""
        env: Dict[str, ClassInfo] = {}
        node = func.node
        if func.class_name is not None:
            owner = self.model.modules[func.module].classes.get(func.class_name)
            if owner is not None:
                env["self"] = owner
                env["cls"] = owner
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.annotation is None:
                continue
            resolved = self.model._resolve_annotation_expr(
                arg.annotation, module
            )
            if resolved is not None and resolved.cls is not None:
                env[arg.arg] = resolved.cls
        for sub in module.source.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            if not isinstance(sub.value, ast.Call):
                continue
            target_cls = self._call_result_type(sub.value, env, module)
            if target_cls is None:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    env.setdefault(target.id, target_cls)
        return env

    def expr_type(
        self,
        expr: ast.expr,
        env: Dict[str, ClassInfo],
        module: ModuleInfo,
        *,
        _depth: int = 0,
    ) -> Optional[ClassInfo]:
        """Static class of *expr*, where knowable."""
        if _depth > 8:
            return None
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(expr.value, env, module, _depth=_depth + 1)
            if base is not None:
                return self.model.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            return self._call_result_type(expr, env, module)
        return None

    def _call_result_type(
        self,
        call: ast.Call,
        env: Dict[str, ClassInfo],
        module: ModuleInfo,
    ) -> Optional[ClassInfo]:
        """Type of a call's result: class constructors only (function
        return types are not chased)."""
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        resolution = self.model._resolve_in(
            module, dotted.split("."), dotted, 0
        )
        if resolution.kind == "class":
            return resolution.cls
        return None

    # -- call resolution ---------------------------------------------------

    def resolve_call(
        self,
        call: ast.Call,
        env: Dict[str, ClassInfo],
        module: ModuleInfo,
    ) -> Tuple[str, Optional[str], Optional[FunctionInfo]]:
        """Classify one call site.

        Returns ``(kind, target, function)`` with kind one of
        ``"internal"`` / ``"external"`` / ``"unresolved"`` / ``"skip"``
        (builtins and locals that carry no structure).
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in env and name not in module.classes:
                # Calling a local variable: unknowable.
                return "unresolved", name, None
            resolution = self.model.resolve_name(module, name)
            if resolution.kind in ("function", "class"):
                return self._definition_target(resolution)
            if resolution.kind == "external":
                return "external", resolution.fq, None
            if resolution.kind == "module":
                return "unresolved", name, None
            if name in _BUILTIN_NAMES:
                return "skip", f"builtins.{name}", None
            return "unresolved", name, None
        if isinstance(func, ast.Attribute):
            # 1. A dotted chain rooted at an import or module symbol.
            dotted = _dotted(func)
            if dotted is not None:
                resolution = self.model._resolve_in(
                    module, dotted.split("."), dotted, 0
                )
                if resolution.kind in ("function", "class"):
                    return self._definition_target(resolution)
                if resolution.kind == "external":
                    return "external", resolution.fq, None
            # 2. A method on a statically-typed receiver.
            receiver = self.expr_type(func.value, env, module)
            if receiver is not None:
                method = self.model.find_method(receiver, func.attr)
                if method is not None:
                    return "internal", method.fq, method
                return "unresolved", f"{receiver.fq}.{func.attr}", None
            return "unresolved", dotted or f"<expr>.{func.attr}", None
        return "unresolved", "<dynamic>", None

    def _definition_target(
        self, resolution
    ) -> Tuple[str, Optional[str], Optional[FunctionInfo]]:
        if resolution.kind == "function":
            return "internal", resolution.fq, resolution.function
        cls_info = resolution.cls
        init = self.model.find_method(cls_info, "__init__")
        if init is not None:
            return "internal", init.fq, init
        return "internal", cls_info.fq, None


def build_call_graph(model: ProjectModel) -> CallGraph:
    """Construct the call graph over the model's analyzed modules."""
    resolver = CallResolver(model)
    nodes: Dict[str, Tuple[str, str, str, int]] = {}
    edges: List[CallEdge] = []
    external: List[ExternalCall] = []
    unresolved: List[UnresolvedCall] = []

    functions = model.functions()
    for func in functions:
        kind = "method" if func.class_name else "function"
        nodes[func.fq] = (func.module, kind, func.relpath, func.line)
    # Constructor edges target classes without __init__ by class fq; make
    # sure those land on a node too.
    for module in model.analyzed_modules():
        for cls_info in module.classes.values():
            if "__init__" not in cls_info.methods:
                nodes.setdefault(
                    cls_info.fq,
                    (module.name, "class", cls_info.relpath, cls_info.line),
                )

    for func in functions:
        module = model.modules[func.module]
        env = resolver.function_env(func, module)
        for node in module.source.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            kind, target, _info = resolver.resolve_call(node, env, module)
            if kind == "internal":
                edges.append(
                    CallEdge(caller=func.fq, callee=target, line=node.lineno)
                )
            elif kind == "external":
                external.append(
                    ExternalCall(
                        caller=func.fq, target=target, line=node.lineno
                    )
                )
            elif kind == "unresolved":
                unresolved.append(
                    UnresolvedCall(
                        caller=func.fq,
                        text=target or "<dynamic>",
                        line=node.lineno,
                    )
                )

    return CallGraph(
        nodes=nodes,
        edges=tuple(sorted(set(edges), key=lambda e: (e.caller, e.line, e.callee))),
        external=tuple(
            sorted(set(external), key=lambda e: (e.caller, e.line, e.target))
        ),
        unresolved=tuple(
            sorted(set(unresolved), key=lambda e: (e.caller, e.line, e.text))
        ),
    )
