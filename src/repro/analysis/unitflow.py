"""Interprocedural units/dimension inference: cycles, seconds, bytes,
hertz, requests flowing through assignments, arithmetic, and calls.

The syntactic UNIT001 rule can only compare two *names* on either side
of ``+``/``-``.  It cannot see a seconds-valued **call result** added to
a cycle count, or a seconds-typed variable passed across a module
boundary into a ``*_cycles`` parameter of one of the Accelerometer
equations.  This pass can: it seeds units from identifier suffixes (the
same vocabulary as UNIT001, extended with ``requests``), from the
constants in :mod:`repro.units` (``GIGACYCLES``, ``KIB``/``MIB``/
``GIB``), and from function signatures (parameter names declare the
units of their arguments, ``*_to_X``/``X_for_*`` conversion names
declare their return unit), then propagates those units through each
function body and checks every resolved call boundary.

Owned here and imported by the syntactic rule so the two vocabularies
stay in lockstep.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Tuple

from .dataflow import DataflowAnalysis
from .graph import CallResolver
from .project import FunctionInfo, ModuleInfo, ProjectModel
from .source import walk_nodes

#: Identifier tokens implying a unit.  Names containing "per" are ratios
#: and excluded (cycles_per_byte is neither cycles nor bytes).
UNIT_TOKENS = {
    "cycles": "cycles",
    "gigacycles": "cycles",
    "seconds": "seconds",
    "secs": "seconds",
    "nanoseconds": "nanoseconds",
    "microseconds": "microseconds",
    "milliseconds": "milliseconds",
    "hz": "hertz",
    "ghz": "hertz",
    "frequency": "hertz",
    "bytes": "bytes",
    "kib": "bytes",
    "mib": "bytes",
    "gib": "bytes",
    "requests": "requests",
}

#: Modules that *define* conversions: unit mixing inside them is the
#: point, so their bodies are exempt (calls into them are still checked).
_CONVERSION_MODULES = ("units",)


def identifier_unit(identifier: str) -> Optional[str]:
    """Unit declared by an identifier's suffix tokens, or None."""
    tokens = identifier.lower().split("_")
    if "per" in tokens:
        return None
    for token in reversed(tokens):
        unit = UNIT_TOKENS.get(token)
        if unit is not None:
            return unit
    return None


def name_unit(node: ast.expr) -> Optional[str]:
    """Unit declared by a Name/Attribute's own identifier (what the
    syntactic UNIT001 rule sees)."""
    if isinstance(node, ast.Attribute):
        return identifier_unit(node.attr)
    if isinstance(node, ast.Name):
        return identifier_unit(node.id)
    return None


def return_unit(function_name: str) -> Optional[str]:
    """Unit of a function's return value, from its name.

    Conversion names are directional: ``ns_to_cycles`` returns cycles,
    ``duration_for_cycles`` returns a duration.  Everything else falls
    back to the suffix rule (``host_cycles`` returns cycles).
    """
    tokens = function_name.lower().split("_")
    if "to" in tokens:
        index = tokens.index("to")
        if index + 1 < len(tokens):
            return UNIT_TOKENS.get(tokens[index + 1])
        return None
    if "for" in tokens:
        index = tokens.index("for")
        if index > 0:
            return UNIT_TOKENS.get(tokens[index - 1])
        return None
    return identifier_unit(function_name)


@dataclasses.dataclass(frozen=True)
class UnitSignature:
    """What a function's signature declares about units.

    Parameter names declare the units of their arguments; the function
    name declares the unit of the return value (``ns_to_cycles`` and
    friends).  These are the only facts the flow analysis needs at a
    call boundary, so they are what the dataflow framework summarizes.
    """

    fq: str
    params: Tuple[str, ...]
    return_unit: Optional[str]


class UnitSignatureAnalysis(DataflowAnalysis):
    """Per-function unit signatures as a (purely local) dataflow instance.

    Units do not propagate through callers the way taint does -- a
    call boundary is checked against the *callee's own* declaration --
    so ``lift`` absorbs everything (the framework default) and each
    summary holds exactly the function's own signature.  Running it
    through the framework buys the shared traversal and the on-disk
    summary cache.
    """

    name = "unitflow-signatures"
    version = "1"

    def local_facts(
        self, func: FunctionInfo, module: ModuleInfo, model: ProjectModel
    ) -> Dict[str, object]:
        return {
            func.fq: UnitSignature(
                fq=func.fq,
                params=tuple(_parameter_names(func)),
                return_unit=return_unit(func.name),
            )
        }

    def encode_fact(self, fact: UnitSignature) -> object:
        return {
            "fq": fact.fq,
            "params": list(fact.params),
            "return_unit": fact.return_unit,
        }

    def decode_fact(self, data: object) -> UnitSignature:
        return UnitSignature(
            fq=data["fq"],
            params=tuple(data["params"]),
            return_unit=data["return_unit"],
        )


@dataclasses.dataclass(frozen=True)
class UnitViolation:
    """One cross-dimension mix the flow analysis established."""

    relpath: str
    line: int
    column: int
    kind: str  # "arithmetic" | "argument"
    message: str
    #: Inference trail: how each side got its unit.
    trail: Tuple[str, ...] = ()


class UnitFlowAnalyzer:
    """Propagate units through the project and collect violations.

    *signatures* is an optional summary table from
    :class:`UnitSignatureAnalysis` (``fq -> {fq: UnitSignature}``); when
    provided (the deep-rule path, where it may come from the on-disk
    cache), call boundaries consult it instead of re-deriving the
    callee's declaration from its AST.
    """

    def __init__(
        self,
        model: ProjectModel,
        signatures: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> None:
        self.model = model
        self.resolver = CallResolver(model)
        self.signatures = signatures

    def _callee_signature(self, info: FunctionInfo) -> UnitSignature:
        if self.signatures is not None:
            fact = self.signatures.get(info.fq, {}).get(info.fq)
            if isinstance(fact, UnitSignature):
                return fact
        return UnitSignature(
            fq=info.fq,
            params=tuple(_parameter_names(info)),
            return_unit=return_unit(info.name),
        )

    def analyze(self) -> List[UnitViolation]:
        violations: List[UnitViolation] = []
        for func in self.model.functions():
            module = self.model.modules[func.module]
            if module.name.split(".")[-1] in _CONVERSION_MODULES:
                continue
            violations.extend(self._analyze_function(func, module))
        violations.sort(key=lambda v: (v.relpath, v.line, v.column, v.message))
        return violations

    # -- per-function flow -------------------------------------------------

    def _analyze_function(
        self, func: FunctionInfo, module: ModuleInfo
    ) -> List[UnitViolation]:
        flow = _FunctionFlow(self, func, module)
        flow.visit_statements(func.node.body)
        return flow.violations

    # -- unit inference ----------------------------------------------------

    def _expr_unit(
        self,
        expr: ast.expr,
        units: Dict[str, str],
        trail: Dict[str, str],
        type_env,
        module: ModuleInfo,
    ) -> Tuple[Optional[str], Optional[str]]:
        """(unit, how-it-was-inferred) for *expr*, or (None, None)."""
        if isinstance(expr, ast.Name):
            if expr.id in units:
                return units[expr.id], trail.get(expr.id)
            unit = identifier_unit(expr.id)
            if unit is not None:
                return unit, f"name {expr.id!r} declares {unit}"
            # A module-level constant whose name declares a unit.
            resolution = self.model.resolve_name(module, expr.id)
            if resolution.kind == "constant":
                unit = identifier_unit(resolution.fq.rsplit(".", 1)[-1])
                if unit is not None:
                    return unit, f"constant {resolution.fq} declares {unit}"
            return None, None
        if isinstance(expr, ast.Attribute):
            unit = identifier_unit(expr.attr)
            if unit is not None:
                return unit, f"attribute {expr.attr!r} declares {unit}"
            return None, None
        if isinstance(expr, ast.Call):
            kind, target, info = self.resolver.resolve_call(
                expr, type_env, module
            )
            if info is not None:
                unit = self._callee_signature(info).return_unit
            elif target is not None:
                unit = return_unit(target.rsplit(".", 1)[-1])
            else:
                unit = None
            if unit is not None:
                return unit, f"call to {target} returns {unit}"
            return None, None
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                left, how = self._expr_unit(
                    expr.left, units, trail, type_env, module
                )
                right, _ = self._expr_unit(
                    expr.right, units, trail, type_env, module
                )
                if left is not None and left == right:
                    return left, how
                return None, None
            if isinstance(expr.op, ast.Mult):
                # Pure scaling keeps the unit; unit*unit (or unit
                # times an unknown) does not.
                left_u, how_l = self._expr_unit(
                    expr.left, units, trail, type_env, module
                )
                right_u, how_r = self._expr_unit(
                    expr.right, units, trail, type_env, module
                )
                if left_u is not None and _is_scalar(expr.right):
                    return left_u, how_l
                if right_u is not None and _is_scalar(expr.left):
                    return right_u, how_r
                return None, None
            return None, None
        if isinstance(expr, ast.UnaryOp):
            return self._expr_unit(expr.operand, units, trail, type_env, module)
        if isinstance(expr, ast.IfExp):
            body_u, how = self._expr_unit(
                expr.body, units, trail, type_env, module
            )
            else_u, _ = self._expr_unit(
                expr.orelse, units, trail, type_env, module
            )
            if body_u is not None and body_u == else_u:
                return body_u, how
            return None, None
        return None, None

    # -- checks ------------------------------------------------------------

    def _check_arithmetic(
        self,
        node: ast.BinOp,
        units: Dict[str, str],
        trail: Dict[str, str],
        type_env,
        module: ModuleInfo,
        func: FunctionInfo,
        violations: List[UnitViolation],
    ) -> None:
        left, how_left = self._expr_unit(
            node.left, units, trail, type_env, module
        )
        right, how_right = self._expr_unit(
            node.right, units, trail, type_env, module
        )
        if left is None or right is None or left == right:
            return
        # UNIT001 already reports the purely-syntactic case where both
        # operand *names* declare their units; only report mixes the
        # flow analysis established.
        if name_unit(node.left) is not None and name_unit(node.right) is not None:
            return
        operator = "+" if isinstance(node.op, ast.Add) else "-"
        violations.append(
            UnitViolation(
                relpath=func.relpath,
                line=node.lineno,
                column=node.col_offset,
                kind="arithmetic",
                message=(
                    f"mixing units across dataflow: {left} {operator} "
                    f"{right} in {func.fq}"
                ),
                trail=tuple(
                    how for how in (how_left, how_right) if how is not None
                ),
            )
        )

    def _check_call(
        self,
        call: ast.Call,
        units: Dict[str, str],
        trail: Dict[str, str],
        type_env,
        module: ModuleInfo,
        func: FunctionInfo,
        violations: List[UnitViolation],
    ) -> None:
        kind, target, info = self.resolver.resolve_call(call, type_env, module)
        if kind != "internal" or info is None:
            return
        callee_module = self.model.modules.get(info.module)
        if (
            callee_module is not None
            and callee_module.name.split(".")[-1] in _CONVERSION_MODULES
        ):
            # Conversions take one unit and return another by design;
            # their parameter names still declare what they expect, so
            # fall through and check the arguments normally.
            pass
        params = list(self._callee_signature(info).params)
        bindings: List[Tuple[str, ast.expr]] = []
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if index < len(params):
                bindings.append((params[index], arg))
        for keyword in call.keywords:
            if keyword.arg is not None:
                bindings.append((keyword.arg, keyword.value))
        for param, arg in bindings:
            declared = identifier_unit(param)
            if declared is None:
                continue
            actual, how = self._expr_unit(arg, units, trail, type_env, module)
            if actual is None or actual == declared:
                continue
            violations.append(
                UnitViolation(
                    relpath=func.relpath,
                    line=arg.lineno,
                    column=arg.col_offset,
                    kind="argument",
                    message=(
                        f"{actual}-valued argument flows into parameter "
                        f"{param!r} ({declared}) of {info.fq}"
                    ),
                    trail=tuple(how for how in (how,) if how is not None),
                )
            )


class _FunctionFlow:
    """One function's unit environment, threaded through its body in
    statement order.

    A class rather than closures: three mutually recursive closures
    form a reference cycle per function that pins the analyzer, the
    project model and every AST until a cyclic-GC pass, which the
    analysis driver pauses (docs/analysis.md).
    """

    def __init__(
        self, analyzer: UnitFlowAnalyzer, func: FunctionInfo, module: ModuleInfo
    ) -> None:
        self.analyzer = analyzer
        self.func = func
        self.module = module
        self.type_env = analyzer.resolver.function_env(func, module)
        self.units: Dict[str, str] = {}
        self.trail: Dict[str, str] = {}
        self.violations: List[UnitViolation] = []
        args = func.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            unit = identifier_unit(arg.arg)
            if unit is not None:
                self.units[arg.arg] = unit
                self.trail[arg.arg] = f"parameter {arg.arg!r} declares {unit}"

    def expr_unit(self, expr: ast.expr) -> Tuple[Optional[str], Optional[str]]:
        return self.analyzer._expr_unit(
            expr, self.units, self.trail, self.type_env, self.module
        )

    def visit_statements(self, statements: List[ast.stmt]) -> None:
        for statement in statements:
            self.visit(statement)

    def visit(self, node: ast.AST) -> None:
        units, trail = self.units, self.trail
        if isinstance(node, ast.Assign):
            unit, how = self.expr_unit(node.value)
            self.check_expr(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if unit is not None:
                        units[target.id] = unit
                        trail[target.id] = how or f"assigned {unit}"
                    else:
                        units.pop(target.id, None)
            return
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            self.check_expr(node.value)
            if isinstance(node.target, ast.Name):
                unit, how = self.expr_unit(node.value)
                if unit is not None:
                    units[node.target.id] = unit
                    trail[node.target.id] = how or f"assigned {unit}"
            return
        if isinstance(node, ast.AugAssign):
            self.check_expr(node.value)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: check their bodies with the outer env.
            self.visit_statements(node.body)
            return
        if isinstance(node, ast.Return) and node.value is not None:
            self.check_expr(node.value)
            return
        if isinstance(node, ast.Expr):
            self.check_expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.check_expr(child)
            else:
                self.visit(child)

    def check_expr(self, expr: ast.expr) -> None:
        for sub in walk_nodes(expr):
            if isinstance(sub, ast.BinOp) and isinstance(
                sub.op, (ast.Add, ast.Sub)
            ):
                self.analyzer._check_arithmetic(
                    sub, self.units, self.trail, self.type_env, self.module,
                    self.func, self.violations,
                )
            elif isinstance(sub, ast.Call):
                self.analyzer._check_call(
                    sub, self.units, self.trail, self.type_env, self.module,
                    self.func, self.violations,
                )


def _parameter_names(info: FunctionInfo) -> List[str]:
    args = info.node.args
    names = [arg.arg for arg in list(args.posonlyargs) + list(args.args)]
    if info.class_name is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _is_scalar(expr: ast.expr) -> bool:
    """Whether *expr* is a dimensionless scaling factor (a bare number
    or a unary sign thereof)."""
    if isinstance(expr, ast.UnaryOp):
        expr = expr.operand
    return isinstance(expr, ast.Constant) and isinstance(
        expr.value, (int, float)
    )
