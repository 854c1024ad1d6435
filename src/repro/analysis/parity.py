"""Cross-language parity contracts between C kernels and Python twins.

The compiled hot core is an *accelerator* for the pure-Python engine,
and the whole value of the acceleration rests on one promise: the two
paths are bit-identical.  That promise has a small, statically checkable
surface -- the attribute names the C code interns and looks up, the
error strings it formats, the packed-layout constants it ``#define``s,
and the hooks the Python hot path fires that the C path must mirror.

This module owns the *contract* side of the check: which C file is
twinned with which Python modules, and the extraction helpers that turn
the :class:`~repro.analysis.project.ProjectModel` into the lookup tables
the PAR rules compare against.  The C side comes from
:mod:`repro.analysis.cparse`; the rules themselves live in
:mod:`repro.analysis.rules.parity`.

Adding a new C kernel means adding one :class:`ParityContract` entry to
:data:`CONTRACTS` -- the rules iterate every scanned C file and apply
whichever contract matches its basename.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, List, Optional, Tuple

from .project import ModuleInfo, ProjectModel, _dotted

#: Class-base names that mark a class as an enum; members are then
#: class-level assignments, and attribute access on *instances* goes
#: through the stdlib descriptor (``.value``/``.name``).
_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})

#: Source-line annotation that marks a Python hot-path hook as
#: deliberately absent from the compiled path (PAR004).
FALLBACK_ANNOTATION = "repro: compiled-fallback"


@dataclasses.dataclass(frozen=True)
class Loc:
    """One Python-side location, printable as ``path:line:column``."""

    relpath: str
    line: int
    column: int = 0

    @property
    def location(self) -> str:
        return f"{self.relpath}:{self.line}:{self.column}"


@dataclasses.dataclass(frozen=True)
class ParityContract:
    """What one C kernel promises about its Python twins.

    Every field is data, not code, so a new kernel (or a fixture tree)
    declares its contract without touching the rules.
    """

    #: Basename of the C file this contract governs.
    c_name: str

    #: Modules whose definitions form the attribute universe the C names
    #: must hit.  The rules skip silently unless *all* of these are in
    #: the project model -- a subset lint run is not evidence of drift.
    reference_modules: Tuple[str, ...]

    #: Exception classes whose C message templates must byte-match a
    #: Python ``raise`` template (PAR002).  Other classes (TypeError,
    #: OverflowError) are CPython plumbing, not twinned surface.
    error_classes: FrozenSet[str]

    #: Modules whose ``raise`` statements supply the Python templates.
    error_modules: Tuple[str, ...]

    #: ``(c_macro, python_module, python_constant)`` triples that must
    #: fold to the same integer (PAR003).
    constants: Tuple[Tuple[str, str, str], ...]

    #: Dotted Python methods forming the twinned hot path (PAR004).
    twinned_methods: Tuple[str, ...]

    #: Attribute roots that mark a hot-path access as an observability
    #: hook: any chain passing through one of these is a hook call.
    hook_roots: FrozenSet[str]

    #: C function name the hooks must be mirrored in; located with
    #: :meth:`~repro.analysis.cparse.CSourceFile.find_line` for messages.
    twinned_c_anchor: str

    #: Attribute names satisfied by the stdlib rather than the twins
    #: (``.value``/``.name`` are enum descriptors, not class members).
    external_attrs: FrozenSet[str] = frozenset()

    #: C-internal exposed names with deliberately no Python twin
    #: (implementation-detail types never referenced from Python).
    internal_names: FrozenSet[str] = frozenset()


#: Registered contracts, keyed by C-file basename.
CONTRACTS: Dict[str, ParityContract] = {
    "_hotcore.c": ParityContract(
        c_name="_hotcore.c",
        reference_modules=(
            "repro.simulator.cpu",
            "repro.simulator.metrics",
            "repro.simulator.hotcore",
            "repro.observability.ringbuffer",
            "repro.observability.tracer",
            "repro.errors",
        ),
        error_classes=frozenset({"SimulationError", "ParameterError"}),
        error_modules=(
            "repro.simulator.cpu",
            "repro.simulator.hotcore",
        ),
        constants=(
            ("SINK_CODE_BITS", "repro.observability.ringbuffer", "CODE_BITS"),
            ("SINK_CODE_MASK", "repro.observability.ringbuffer", "CODE_MASK"),
            (
                "SINK_DEFAULT_CAPACITY",
                "repro.observability.ringbuffer",
                "DEFAULT_SINK_CAPACITY",
            ),
        ),
        twinned_methods=("repro.simulator.cpu.CPU._advance",),
        hook_roots=frozenset({"trace", "metrics"}),
        twinned_c_anchor="engine_advance_core",
        external_attrs=frozenset({"value", "name"}),
        internal_names=frozenset({"BoundAdvance"}),
    ),
}


def contract_for(c_basename: str) -> Optional[ParityContract]:
    """The contract governing a scanned C file, if any."""
    return CONTRACTS.get(c_basename)


def modules_present(model: ProjectModel, contract: ParityContract) -> bool:
    """True when every reference module of *contract* is in *model*.

    The PAR rules are whole-contract checks: running them against a
    partial file set would report every absent twin as drift.
    """
    return all(name in model.modules for name in contract.reference_modules)


# ---------------------------------------------------------------------------
# Attribute universe (PAR001).
# ---------------------------------------------------------------------------


def attribute_universe(
    model: ProjectModel, contract: ParityContract
) -> Dict[str, Loc]:
    """Every name the reference modules define, with its location.

    Covers module-level functions/classes/constants, class methods
    (including properties), annotated and ``self.x`` attributes,
    ``__slots__`` strings, and enum members -- the full set of names a
    rename could move out from under the C code.  First definition wins;
    any one location is enough for a useful message.
    """
    universe: Dict[str, Loc] = {}

    def put(name: str, loc: Loc) -> None:
        universe.setdefault(name, loc)

    for module_name in contract.reference_modules:
        module = model.modules.get(module_name)
        if module is None:
            continue
        relpath = module.relpath
        for fname, func in module.functions.items():
            put(fname, Loc(relpath, func.line))
        for cname, value in module.constants.items():
            put(cname, Loc(relpath, value.lineno, value.col_offset))
        for cls_name, cls_info in module.classes.items():
            put(cls_name, Loc(relpath, cls_info.line))
            for mname, method in cls_info.methods.items():
                put(mname, Loc(relpath, method.line))
            for aname, expr in cls_info.attr_exprs.items():
                put(aname, Loc(relpath, expr.lineno, expr.col_offset))
            for sname, loc in _slots_strings(cls_info.node, relpath):
                put(sname, loc)
            if _is_enum(cls_info.node):
                for ename, loc in _enum_members(cls_info.node, relpath):
                    put(ename, loc)
    return universe


def _slots_strings(node: ast.ClassDef, relpath: str) -> List[Tuple[str, Loc]]:
    out: List[Tuple[str, Loc]] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets
        ):
            continue
        value = stmt.value
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            elements = value.elts
        else:
            elements = [value]
        for element in elements:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                out.append(
                    (
                        element.value,
                        Loc(relpath, element.lineno, element.col_offset),
                    )
                )
    return out


def _is_enum(node: ast.ClassDef) -> bool:
    for base in node.bases:
        dotted = _dotted(base)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in _ENUM_BASES:
            return True
    return False


def _enum_members(node: ast.ClassDef, relpath: str) -> List[Tuple[str, Loc]]:
    out: List[Tuple[str, Loc]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.append(
                        (
                            target.id,
                            Loc(relpath, target.lineno, target.col_offset),
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Error templates (PAR002).
# ---------------------------------------------------------------------------


def normalize_python_template(expr: ast.expr) -> Optional[str]:
    """Reduce a ``raise``-argument expression to the placeholder normal
    form shared with :func:`repro.analysis.cparse.normalize_template`.

    Plain string constants pass through; f-strings keep their literal
    parts verbatim and replace every interpolation with ``{}``.  Any
    other expression (``.format`` calls, concatenation of names) is not
    statically comparable and returns ``None``.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts: List[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("{}")
            else:
                return None
        return "".join(parts)
    return None


def python_error_templates(
    model: ProjectModel, contract: ParityContract
) -> Dict[str, List[Loc]]:
    """Map normalized message template -> locations raising it.

    Walks every ``raise <ErrorClass>(<template>, ...)`` in the
    contract's error modules.  Only the contract's exception classes
    participate; a template that is not statically normalizable is
    skipped (it cannot be byte-matched, so it cannot certify a C twin).
    """
    templates: Dict[str, List[Loc]] = {}
    for module_name in contract.error_modules:
        module = model.modules.get(module_name)
        if module is None or module.source.tree is None:
            continue
        relpath = module.relpath
        for node in module.source.walk():
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = node.exc
            if not isinstance(call, ast.Call) or not call.args:
                continue
            dotted = _dotted(call.func)
            if dotted is None:
                continue
            if dotted.rsplit(".", 1)[-1] not in contract.error_classes:
                continue
            template = normalize_python_template(call.args[0])
            if template is None:
                continue
            arg = call.args[0]
            templates.setdefault(template, []).append(
                Loc(relpath, arg.lineno, arg.col_offset)
            )
    return templates


# ---------------------------------------------------------------------------
# Constant folding (PAR003).
# ---------------------------------------------------------------------------


def fold_python_constant(
    model: ProjectModel, module_name: str, name: str, *, _depth: int = 0
) -> Tuple[Optional[int], Optional[Loc]]:
    """Fold a module-level integer constant, resolving names through the
    same module's other constants (``CODE_MASK = (1 << CODE_BITS) - 1``).

    Returns ``(value, location)``; value is ``None`` when the constant
    is absent or not statically foldable, location is ``None`` only when
    the name is absent entirely.
    """
    module = model.modules.get(module_name)
    if module is None or _depth > 16:
        return None, None
    expr = module.constants.get(name)
    if expr is None:
        return None, None
    loc = Loc(module.relpath, expr.lineno, expr.col_offset)
    return _fold_expr(model, module, expr, _depth), loc


def _fold_expr(
    model: ProjectModel, module: ModuleInfo, expr: ast.expr, depth: int
) -> Optional[int]:
    if depth > 16:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, ast.Name):
        value, _ = fold_python_constant(
            model, module.name, expr.id, _depth=depth + 1
        )
        return value
    if isinstance(expr, ast.UnaryOp):
        operand = _fold_expr(model, module, expr.operand, depth + 1)
        if operand is None:
            return None
        if isinstance(expr.op, ast.USub):
            return -operand
        if isinstance(expr.op, ast.UAdd):
            return operand
        if isinstance(expr.op, ast.Invert):
            return ~operand
        return None
    if isinstance(expr, ast.BinOp):
        left = _fold_expr(model, module, expr.left, depth + 1)
        right = _fold_expr(model, module, expr.right, depth + 1)
        if left is None or right is None:
            return None
        op = expr.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv) and right != 0:
            return left // right
        if isinstance(op, ast.LShift):
            return left << right
        if isinstance(op, ast.RShift):
            return left >> right
        if isinstance(op, ast.BitOr):
            return left | right
        if isinstance(op, ast.BitAnd):
            return left & right
        if isinstance(op, ast.BitXor):
            return left ^ right
        return None
    return None


# ---------------------------------------------------------------------------
# Hot-path hooks (PAR004).
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Hook:
    """One tracer/metrics attribute access on the twinned hot path."""

    #: Full dotted chain as written (``self.metrics.cycles``).
    chain: str

    #: Terminal attribute -- the name the C side must know.
    attr: str

    loc: Loc

    #: True when the source line carries :data:`FALLBACK_ANNOTATION`.
    annotated: bool


def hot_path_hooks(
    model: ProjectModel, contract: ParityContract
) -> List[Hook]:
    """Every observability hook the twinned Python methods fire.

    A hook is an attribute chain that passes *through* one of the
    contract's hook roots (``trace``/``metrics``) -- the access that
    actually touches tracer or metrics state, as opposed to fetching the
    tracer object itself.  Deduplicated by (chain, line), source order.
    """
    hooks: List[Hook] = []
    seen = set()
    for dotted_method in contract.twinned_methods:
        resolution = model.resolve_dotted(dotted_method)
        func = resolution.function
        if func is None:
            continue
        module = model.modules.get(func.module)
        if module is None:
            continue
        lines = module.source.text.split("\n")
        for node in module.source.walk(func.node):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _dotted(node)
            if chain is None:
                continue
            segments = chain.split(".")
            if not any(seg in contract.hook_roots for seg in segments[:-1]):
                continue
            key = (chain, node.lineno)
            if key in seen:
                continue
            seen.add(key)
            line_text = (
                lines[node.lineno - 1] if node.lineno - 1 < len(lines) else ""
            )
            hooks.append(
                Hook(
                    chain=chain,
                    attr=segments[-1],
                    loc=Loc(func.relpath, node.lineno, node.col_offset),
                    annotated=FALLBACK_ANNOTATION in line_text,
                )
            )
    return hooks
