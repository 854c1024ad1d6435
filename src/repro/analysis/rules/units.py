"""UNIT001: dimensional discipline in cycle accounting.

The Accelerometer model works in *host cycles per fixed time unit*
(:mod:`repro.units`); the validation bound vs. the paper's Table 6
(<= 3.7 percent) is only meaningful while every quantity entering
equations 1-8 carries the unit its name claims.  This rule catches the
two syntactic forms unit rot takes: adding/subtracting names whose
suffixes declare different units, and unexplained numeric constants
appearing inside the model equations.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import Rule, register_rule
from ..unitflow import name_unit

#: Files holding the model equations proper, where bare numeric
#: constants are banned from arithmetic (each constant in an equation is
#: a parameter with a name in Table 5, or a named calibration constant).
_EQUATION_FILES = ("equations.py", "model.py", "projections.py")

#: Constants that are structure, not data: identity/doubling/halving and
#: ratio<->percent conversion.
_ALLOWED_CONSTANTS = {0, 1, 2, -1, 0.5, 100, 1000}


@register_rule
class UnitDiscipline(Rule):
    """UNIT001: no cross-unit addition and no magic constants in
    equations."""

    name = "UNIT001"
    severity = Severity.ERROR
    description = (
        "no adding cycles to seconds/Hz/bytes; no bare magic constants "
        "inside model equations"
    )
    invariant = (
        "cycle accounting correctness: the <= 3.7% validation bound "
        "depends on every term in equations 1-8 being a cycle count; a "
        "seconds-typed or unexplained constant slipping into a sum "
        "corrupts speedup numbers without failing any type check"
    )

    def check(self, source, context) -> Iterator[Finding]:
        yield from self._check_unit_mixing(source)
        if source.name in _EQUATION_FILES and source.in_scope(
            "core", "application", "model"
        ):
            yield from self._check_magic_constants(source)

    def _check_unit_mixing(self, source) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = name_unit(node.left)
            right = name_unit(node.right)
            if left is None or right is None or left == right:
                continue
            operator = "+" if isinstance(node.op, ast.Add) else "-"
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"mixing units: {left} {operator} {right} "
                    "(operand names declare different units)"
                ),
                hint=(
                    "convert explicitly via repro.units "
                    "(cycles_for_duration, ns_to_cycles, ...) before "
                    "adding or subtracting"
                ),
                severity=self.severity,
            )

    def _check_magic_constants(self, source) -> Iterator[Finding]:
        for func in source.walk():
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in source.walk(func):
                if not isinstance(node, ast.BinOp):
                    continue
                for operand in (node.left, node.right):
                    constant = operand
                    if isinstance(constant, ast.UnaryOp) and isinstance(
                        constant.op, (ast.USub, ast.UAdd)
                    ):
                        constant = constant.operand
                    if not isinstance(constant, ast.Constant):
                        continue
                    value = constant.value
                    if not isinstance(value, (int, float)) or isinstance(
                        value, bool
                    ):
                        continue
                    if float(value) in {float(a) for a in _ALLOWED_CONSTANTS}:
                        continue
                    yield Finding(
                        rule=self.name,
                        path=source.relpath,
                        line=operand.lineno,
                        column=operand.col_offset,
                        message=(
                            f"bare constant {value!r} inside a model "
                            f"equation ({func.name})"
                        ),
                        hint=(
                            "bind it to a named module-level constant "
                            "stating its unit and provenance (paper "
                            "table/section)"
                        ),
                        severity=self.severity,
                    )
