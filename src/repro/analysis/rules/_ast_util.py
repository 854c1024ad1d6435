"""Small AST helpers shared by the rule pack."""

from __future__ import annotations

import ast
from typing import Dict, Optional

from ..source import SourceFile


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(source: SourceFile) -> Dict[str, str]:
    """Map local names bound by imports to their full dotted targets.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time`` -> ``{"time": "time.time"}``;
    ``from numpy import random as nr`` -> ``{"nr": "numpy.random"}``.
    Relative imports are prefixed with ``.`` per level so callers can
    recognize in-package targets.
    """
    table: Dict[str, str] = {}
    for node in source.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    table[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


def resolve_target(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain through the import table.

    ``np.random.randint`` with ``{"np": "numpy"}`` resolves to
    ``numpy.random.randint``.  Returns ``None`` for targets whose root is
    not an imported name (locals, attributes of self, ...).
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    target = imports.get(root)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


def decorator_name(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Resolved dotted name of a decorator (unwrapping calls)."""
    if isinstance(node, ast.Call):
        node = node.func
    resolved = resolve_target(node, imports)
    if resolved is not None:
        return resolved
    return dotted_name(node)


def keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_constant_true(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is True
