"""Rule registry.

Rules are classes with ``name``/``severity``/``description`` metadata
and a ``check`` method; registering is a decorator so a rule module is
self-contained.  File rules receive one :class:`~repro.analysis.source
.SourceFile` at a time; project rules (``project_rule = True``) run once
over the whole file set -- for cross-file invariants like package export
consistency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Type

from ..errors import ParameterError
from .findings import Severity


class Rule:
    """Base class for analysis rules.

    Subclasses define:

    * ``name`` -- stable identifier (``DET001`` ...), used in reports,
      suppressions, and ``--rules`` selection;
    * ``severity`` -- default :class:`Severity` of findings;
    * ``description`` -- one-line summary for ``--list-rules``;
    * ``invariant`` -- what breaks when the rule is violated (docs);
    * ``check(source, context)`` (file rules) or
      ``check_project(context)`` (project rules) yielding findings.
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    invariant: str = ""
    project_rule: bool = False

    #: Deep rules reason over the whole-program model (module graph,
    #: call graph, taint/unit flow).  They are excluded from default
    #: runs and selected by ``--deep`` or by naming them in ``--rules``.
    deep: bool = False

    #: Participates in the on-disk result cache key: bump when the
    #: rule's semantics change so stale cached findings are invalidated
    #: even though the analyzed sources did not move.
    cache_version: str = "1"

    def check(self, source, context) -> Iterable:  # pragma: no cover - abstract
        return ()

    def check_project(self, context) -> Iterable:  # pragma: no cover - abstract
        return ()


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register the rule by name."""
    if not cls.name:
        raise ParameterError(f"rule class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ParameterError(f"rule {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by name."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def resolve_rules(
    names: Optional[Sequence[str]] = None, *, deep: bool = False
) -> List[Rule]:
    """Rules selected by *names* (all of them when ``None``).

    With no explicit names, deep rules are included only when *deep* is
    true; explicitly-named rules are always honored.
    """
    _ensure_loaded()
    if not names:
        return [rule for rule in all_rules() if deep or not rule.deep]
    selected = []
    for raw in names:
        name = raw.strip().upper()
        if not name:
            continue
        if name not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise ParameterError(f"unknown rule {name!r}; known rules: {known}")
        selected.append(_REGISTRY[name])
    return sorted(selected, key=lambda rule: rule.name)


def _ensure_loaded() -> None:
    """Import the built-in rule pack (idempotent)."""
    from . import rules  # noqa: F401  -- registration side effect
