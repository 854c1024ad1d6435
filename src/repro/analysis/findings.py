"""Finding and severity types shared by every analysis rule.

A :class:`Finding` is one rule violation pinned to a ``path:line:column``
location, carrying the human-readable message and a *fix hint* -- the
concrete edit that restores the invariant the rule protects.  Findings
are plain frozen data so reporters and tests can sort, compare, and
serialize them without touching the rules that produced them.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Tuple


class Severity(enum.Enum):
    """How bad a violated invariant is.

    ``ERROR`` findings break a correctness contract (determinism, cache
    replay, cycle accounting); ``WARNING`` findings are hygiene hazards
    that tend to become errors under refactoring; ``INFO`` findings are
    advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    #: Rule identifier, e.g. ``"DET001"``.
    rule: str

    #: Project-relative POSIX path of the offending file.
    path: str

    #: 1-based line of the offending node.
    line: int

    #: 0-based column of the offending node.
    column: int

    #: What is wrong, in one sentence.
    message: str

    #: How to fix it (may be empty).
    hint: str = ""

    severity: Severity = Severity.ERROR

    #: Supporting evidence chain for whole-program findings: one line
    #: per hop of a source->sink path or inference trail.  Empty for
    #: per-file findings.
    trace: Tuple[str, ...] = ()

    @property
    def location(self) -> str:
        """Clickable ``path:line:column`` form."""
        return f"{self.path}:{self.line}:{self.column}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
        }
        if self.trace:
            payload["trace"] = list(self.trace)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        """Inverse of :meth:`to_dict` (the result-cache round trip)."""
        return cls(
            rule=payload["rule"],
            path=payload["path"],
            line=payload["line"],
            column=payload["column"],
            message=payload["message"],
            hint=payload.get("hint", ""),
            severity=Severity(payload.get("severity", "error")),
            trace=tuple(payload.get("trace", ())),
        )
