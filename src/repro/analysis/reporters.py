"""Render analysis results for humans (text) and tools (JSON).

The text reporter prints one ``path:line:column`` finding per block --
the clickable form terminals and editors recognize -- followed by the
fix hint indented beneath it.  Whole-program findings additionally carry
a *trace*: the source->sink call chain (or unit-inference trail) that
justifies the finding, printed one hop per line.

Internal analyzer errors (a rule crashed) are rendered in their own
block after the findings and counted separately in the summary line, so
"the analyzer is broken" never reads as "the program is broken".
"""

from __future__ import annotations

import json
from typing import Dict, List

from .engine import AnalysisResult
from .findings import Finding


def render_text(result: AnalysisResult, *, verbose: bool = False) -> str:
    """Human-readable report; empty-ish summary line when clean."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location}: {finding.rule} "
            f"[{finding.severity.value}] {finding.message}"
        )
        for hop in finding.trace:
            lines.append(f"    | {hop}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    for error in result.internal:
        lines.append(
            f"{error.location}: {error.rule} "
            f"[{error.severity.value}] {error.message}"
        )
        if error.hint:
            lines.append(f"    hint: {error.hint}")
    summary = (
        f"{len(result.findings)} finding"
        f"{'' if len(result.findings) == 1 else 's'} "
        f"in {result.files} files"
    )
    extras = []
    if result.suppressed:
        extras.append(f"{len(result.suppressed)} suppressed")
    if result.internal:
        extras.append(
            f"{len(result.internal)} internal analyzer error"
            f"{'' if len(result.internal) == 1 else 's'}"
        )
    if extras:
        summary += f" ({', '.join(extras)})"
    lines.append(summary)
    if verbose:
        lines.append(f"rules: {', '.join(result.rules)}")
    return "\n".join(lines)


def _finding_rows(findings: List[Finding]) -> List[Dict[str, object]]:
    return [finding.to_dict() for finding in findings]


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report (stable key order)."""
    payload = {
        "clean": result.clean,
        "files": result.files,
        "rules": list(result.rules),
        "findings": _finding_rows(result.findings),
        "suppressed": _finding_rows(result.suppressed),
        "internal": _finding_rows(result.internal),
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
