"""Parsed source files and ``# repro: noqa`` suppression pragmas.

A :class:`SourceFile` bundles everything a rule needs about one file:
its project-relative path (rules scope themselves by path), the raw
text, the parsed ``ast`` tree, and the per-line suppression table.

Suppressions use a repo-specific pragma so they never collide with
flake8/ruff ``# noqa`` comments::

    risky_line()  # repro: noqa            -- suppress every rule here
    risky_line()  # repro: noqa[DET001]    -- suppress only DET001
    risky_line()  # repro: noqa[DET001,PERF001]
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Matches ``# repro: noqa`` with an optional ``[RULE,...]`` selector.
_PRAGMA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?", re.IGNORECASE
)

#: Sentinel rule-set meaning "suppress everything on this line".
SUPPRESS_ALL: FrozenSet[str] = frozenset({"*"})


def parse_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule names suppressed there."""
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = SUPPRESS_ALL
        else:
            table[lineno] = frozenset(
                name.strip().upper() for name in rules.split(",") if name.strip()
            )
    return table


def walk_nodes(node: ast.AST) -> List[ast.AST]:
    """The nodes ``ast.walk`` yields, as a list in the same breadth-first
    order, built by one loop over a growing list instead of a generator
    and two helper generators per node.  An optional field a node lacks
    contributes nothing, exactly as in ``ast.iter_fields``."""
    nodes = [node]
    append = nodes.append
    for current in nodes:
        for name in current._fields:
            value = getattr(current, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        append(item)
            elif isinstance(value, ast.AST):
                append(value)
    return nodes


def _statement_span(statement: ast.stmt) -> Tuple[int, int]:
    """The line range a pragma on *statement* anchors to.

    Simple statements own their full ``lineno..end_lineno`` span, so a
    pragma on the closing line of a multi-line call suppresses the
    finding reported at the statement's first line.  Compound
    statements (``if``/``for``/``def``/...) own only their *header*
    lines -- a pragma inside the body must not silence the whole block.
    """
    body = getattr(statement, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return statement.lineno, max(statement.lineno, body[0].lineno - 1)
    return statement.lineno, statement.end_lineno or statement.lineno


def expand_suppressions(
    tree: Optional[ast.Module], table: Dict[int, FrozenSet[str]]
) -> Dict[int, FrozenSet[str]]:
    """Widen line-anchored pragmas to their enclosing statement span.

    For each pragma line, the *innermost* statement whose span covers
    it claims the pragma, and every line of that span inherits the
    suppressed rule set -- so findings anchored at any line of a
    multi-line statement match a pragma written on any of its lines.
    Files that do not parse keep the exact-line table (there is no
    tree to widen over).
    """
    if tree is None or not table:
        return table
    spans = []
    for node in walk_nodes(tree):
        if isinstance(node, ast.stmt):
            spans.append(_statement_span(node))
    expanded: Dict[int, FrozenSet[str]] = dict(table)
    for pragma_line, rules in table.items():
        covering = [
            span
            for span in spans
            if span[0] <= pragma_line <= span[1]
        ]
        if not covering:
            continue
        # Innermost: the latest-starting (then shortest) covering span.
        start, end = max(covering, key=lambda s: (s[0], -s[1]))
        for line in range(start, end + 1):
            existing = expanded.get(line)
            expanded[line] = rules if existing is None else existing | rules
    return expanded


@dataclasses.dataclass
class SourceFile:
    """One Python file presented to the rules.

    Parsing is lazy: the tree (or the syntax error) is computed on the
    first read of :attr:`tree` / :attr:`parse_error`, and the
    suppression table on the first :meth:`is_suppressed`.  A warm cached
    run that replays every finding therefore never parses at all.
    """

    #: Absolute filesystem path.
    path: Path

    #: Project-relative POSIX path -- what findings report and what
    #: scope checks match against (e.g. ``src/repro/simulator/cpu.py``).
    relpath: str

    text: str

    _walks: Dict[ast.AST, Tuple[ast.AST, ...]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def load(cls, path: Path, relpath: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        return cls.from_text(text, path=path, relpath=relpath)

    @classmethod
    def from_text(
        cls, text: str, *, relpath: str, path: Optional[Path] = None
    ) -> "SourceFile":
        """Build a source file from in-memory text (the fixture path used
        by the rule tests, which simulate arbitrary repo locations)."""
        return cls(
            path=path if path is not None else Path(relpath),
            relpath=relpath,
            text=text,
        )

    # -- lazily derived views ----------------------------------------------

    @functools.cached_property
    def _parsed(self) -> Tuple[Optional[ast.Module], Optional[str]]:
        try:
            return ast.parse(self.text, filename=self.relpath), None
        except SyntaxError as exc:
            return None, f"{exc.msg} (line {exc.lineno})"

    @property
    def tree(self) -> Optional[ast.Module]:
        """The parsed module, or ``None`` when the file does not parse."""
        return self._parsed[0]

    @property
    def parse_error(self) -> Optional[str]:
        """Syntax error message when parsing failed (rules are skipped)."""
        return self._parsed[1]

    @functools.cached_property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        """Line -> suppressed rules.  Only a file that carries a pragma
        is parsed, to widen the table over statement spans."""
        table = parse_suppressions(self.text)
        return expand_suppressions(self.tree, table) if table else table

    def walk(self, node: Optional[ast.AST] = None) -> Tuple[ast.AST, ...]:
        """``tuple(walk_nodes(node))`` -- the nodes of ``ast.walk`` in
        its breadth-first order -- memoized per root for the run.

        *node* is the module tree (the default; the file must parse) or
        one of its def/class nodes: the bodies the module- and
        function-level passes each revisit.  Walks rooted at an
        expression call :func:`walk_nodes` unmemoized.  No analyzer pass
        mutates a tree, so a memoized walk never goes stale.
        """
        if node is None:
            node = self.tree
        walked = self._walks.get(node)
        if walked is None:
            walked = self._walks[node] = tuple(walk_nodes(node))
        return walked

    # -- path scoping ------------------------------------------------------

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.relpath.split("/"))

    def in_scope(self, *directories: str) -> bool:
        """Whether the file lives under any of *directories* (matched as
        path components, so ``"simulator"`` matches
        ``src/repro/simulator/engine.py`` and fixture paths alike)."""
        parts = self.parts[:-1]  # directories only
        return any(directory in parts for directory in directories)

    @property
    def name(self) -> str:
        return self.parts[-1]

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return rules is SUPPRESS_ALL or "*" in rules or rule.upper() in rules
