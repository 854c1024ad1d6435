"""Git-aware incremental linting: ``repro lint --changed``.

Asks git which ``.py`` files differ from a base revision (uncommitted
edits and untracked files included) and returns them as project-relative
POSIX paths.  The CLI narrows *per-file* findings to that set; the deep
whole-program passes still see everything -- an interprocedural taint
path is real no matter which side of the diff each hop lives on -- but
their findings are only new work when the diff could have created them,
so they stay whole-program by design (see ``analyze_sources``'s
``restrict`` handling).

Everything here shells out to ``git``; a missing binary or a non-repo
root raises :class:`~repro.errors.ParameterError` with git's own words
rather than guessing.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import List

from ..errors import ParameterError

#: Base revision compared against when ``--changed`` is given bare.
DEFAULT_BASE = "HEAD"


def _git_output(args: List[str], root: Path) -> str:
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
    except FileNotFoundError as exc:
        raise ParameterError("--changed requires git on PATH") from exc
    if completed.returncode != 0:
        detail = completed.stderr.strip() or completed.stdout.strip()
        raise ParameterError(
            f"git {' '.join(args)} failed: {detail or 'unknown error'}"
        )
    return completed.stdout


def _name_status_paths(root: Path, base: str) -> List[str]:
    """Surviving paths from ``git diff --name-status -z -M``.

    NUL-delimited output sidesteps git's path quoting, and explicit
    status parsing makes deletions and renames first-class: a deleted
    file contributes nothing (there is nothing left to lint), a rename
    contributes its *new* name only -- the old name no longer exists
    and must not poison the restriction set.
    """
    fields = _git_output(
        ["diff", "--name-status", "-z", "-M", base], root
    ).split("\0")
    paths: List[str] = []
    index = 0
    while index < len(fields):
        status = fields[index]
        if not status:
            index += 1
            continue
        if status[0] in ("R", "C"):
            # R<score>\0<old>\0<new> -- keep the postimage.
            if index + 2 < len(fields):
                paths.append(fields[index + 2])
            index += 3
        elif status[0] == "D":
            index += 2
        else:
            if index + 1 < len(fields):
                paths.append(fields[index + 1])
            index += 2
    return paths


def changed_python_files(root: Path, base: str = DEFAULT_BASE) -> List[str]:
    """Project-relative ``.py`` paths differing from *base*, sorted.

    Includes files with staged or unstaged modifications relative to
    *base* and untracked files.  Deletions are dropped and renames
    resolve to their new name (see :func:`_name_status_paths`).
    """
    changed = set(_name_status_paths(root, base))
    changed.update(
        entry
        for entry in _git_output(
            ["ls-files", "--others", "--exclude-standard", "-z"], root
        ).split("\0")
        if entry
    )
    return sorted(
        path
        for path in changed
        if path.endswith(".py") and (root / path).is_file()
    )
