"""The ``repro lint`` command implementation.

Kept separate from :mod:`repro.cli` so the analysis package is usable as
a library (tests drive :func:`run_lint` directly) and the top-level CLI
module stays a thin dispatcher.

Exit codes form a contract CI keys off:

* ``0`` -- clean (no findings, every rule completed);
* ``1`` -- findings: the *program* violates an invariant;
* ``2`` -- internal analyzer error: a rule crashed, the report may be
  incomplete, and fixing the analyzer (not the program) is the action.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .engine import analyze_paths, load_sources
from .incremental import DEFAULT_BASE, changed_python_files
from .registry import all_rules
from .reporters import render_json, render_text
from .sarif import render_sarif

#: What ``repro lint`` covers when no paths are given: the package
#: sources and the repository scripts (which must obey the same
#: invariants wherever the path-scoped rules apply).
DEFAULT_LINT_PATHS = ("src/repro", "scripts")

#: The program's users outside the analyzed tree, fed to the deep pass as
#: reference-only sources: their imports count as usage for dead-export
#: detection, but they are not part of the analyzed program.  Tests are
#: deliberately not users: an export only a test imports is dead.
REFERENCE_PATHS = ("examples", "benchmarks", "bench")

#: Default on-disk cache location for deep runs (content-hash keyed, so
#: stale entries are misses, never wrong answers).
DEFAULT_CACHE_DIR = ".repro-cache/analysis"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=[],
        help=f"files/directories to analyze (default: "
        f"{' '.join(DEFAULT_LINT_PATHS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--rules", default="",
        help="comma-separated rule subset (default: all registered rules)",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program rules (call-graph taint, unit "
        "flow, dead exports); slower, sees across modules",
    )
    parser.add_argument(
        "--changed", nargs="?", const=DEFAULT_BASE, default=None,
        metavar="BASE",
        help="only report per-file findings for files changed vs. BASE "
        f"(default {DEFAULT_BASE}); deep findings stay whole-program",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="additionally write a SARIF 2.1.0 report to PATH "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--export-graph", default=None, metavar="DIR",
        help="write the whole-program call graph as callgraph.json and "
        "callgraph.dot under DIR (deterministic output)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory for on-disk analysis caches (summaries and "
        f"project findings; default: {DEFAULT_CACHE_DIR} under the "
        "project root for --deep runs)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk analysis cache for this run",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--root", default=".",
        help="project root paths are resolved against (default: cwd)",
    )


def _reference_paths(root: Path) -> List[str]:
    return [path for path in REFERENCE_PATHS if (root / path).is_dir()]


def _export_graph(paths: List[str], root: Path, out_dir: Path) -> List[Path]:
    """Write callgraph.json/.dot for the analyzed program; returns the
    files written."""
    from .graph import build_call_graph
    from .project import ProjectModel

    model = ProjectModel.build(load_sources(paths, root), ())
    graph = build_call_graph(model)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in (
        ("callgraph.json", graph.to_json()),
        ("callgraph.dot", graph.to_dot()),
    ):
        target = out_dir / name
        target.write_text(text, encoding="utf-8")
        written.append(target)
    return written


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            scope = "project" if rule.project_rule else "file"
            tags = [rule.severity.value, scope]
            if rule.deep:
                tags.append("deep")
            print(f"{rule.name}  [{', '.join(tags)}]  {rule.description}")
        return 0

    root = Path(args.root)
    paths: List[str] = list(args.paths) or [
        path for path in DEFAULT_LINT_PATHS if (root / path).exists()
    ]
    rule_names = [name for name in args.rules.split(",") if name.strip()]

    restrict = None
    if args.changed is not None:
        restrict = changed_python_files(root, args.changed)

    cache_dir: Optional[Path] = None
    if not args.no_cache:
        if args.cache_dir is not None:
            cache_dir = Path(args.cache_dir)
        elif args.deep:
            cache_dir = root / DEFAULT_CACHE_DIR

    result = analyze_paths(
        paths,
        root=root,
        rules=rule_names or None,
        deep=args.deep,
        restrict=restrict,
        reference_paths=_reference_paths(root) if args.deep else (),
        cache_dir=cache_dir,
    )

    if args.export_graph:
        for target in _export_graph(paths, root, Path(args.export_graph)):
            print(f"wrote {target}")

    if args.sarif:
        sarif_text = render_sarif(result)
        if args.sarif == "-":
            print(sarif_text)
        else:
            Path(args.sarif).write_text(sarif_text + "\n", encoding="utf-8")

    if args.json:
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code
