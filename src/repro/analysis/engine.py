"""The analysis driver: collect files, run rules, apply suppressions.

:func:`analyze_paths` is the single entry point the CLI and the tests
share.  It walks the requested paths, reads every ``.py`` file (each is
parsed at most once, on first use), hands the
:class:`~repro.analysis.source.SourceFile`s to each selected rule (file
rules per file, project rules once over the whole set), and drops
findings silenced by ``# repro: noqa`` pragmas.

Two whole-program extensions ride on the same driver:

* ``deep=True`` additionally selects the deep rules (DET003, UNIT002,
  API002, DEEP001), which build the :class:`~repro.analysis.project
  .ProjectModel` and call graph lazily through the context;
* ``restrict`` (the ``--changed`` incremental mode) limits *non-deep*
  findings to a set of relpaths while deep rules keep seeing the whole
  program -- interprocedural properties do not respect diff boundaries.

A rule that crashes never takes the run down: the exception is captured
as an *internal analyzer error* on :attr:`AnalysisResult.internal`,
reported separately from findings so a broken analyzer is never
mistaken for a broken program (exit code 2, not 1).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
from pathlib import Path
from typing import (
    Collection,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ParameterError
from .findings import Finding, Severity
from .registry import Rule, resolve_rules
from .source import SourceFile

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".venv",
    "venv",
    "node_modules",
    "build",
    "dist",
}


def collect_files(
    paths: Sequence[Union[str, Path]], root: Path
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen = set()
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(
                    part in _SKIP_DIRS or part.endswith(".egg-info")
                    for part in p.parts
                )
            )
        elif path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            raise ParameterError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def _relpath(path: Path, resolved_root: Path) -> str:
    """*path* relative to the already-resolved project root."""
    try:
        return path.resolve().relative_to(resolved_root).as_posix()
    except ValueError:
        return path.as_posix()


def load_sources(
    paths: Sequence[Union[str, Path]], root: Union[str, Path] = "."
) -> List[SourceFile]:
    """Read every ``.py`` file under *paths* into sources with
    project-relative names.  Files are parsed lazily, on the first read
    of their tree."""
    root_path = Path(root)
    resolved_root = root_path.resolve()
    return [
        SourceFile.load(path, _relpath(path, resolved_root))
        for path in collect_files(paths, root_path)
    ]


@dataclasses.dataclass
class AnalysisContext:
    """Everything a rule can see: the project root and all sources."""

    root: Path
    sources: Tuple[SourceFile, ...]

    #: Consumer-only sources (the program's users: examples, benchmarks,
    #: bench): they feed the project model's usage index so dead-export
    #: detection knows its audience, but no rule reports findings against
    #: them and the call-graph/effect/unit passes do not analyze them.
    reference_sources: Tuple[SourceFile, ...] = ()

    #: On-disk :class:`~repro.analysis.dataflow.SummaryCache` shared by
    #: the dataflow analyses; ``None`` disables persistent caching.
    cache: Optional[object] = None

    _project_model: Optional[object] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _call_graph: Optional[object] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _summaries: dict = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    def project_model(self):
        """The whole-program model, built once per run on demand."""
        if self._project_model is None:
            from .project import ProjectModel

            self._project_model = ProjectModel.build(
                self.sources, self.reference_sources
            )
        return self._project_model

    def call_graph(self):
        """The call graph over :meth:`project_model`, built on demand."""
        if self._call_graph is None:
            from .graph import build_call_graph

            self._call_graph = build_call_graph(self.project_model())
        return self._call_graph

    def summaries(self, analysis):
        """Fixpoint summaries for one dataflow *analysis*, memoized per
        run and (when a cache is attached) persisted across runs."""
        if analysis.name not in self._summaries:
            from .dataflow import compute_summaries

            self._summaries[analysis.name] = compute_summaries(
                self.project_model(),
                self.call_graph(),
                analysis,
                cache=self.cache,
            )
        return self._summaries[analysis.name]


@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one :func:`analyze_paths` run."""

    #: Fresh findings (not suppressed), sorted by location.
    findings: List[Finding]

    #: Findings silenced by ``# repro: noqa`` pragmas.
    suppressed: List[Finding]

    #: Number of files analyzed.
    files: int

    #: Rules that ran.
    rules: Tuple[str, ...]

    #: Internal analyzer errors: a rule crashed.  These are *not*
    #: findings about the program -- they mean the report above may be
    #: incomplete and must fail the run distinguishably (exit code 2).
    internal: List[Finding] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def ok(self) -> bool:
        """Clean *and* every selected rule actually completed."""
        return self.clean and not self.internal

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 internal analyzer error."""
        if self.internal:
            return 2
        return 0 if self.clean else 1


def _decode_findings(payload: object) -> List[Finding]:
    """A cached findings slot back into findings (raises on a malformed
    payload, which the cache turns into a miss)."""
    return [Finding.from_dict(item) for item in payload]


def _run_rule(
    rule: Rule,
    invoke,
    raw: List[Finding],
    internal: List[Finding],
    path: str,
) -> None:
    """Run one rule invocation, converting a crash into an internal
    analyzer error instead of a traceback."""
    try:
        raw.extend(invoke())
    except Exception as exc:  # noqa: BLE001 -- the whole point
        internal.append(
            Finding(
                rule="INTERNAL",
                path=path,
                line=1,
                column=0,
                message=(
                    f"rule {rule.name} crashed: "
                    f"{exc.__class__.__name__}: {exc}"
                ),
                hint=(
                    "this is an analyzer bug, not a program finding; "
                    "the report may be incomplete"
                ),
                severity=Severity.ERROR,
            )
        )


def _collector_paused(analyze):
    """Run *analyze* with the cyclic garbage collector paused.

    A deep run keeps ~430k AST and model objects alive until it ends,
    and every generation-2 pass re-scans all of them for nothing: the
    analysis heap is acyclic, so reference counting frees it once the
    result is returned.  The collector is re-enabled only if it was on,
    so nested calls and callers that paused it themselves keep their
    state.
    """

    @functools.wraps(analyze)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return analyze(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def analyze_sources(
    sources: Iterable[SourceFile],
    *,
    root: Union[str, Path] = ".",
    rules: Optional[Sequence[str]] = None,
    deep: bool = False,
    restrict: Optional[Collection[str]] = None,
    reference_sources: Iterable[SourceFile] = (),
    cache_dir: Optional[Union[str, Path]] = None,
) -> AnalysisResult:
    """Run the selected rules over pre-built sources (test entry point).

    *cache_dir* enables the on-disk analysis cache: per-file findings
    (``PARSE`` included) and project-rule findings (and the dataflow
    summaries behind them) are keyed by a content hash of every
    analyzed source plus the selected rules' ``cache_version``s, so a
    warm rerun over unchanged sources replays findings without parsing
    a file or building the project model at all.
    """
    selected = resolve_rules(rules, deep=deep)
    cache = None
    if cache_dir is not None:
        from .dataflow import SummaryCache

        cache = SummaryCache(Path(cache_dir))
    context = AnalysisContext(
        root=Path(root),
        sources=tuple(sources),
        reference_sources=tuple(reference_sources),
        cache=cache,
    )
    restrict_set = set(restrict) if restrict is not None else None
    deep_rule_names = {rule.name for rule in selected if rule.deep}

    file_rules = [rule for rule in selected if not rule.project_rule]
    file_key = None
    cached_files = None
    if cache is not None and file_rules:
        from .dataflow import SummaryCache

        # File rules and PARSE findings are pure functions of their
        # source text, so one slot over the whole source set replays
        # every per-file finding on a warm run without parsing a file or
        # invoking a single rule.
        file_key = SummaryCache.digest(
            ["file-findings"]
            + sorted(
                f"{rule.name}={rule.cache_version}" for rule in file_rules
            )
            + SummaryCache.file_digest_parts(context.sources)
        )
        cached_files = cache.load("file-findings", file_key, _decode_findings)

    raw: List[Finding] = []
    internal: List[Finding] = []
    if cached_files is not None:
        raw.extend(cached_files)
    else:
        file_raw: List[Finding] = []
        for source in context.sources:
            if source.parse_error is not None:
                file_raw.append(
                    Finding(
                        rule="PARSE",
                        path=source.relpath,
                        line=1,
                        column=0,
                        message=f"file does not parse: {source.parse_error}",
                        hint="fix the syntax error; unparsable files are "
                        "invisible to every other rule",
                    )
                )
                continue
            for rule in file_rules:
                _run_rule(
                    rule,
                    lambda rule=rule, source=source: list(
                        rule.check(source, context)
                    ),
                    file_raw,
                    internal,
                    source.relpath,
                )
        raw.extend(file_raw)
        if cache is not None and file_key is not None and not internal:
            cache.store(
                "file-findings",
                file_key,
                [
                    finding.to_dict()
                    for finding in sorted(file_raw, key=Finding.sort_key)
                ],
            )
    project_rules = [rule for rule in selected if rule.project_rule]
    project_key = None
    cached_project = None
    if cache is not None and project_rules:
        from .dataflow import SummaryCache

        project_key = SummaryCache.digest(
            ["project-findings"]
            + sorted(
                f"{rule.name}={rule.cache_version}" for rule in project_rules
            )
            + SummaryCache.file_digest_parts(context.sources)
            + SummaryCache.file_digest_parts(context.reference_sources)
        )
        cached_project = cache.load(
            "project-findings", project_key, _decode_findings
        )
    if cached_project is not None:
        # Warm path: replay the stored findings; the project model and
        # call graph are never built.
        raw.extend(cached_project)
    else:
        project_raw: List[Finding] = []
        crashes_before = len(internal)
        for rule in project_rules:
            _run_rule(
                rule,
                lambda rule=rule: list(rule.check_project(context)),
                project_raw,
                internal,
                "<project>",
            )
        raw.extend(project_raw)
        if (
            cache is not None
            and project_key is not None
            and len(internal) == crashes_before
        ):
            # A crashed rule means an incomplete report; never cache it.
            cache.store(
                "project-findings",
                project_key,
                [
                    finding.to_dict()
                    for finding in sorted(project_raw, key=Finding.sort_key)
                ],
            )

    if restrict_set is not None:
        # Incremental mode: per-file and project findings narrow to the
        # changed files; deep findings stay whole-program (a taint path
        # is real no matter which file the diff touched).
        raw = [
            finding
            for finding in raw
            if finding.path in restrict_set
            or finding.rule in deep_rule_names
        ]

    raw.sort(key=Finding.sort_key)

    by_path = {source.relpath: source for source in context.sources}
    visible: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        source = by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.rule, finding.line):
            suppressed.append(finding)
        else:
            visible.append(finding)

    return AnalysisResult(
        findings=visible,
        suppressed=suppressed,
        files=len(context.sources),
        rules=tuple(rule.name for rule in selected),
        internal=internal,
    )


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    *,
    root: Union[str, Path] = ".",
    rules: Optional[Sequence[str]] = None,
    deep: bool = False,
    restrict: Optional[Collection[str]] = None,
    reference_paths: Sequence[Union[str, Path]] = (),
    cache_dir: Optional[Union[str, Path]] = None,
) -> AnalysisResult:
    """Analyze every ``.py`` file under *paths* (the CLI entry point)."""
    root_path = Path(root)
    sources = load_sources(paths, root_path)
    reference_sources: List[SourceFile] = []
    if reference_paths:
        primary = {source.relpath for source in sources}
        reference_sources = [
            source
            for source in load_sources(reference_paths, root_path)
            if source.relpath not in primary
        ]
    return analyze_sources(
        sources,
        root=root_path,
        rules=rules,
        deep=deep,
        restrict=restrict,
        reference_sources=reference_sources,
        cache_dir=cache_dir,
    )
