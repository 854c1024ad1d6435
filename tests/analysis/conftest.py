"""Shared helpers for the analysis-package tests.

Rule tests run real fixture files through the real driver, but from
in-memory :class:`SourceFile` objects with *virtual* relative paths --
the path is what scopes a rule (``simulator/`` vs ``profiling/``), so
the same fixture can prove both the firing and the out-of-scope case.
"""

from pathlib import Path

import pytest

from repro.analysis import SourceFile, analyze_sources

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixture_source():
    def _load(name: str, relpath: str) -> SourceFile:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        return SourceFile.from_text(text, relpath=relpath)

    return _load


@pytest.fixture
def run_fixture(fixture_source):
    def _run(name: str, relpath: str, rules=None):
        return analyze_sources([fixture_source(name, relpath)], rules=rules)

    return _run


def load_deep_sources(name: str):
    """All sources of one ``fixtures/deep/<name>/`` tree, with relpaths
    relative to the tree root -- a miniature program the whole-program
    passes can model (``src/repro/...`` layouts resolve to ``repro.*``
    module names exactly like the real repository)."""
    rootdir = FIXTURES / "deep" / name
    sources = []
    for path in sorted(rootdir.rglob("*.py")):
        rel = path.relative_to(rootdir).as_posix()
        text = path.read_text(encoding="utf-8")
        sources.append(SourceFile.from_text(text, relpath=rel))
    return sources


@pytest.fixture
def deep_sources():
    return load_deep_sources


@pytest.fixture
def run_deep(deep_sources):
    def _run(name: str, rules=None):
        return analyze_sources(deep_sources(name), rules=rules, deep=True)

    return _run
