"""Every gate and entropy site is reported by exactly one rule.

``fixtures/fold_sites.json`` records each site that the gate rules
(OBS001, OBS002, EFF001) and the entropy rules (DET001, EFF002)
reported when OBS002 and EFF002 still existed; several sites were then
reported twice.  Next to each site it records the rule that reports it
now.  The corpus is the OBS/DET fire fixtures, the EFF001/EFF002 deep
trees, and every case of the tracer-gate deletion sweep in
``test_effects.py``.

A site is keyed by its path, its enclosing function's qualified name
(empty at module level), its line offset from that function's ``def``
(the absolute line at module level) and its column.  The gate cases
analyze live simulator files, so an edit elsewhere in ``cpu.py`` or
``service.py`` moves a gate's absolute line but not its key.

Each recorded site must still be reported, and by exactly one of the
rules that survive.  Regenerate the fixture only when the corpus
itself changes::

    PYTHONPATH=src python tests/analysis/test_fold_sites.py
"""

from __future__ import annotations

import ast
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

if __package__ in (None, ""):  # run as a script: import the test siblings
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    __package__ = "analysis"

from repro.analysis import all_rules, analyze_sources
from repro.analysis.source import SourceFile

from .conftest import FIXTURES, load_deep_sources
from .test_effects import REPO, _GateKiller, _gate_cases, _simulator_sources

FIXTURE = FIXTURES / "fold_sites.json"

#: Every rule that ever reported a gate or entropy site.
FOLD_RULES = ("OBS001", "OBS002", "EFF001", "DET001", "EFF002")

SIM = "src/repro/simulator/fixture.py"
RUNTIME = "src/repro/runtime/fixture.py"

_FILE_CASES = {
    "obs001_fires@simulator": ("obs001_fires.py", SIM),
    "obs002_fires@runtime": ("obs002_fires.py", RUNTIME),
    "det001_fires@runtime": ("det001_fires.py", RUNTIME),
    "det001_fires@simulator": ("det001_fires.py", SIM),
}


def _file_source(name, relpath):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return SourceFile.from_text(text, relpath=relpath)


def _gate_sources(relpath, index):
    text = (REPO / relpath).read_text(encoding="utf-8")
    tree = _GateKiller(index).visit(ast.parse(text))
    patched = ast.unparse(ast.fix_missing_locations(tree))
    return _simulator_sources(relpath, patched)


def case_sources():
    """Case name -> a thunk building that case's sources."""
    cases = {
        name: (lambda spec=spec: [_file_source(*spec)])
        for name, spec in _FILE_CASES.items()
    }
    for tree in ("eff001_fires", "eff002_fires"):
        cases[f"deep/{tree}"] = lambda tree=tree: load_deep_sources(tree)
    for relpath, index in _gate_cases():
        cases[f"gate/{relpath}-{index}"] = (
            lambda relpath=relpath, index=index: _gate_sources(relpath, index)
        )
    return cases


def _functions(tree, prefix=""):
    """``(first line, last line, qualified name)`` of every function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield node.lineno, node.end_lineno, name
            yield from _functions(node, name + ".")


def site_key(functions, path, line, column):
    """``(path, function, offset, column)`` of one reported line.

    The innermost function whose span holds *line* encloses it.
    """
    enclosing = [
        (start, name) for start, end, name in functions if start <= line <= end
    ]
    if not enclosing:
        return path, "", line, column
    start, name = max(enclosing)
    return path, name, line - start, column


def reported_sites(sources):
    """``(path, function, offset, column)`` -> the fold rules that
    report it."""
    registered = {rule.name for rule in all_rules()}
    rules = [name for name in FOLD_RULES if name in registered]
    result = analyze_sources(sources, deep=True, rules=rules)
    assert not result.internal
    functions = {
        source.relpath: tuple(_functions(source.tree)) for source in sources
    }
    sites = defaultdict(set)
    for finding in result.findings:
        key = site_key(
            functions[finding.path], finding.path, finding.line, finding.column
        )
        sites[key].add(finding.rule)
    return sites


def _load():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_whole_corpus():
    pinned = _load()
    assert set(pinned) == set(case_sources())
    assert sum(name.startswith("gate/") for name in pinned) >= 10
    assert all(pinned[name] for name in pinned)


@pytest.mark.parametrize("case", sorted(case_sources()))
def test_each_site_is_reported_by_exactly_one_rule(case):
    sites = reported_sites(case_sources()[case]())
    for entry in _load()[case]:
        site = (
            entry["path"], entry["function"], entry["offset"], entry["column"]
        )
        rules = sorted(sites.get(site, ()))
        assert len(rules) == 1, f"{case}: {site} reported by {rules}"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    pinned = {}
    for name, build in sorted(case_sources().items()):
        pinned[name] = [
            {"path": path, "function": function, "offset": offset,
             "column": column, "rules": sorted(rules)}
            for (path, function, offset, column), rules in sorted(
                reported_sites(build()).items()
            )
        ]
    FIXTURE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} cases to {FIXTURE}")
