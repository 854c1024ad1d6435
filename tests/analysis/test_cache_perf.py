"""Lint wall-time floor: the on-disk result cache pays for itself.

A warm ``lint --deep`` rerun over unchanged sources must replay
findings from the summary/result cache -- never parsing a file,
rebuilding the project model or re-running rules -- and come in at
least 3x faster than the cold run that populated it.
"""

import ast
import json
import time
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_sources
from repro.analysis.cli import REFERENCE_PATHS
from repro.analysis.dataflow import (
    CACHE_SCHEMA,
    SummaryCache,
    compute_summaries,
)
from repro.analysis.effects import READS_ENTROPY, EffectAnalysis
from repro.analysis.engine import AnalysisContext, load_sources
from repro.analysis.source import SourceFile, walk_nodes

REPO_ROOT = Path(__file__).resolve().parents[2]


def _deep_lint(cache_dir):
    return analyze_paths(
        ["src/repro", "scripts"],
        root=REPO_ROOT,
        deep=True,
        reference_paths=REFERENCE_PATHS,
        cache_dir=cache_dir,
    )


def _count_parses(monkeypatch):
    """Record every ``ast.parse`` call from here on; returns the log."""
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(kwargs.get("filename", "<unknown>"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return parses


def test_warm_deep_lint_is_at_least_3x_faster(tmp_path):
    cache_dir = tmp_path / "analysis-cache"

    start = time.perf_counter()
    cold = _deep_lint(cache_dir)
    cold_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    warm = _deep_lint(cache_dir)
    warm_elapsed = time.perf_counter() - start

    assert not cold.internal and not warm.internal
    # The cache must be invisible in the results...
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]
    assert [f.to_dict() for f in warm.suppressed] == [
        f.to_dict() for f in cold.suppressed
    ]
    # ...and decisive in the wall time.
    assert warm_elapsed * 3 <= cold_elapsed, (
        f"warm deep lint took {warm_elapsed:.2f}s vs cold "
        f"{cold_elapsed:.2f}s -- the result cache is not carrying "
        "its weight"
    )


def test_warm_deep_lint_parses_nothing(tmp_path, monkeypatch):
    # The deterministic pin behind the wall-time floor: sources parse
    # lazily and PARSE findings ride in the file-findings slot, so a warm
    # hit on every slot never calls ast.parse.
    cache_dir = tmp_path / "analysis-cache"
    cold = _deep_lint(cache_dir)

    parses = _count_parses(monkeypatch)
    warm = _deep_lint(cache_dir)

    assert parses == []
    assert not cold.internal and not warm.internal
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]
    assert [f.to_dict() for f in warm.suppressed] == [
        f.to_dict() for f in cold.suppressed
    ]


def _same_walk(walked, root):
    expected = list(ast.walk(root))
    return len(walked) == len(expected) and all(
        a is b for a, b in zip(walked, expected)
    )


def test_memoized_walk_matches_ast_walk():
    # Every module/def/class walk the analyzer shares must be exactly
    # ast.walk: the same node objects in the same breadth-first order.
    roots = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    checked = 0
    for source in load_sources(["src/repro"], REPO_ROOT):
        for node in ast.walk(source.tree):
            if not isinstance(node, roots):
                continue
            for walked in (source.walk(node), source.walk(node)):
                assert _same_walk(walked, node), source.relpath
            checked += 1
        assert source.walk() is source.walk(source.tree)
    assert checked > 1000
    # walk_nodes itself, on every def/class of the tests and their
    # fixtures (so the syntax the running Python supports, such as match
    # statements and type parameters, is covered) ...
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, roots):
                assert _same_walk(walk_nodes(node), node), path
                checked += 1
    assert checked > 3000
    # ... on expression roots ...
    for expression in (
        "f(a, *rest, key=g(b), **extra)",
        "lambda x, *, y=1: x.attr[y] + (lambda: x)()",
        "[x * y for x in range(3) if x for y in {z: z for z in x}]",
        "{k: (v async for v in k) for k in ks if not k}",
        "a if b else (c := d) < e <= f",
        "f'{x!r:>{width}}' + b'bytes'",
    ):
        root = ast.parse(expression, mode="eval").body
        assert _same_walk(walk_nodes(root), root), expression
    # ... and on hand-built nodes that leave an optional field unset or
    # lack a field outright, which ast.walk skips.
    node = ast.Return()
    assert walk_nodes(node) == [node] == list(ast.walk(node))
    call = ast.Call(
        func=ast.Name(id="f", ctx=ast.Load()), args=[], keywords=[]
    )
    del call.keywords
    assert not hasattr(call, "keywords")
    assert _same_walk(walk_nodes(call), call)
    assert len(walk_nodes(call)) == 3  # the call, its name, the ctx


def test_parse_findings_replay_from_the_file_slot(tmp_path, monkeypatch):
    cache_dir = tmp_path / "analysis-cache"

    def lint():
        broken = SourceFile.from_text(
            "def f(:\n    pass\n", relpath="pkg/runtime/broken.py"
        )
        return analyze_sources([broken], cache_dir=cache_dir)

    cold = lint()
    parses = _count_parses(monkeypatch)
    warm = lint()

    assert [f.rule for f in cold.findings] == ["PARSE"]
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]
    # The warm finding came from the cache: the file was never parsed.
    assert parses == []


def test_slots_from_an_older_schema_are_misses(tmp_path):
    # A v1 file-findings slot carries no PARSE findings; replaying it
    # would silently drop them, so a schema mismatch must read as a miss.
    assert CACHE_SCHEMA != "repro-dataflow-v1"
    (tmp_path / "file-findings.json").write_text(
        json.dumps(
            {"schema": "repro-dataflow-v1", "key": "k", "payload": []}
        ),
        encoding="utf-8",
    )
    assert SummaryCache(tmp_path).load("file-findings", "k") is None


def test_cache_slots_are_written(tmp_path):
    cache_dir = tmp_path / "analysis-cache"
    _deep_lint(cache_dir)
    names = sorted(p.name for p in cache_dir.iterdir())
    assert "file-findings.json" in names
    assert "project-findings.json" in names
    assert any(name.startswith("summaries-") for name in names)


def test_edited_source_invalidates_the_cache(tmp_path):
    # Content-hash keying: any byte change anywhere is a miss, so the
    # cache can go stale silently in neither direction.
    cache_dir = tmp_path / "analysis-cache"
    original = SourceFile.from_text(
        "import time\n"
        "def make_cache_key(x):\n"
        "    return str(x)\n",
        relpath="pkg/runtime/key.py",
    )
    first = analyze_sources(
        [original], deep=True, rules=["DET003"], cache_dir=cache_dir
    )
    assert first.findings == []

    edited = SourceFile.from_text(
        original.text.replace("str(x)", "str(x) + str(time.time())"),
        relpath="pkg/runtime/key.py",
    )
    second = analyze_sources(
        [edited], deep=True, rules=["DET003"], cache_dir=cache_dir
    )
    assert [f.rule for f in second.findings] == ["DET003"]


KEY_SOURCE = SourceFile.from_text(
    "import time\n"
    "def make_cache_key(x):\n"
    "    return str(x) + str(time.time())\n",
    relpath="pkg/runtime/key.py",
)


def _lint_key_source(cache_dir):
    return analyze_sources(
        [KEY_SOURCE], deep=True, rules=["DET001", "DET003"],
        cache_dir=cache_dir,
    )


def test_slots_are_the_c_encoders_bytes_and_round_trip(tmp_path):
    _lint_key_source(tmp_path)
    slots = sorted(tmp_path.glob("*.json"))
    assert len(slots) == 3  # file findings, project findings, effects
    for slot in slots:
        text = slot.read_text(encoding="utf-8")
        record = json.loads(text)
        assert text == json.dumps(record, sort_keys=True)
        assert SummaryCache(tmp_path).load(slot.stem, record["key"]) == (
            record["payload"]
        )


def test_effect_slot_without_entropy_facts_is_a_miss(tmp_path):
    # An effects slot written before the summaries carried entropy facts
    # (version 1) must read as a miss: replaying it would drop DET003.
    class EffectsOnly(EffectAnalysis):
        version = "1"

        def local_facts(self, func, module, model):
            facts = super().local_facts(func, module, model)
            return {
                key: fact
                for key, fact in facts.items()
                if fact.effect.kind != READS_ENTROPY
            }

    context = AnalysisContext(sources=[KEY_SOURCE], root=Path("."))
    stale = compute_summaries(
        context.project_model(),
        context.call_graph(),
        EffectsOnly(),
        cache=SummaryCache(tmp_path),
    )
    assert not any(
        fact.effect.kind == READS_ENTROPY
        for summary in stale.values()
        for fact in summary.values()
    )
    assert [p.name for p in tmp_path.glob("*.json")] == [
        "summaries-effects.json"
    ]

    result = analyze_sources(
        [KEY_SOURCE], deep=True, rules=["DET003"], cache_dir=tmp_path
    )
    assert [f.rule for f in result.findings] == ["DET003"]


@pytest.mark.parametrize("slot, junk", [
    ("file-findings", [{"rule": "DET001"}]),
    ("project-findings", ["junk"]),
    ("summaries-effects", {"pkg.runtime.key.make_cache_key": "junk"}),
])
def test_corrupt_payload_is_a_miss_and_is_rewritten(tmp_path, slot, junk):
    # A slot with the right schema and key but a malformed payload must
    # read as a miss: recomputed, overwritten, never a crash.
    cold = _lint_key_source(tmp_path)
    path = tmp_path / f"{slot}.json"
    good = path.read_text(encoding="utf-8")
    record = json.loads(good)
    path.write_text(json.dumps(dict(record, payload=junk)), encoding="utf-8")
    if slot.startswith("summaries-"):
        # Only a project-findings miss reaches the summaries slot.
        (tmp_path / "project-findings.json").unlink()

    rerun = _lint_key_source(tmp_path)
    assert not rerun.internal
    assert [f.rule for f in cold.findings] == ["DET003", "DET001"]
    assert rerun.findings == cold.findings
    assert path.read_text(encoding="utf-8") == good
