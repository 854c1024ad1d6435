"""The effect & purity rule pack (EFF001, EFF003, EFF004), and DET001's
entropy budget on the ``eff002_*`` trees.

Covers the effect extraction layer, the deep rules on their fire/clean
fixture pairs, the JSON/text rendering of effect-chain traces, and --
the contract the whole pack exists for -- a mutation sweep proving that
deleting ANY single tracer gate in the real simulator makes lint fail:
OBS001 names the ungated tracer touch, EFF001 the engine state a gate
was keeping write-only.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import Finding, analyze_sources
from repro.analysis.effects import (
    EffectAnalysis,
    find_frozen_writes,
    frozen_class_names,
    function_effects,
    observer_class_names,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.source import SourceFile

from .conftest import load_deep_sources

EFF_RULES = ["EFF001", "EFF003", "EFF004"]

REPO = Path(__file__).resolve().parents[2]


def run_tree(tree, rules):
    return analyze_sources(load_deep_sources(tree), deep=True, rules=rules)


# ---------------------------------------------------------------------------
# Fixture pairs: each rule fires on its _fires tree, stays silent on
# its _clean twin.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rule", ["EFF001", "DET001", "EFF003", "EFF004"]
)
def test_rule_fires_and_clean_pair(rule):
    # The eff002 trees exercise DET001's private-RNG draw check.
    slug = "eff002" if rule == "DET001" else rule.lower()
    fires = run_tree(f"{slug}_fires", [rule])
    assert not fires.internal
    assert fires.findings, f"{rule} silent on its firing fixture"
    assert {f.rule for f in fires.findings} == {rule}

    clean = run_tree(f"{slug}_clean", [rule])
    assert not clean.internal
    assert clean.findings == []


def test_eff001_hook_purity_is_interprocedural():
    result = run_tree("eff001_fires", ["EFF001"])
    hook = [
        f
        for f in result.findings
        if "begin_segment" in f.message and "schedules-event" in f.message
    ]
    assert hook, [f.message for f in result.findings]
    finding = hook[0]
    # The engine effect is one call away; the chain shows the hop.
    assert "through 1 call" in finding.message
    assert any("-> calls" in hop for hop in finding.trace)
    assert any("schedules-event" in hop for hop in finding.trace)


def test_eff001_gated_engine_mutation_flagged():
    result = run_tree("eff001_fires", ["EFF001"])
    gated = [f for f in result.findings if "observer gate" in f.message]
    assert gated
    assert any("mutates-param" in f.message for f in gated)


def test_det001_points_at_private_rng_draw_site():
    result = run_tree("eff002_fires", ["DET001"])
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert "_rng" in finding.message
    assert finding.path == "src/repro/simulator/load.py"


def test_eff003_catches_setattr_escape():
    result = run_tree("eff003_fires", ["EFF003"])
    messages = [f.message for f in result.findings]
    assert any("object.__setattr__" in m for m in messages)
    assert any("writes spec.seed" in m for m in messages)


def test_eff003_post_init_setattr_is_construction():
    result = run_tree("eff003_clean", ["EFF003"])
    assert result.findings == []


def test_eff004_connects_key_to_remote_mutation():
    result = run_tree("eff004_fires", ["EFF004"])
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert "cache-key construction" in finding.message
    assert "mutates-global" in finding.message
    assert "through 1 call" in finding.message


# ---------------------------------------------------------------------------
# Existing deep trees must stay EFF-silent: the pack rides along in
# every --deep run, so firing on the DET003/UNIT002 corpora would
# change their pinned rule sets.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tree",
    [
        "taint_fires",
        "taint_clean",
        "unitflow_fires",
        "unitflow_clean",
        "deadexport_fires",
        "deadexport_clean",
        "degraded",
    ],
)
def test_pre_effect_trees_stay_silent(tree):
    result = run_tree(tree, EFF_RULES)
    # (The degraded tree carries a PARSE finding by design; only EFF
    # silence is this test's claim.)
    assert [f for f in result.findings if f.rule.startswith("EFF")] == []


# ---------------------------------------------------------------------------
# Effect extraction unit behavior.
# ---------------------------------------------------------------------------


def _model_for(text, relpath="pkg/simulator/mod.py"):
    from repro.analysis.engine import AnalysisContext

    context = AnalysisContext(
        sources=[SourceFile.from_text(text, relpath=relpath)],
        root=Path("."),
    )
    return context.project_model()


def _effects_of(model, fq_suffix):
    observers = observer_class_names(model)
    for func in model.functions():
        if func.fq.endswith(fq_suffix):
            return function_effects(
                func, model.modules[func.module], observers
            )
    raise AssertionError(f"no function matching {fq_suffix}")


def test_construction_writes_are_exempt():
    model = _model_for(
        "class Box:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "    def bump(self):\n"
        "        self.n += 1\n"
    )
    assert _effects_of(model, "__init__") == []
    (effect,) = _effects_of(model, "bump")
    assert effect.kind == "mutates-param"
    assert "self.n" in effect.detail


def test_alias_expansion_reaches_the_param_root():
    model = _model_for(
        "class Ring:\n"
        "    def push(self, value):\n"
        "        buf = self._buf\n"
        "        buf.append(value)\n"
    )
    (effect,) = _effects_of(model, "push")
    assert effect.kind == "mutates-param"
    assert "self._buf" in effect.detail


def test_sampler_lexical_args_are_sanctioned():
    model = _model_for(
        "def make(rng):\n"
        "    return BlockSampler(lambda n: rng.random(n))\n"
    )
    assert _effects_of(model, "make") == []


def test_rng_receiver_draw_is_an_effect():
    model = _model_for(
        "def draw(rng):\n"
        "    return rng.random()\n"
    )
    (effect,) = _effects_of(model, "draw")
    assert effect.kind == "consumes-rng"


def test_wall_clock_reads_are_not_effects():
    # Wall clocks are DET003's business; making them effects would
    # change which rules fire on the taint corpora.
    model = _model_for(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    assert _effects_of(model, "stamp") == []


def test_frozen_class_inventory_includes_decorated_and_named():
    model = _model_for(
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Snapshot:\n"
        "    x: int\n"
        "class Plain:\n"
        "    pass\n",
        relpath="pkg/runtime/spec.py",
    )
    names = frozen_class_names(model)
    assert "Snapshot" in names
    assert "RunSpec" in names  # protected by name
    assert "Plain" not in names


def test_find_frozen_writes_spots_annotated_param():
    model = _model_for(
        "def tweak(spec: 'RunSpec'):\n"
        "    spec.seed = 1\n",
        relpath="pkg/runtime/tools.py",
    )
    (write,) = find_frozen_writes(model)
    assert "spec.seed" in write.message
    assert "RunSpec" in write.message


# ---------------------------------------------------------------------------
# Effect-chain traces survive the JSON report round trip and render as
# clickable chains in the text reporter.
# ---------------------------------------------------------------------------


def test_effect_trace_survives_json_round_trip():
    result = run_tree("eff004_fires", EFF_RULES)
    assert result.findings and result.findings[0].trace
    payload = json.loads(render_json(result))
    recovered = [Finding.from_dict(row) for row in payload["findings"]]
    assert recovered == list(result.findings)
    # The multi-hop chain itself is intact, hop for hop.
    assert recovered[0].trace == result.findings[0].trace


def test_text_reporter_renders_clickable_effect_chain():
    result = run_tree("eff004_fires", EFF_RULES)
    text = render_text(result)
    finding = result.findings[0]
    for hop in finding.trace:
        assert f"    | {hop}" in text
    # The terminal hop pins the effect to path:line:column.
    assert any(
        "src/repro/util/registry.py:8:4" in hop for hop in finding.trace
    )


# ---------------------------------------------------------------------------
# The zero-observer contract, re-derived: delete any single tracer
# gate in the real simulator and lint must fail -- OBS001 on the
# exposed tracer touch, EFF001 (with a trace) on engine state the gate
# was keeping write-only.
# ---------------------------------------------------------------------------

_SIM_FILES = (
    "src/repro/simulator/cpu.py",
    "src/repro/simulator/service.py",
)
_SUPPORT_FILES = (
    "src/repro/observability/tracer.py",
    "src/repro/observability/ringbuffer.py",
)


def _observer_gate_count(text):
    from repro.analysis.effects import _observer_names_in

    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.If) and _observer_names_in(node.test):
            count += 1
    return count


class _GateKiller(ast.NodeTransformer):
    """Replace the index-th tracer gate with its unguarded body."""

    def __init__(self, index):
        self.index = index
        self.count = 0

    def visit_If(self, node):
        from repro.analysis.effects import _observer_names_in

        self.generic_visit(node)
        if _observer_names_in(node.test):
            current = self.count
            self.count += 1
            if current == self.index:
                return node.body + node.orelse
        return node


def _gate_cases():
    cases = []
    for relpath in _SIM_FILES:
        text = (REPO / relpath).read_text(encoding="utf-8")
        for index in range(_observer_gate_count(text)):
            cases.append((relpath, index))
    return cases


def _simulator_sources(patched_relpath, patched_text):
    sources = []
    for relpath in _SIM_FILES + _SUPPORT_FILES:
        text = (
            patched_text
            if relpath == patched_relpath
            else (REPO / relpath).read_text(encoding="utf-8")
        )
        sources.append(SourceFile.from_text(text, relpath=relpath))
    return sources


def test_simulator_has_tracer_gates_to_protect():
    # The sweep below is vacuous if the gate census ever hits zero.
    assert len(_gate_cases()) >= 10


@pytest.mark.parametrize("relpath,index", _gate_cases())
def test_deleting_any_tracer_gate_fails_lint(relpath, index):
    text = (REPO / relpath).read_text(encoding="utf-8")
    killer = _GateKiller(index)
    tree = killer.visit(ast.parse(text))
    patched = ast.unparse(ast.fix_missing_locations(tree))
    assert killer.count == _observer_gate_count(text)

    result = analyze_sources(
        _simulator_sources(relpath, patched),
        deep=True,
        rules=["OBS001", "EFF001"],
    )
    assert not result.internal
    fired = result.findings
    assert fired, f"gate {index} of {relpath} deleted without lint failing"
    # OBS001 names the exposed tracer touch; an EFF001 finding carries
    # the chain to the engine state the gate was keeping write-only.
    assert all(
        "is not gated" in f.message if f.rule == "OBS001" else f.trace
        for f in fired
    )


def test_unpatched_simulator_is_gate_clean():
    result = analyze_sources(
        _simulator_sources(None, ""),
        deep=True,
        rules=EFF_RULES + ["OBS001", "DET001"],
    )
    assert not result.internal
    assert result.findings == []


def test_effect_summaries_are_cache_stable(tmp_path):
    # Summaries persisted by the on-disk cache decode to the same facts
    # the fresh computation produced.
    from repro.analysis.dataflow import SummaryCache, compute_summaries
    from repro.analysis.engine import AnalysisContext

    sources = _simulator_sources(None, "")
    context = AnalysisContext(sources=sources, root=Path("."))
    model = context.project_model()
    graph = context.call_graph()
    cache = SummaryCache(tmp_path)
    cold = compute_summaries(model, graph, EffectAnalysis(), cache=cache)
    warm = compute_summaries(model, graph, EffectAnalysis(), cache=cache)
    assert warm == cold
