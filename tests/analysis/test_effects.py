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
    READS_ENTROPY,
    EffectAnalysis,
    classify_entropy_call,
    entropy_facts,
    find_frozen_writes,
    frozen_class_names,
    function_effects,
    is_set_expression,
    observer_class_names,
    sink_reason,
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


def test_catalog_rng_under_a_cache_key_is_one_det003_finding():
    # The draw is an entropy source and a consumes-rng effect; one
    # defect yields one finding, and the finding is DET003's.
    sources = load_deep_sources("rngkey_fires")
    result = analyze_sources(sources, deep=True)
    assert not result.internal
    [finding] = result.findings
    assert finding.rule == "DET003"
    assert finding.path == "src/repro/runtime/key.py"
    assert (
        "reaches call to random.random (module-level stdlib RNG "
        "(unseeded shared state)) through 1 call" in finding.message
    )
    assert finding.trace[-1].startswith("** call to random.random")

    # EFF004 stepping aside costs no coverage: an observability hook
    # drawing from the same RNG is still EFF001's.
    hook = SourceFile.from_text(
        "import random\n"
        "def on_span_end(span):\n"
        "    return random.random()\n",
        relpath="src/repro/observability/hooks.py",
    )
    result = analyze_sources(sources + [hook], deep=True)
    assert not result.internal
    assert sorted(f.rule for f in result.findings) == ["DET003", "EFF001"]
    [eff001] = [f for f in result.findings if f.rule == "EFF001"]
    assert eff001.path == "src/repro/observability/hooks.py"
    assert "call to random.random (consumes-rng) directly" in eff001.message


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
    # Wall clocks are DET003's business: a clock read yields no effect
    # and no summary fact of any kind an EFF rule reports, even where
    # an observability hook and a cache key both reach it.
    from repro.analysis.engine import AnalysisContext

    sources = [
        SourceFile.from_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            relpath="src/repro/util/clock.py",
        ),
        SourceFile.from_text(
            "from ..util.clock import stamp\n"
            "def on_span_end(span):\n"
            "    return stamp()\n",
            relpath="src/repro/observability/hooks.py",
        ),
        SourceFile.from_text(
            "from ..util.clock import stamp\n"
            "def make_cache_key(x):\n"
            "    return str(x) + str(stamp())\n",
            relpath="src/repro/runtime/key.py",
        ),
    ]
    context = AnalysisContext(sources=sources, root=Path("."))
    assert _effects_of(context.project_model(), "stamp") == []
    summaries = context.summaries(EffectAnalysis())
    assert sorted(summaries) == [
        "repro.observability.hooks.on_span_end",
        "repro.runtime.key.make_cache_key",
        "repro.util.clock.stamp",
    ]
    assert {
        fact.effect.kind
        for summary in summaries.values()
        for fact in summary.values()
    } == {READS_ENTROPY}
    result = analyze_sources(sources, deep=True, rules=EFF_RULES + ["DET003"])
    assert not result.internal
    assert [f.rule for f in result.findings] == ["DET003"]


# ---------------------------------------------------------------------------
# The entropy catalog, the determinism sinks, and the one reads-entropy
# fact per source function that DET003 reads from the effect summaries.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target, reason", [
    ("time.time", "wall-clock read"),
    ("time.perf_counter_ns", "wall-clock read"),
    ("datetime.datetime.now", "wall-clock read"),
    ("os.urandom", "OS entropy read"),
    ("uuid.uuid1", "clock/MAC-derived identifier"),
    ("random.random", "module-level stdlib RNG (unseeded shared state)"),
    ("random.Random", None),
    ("numpy.random.rand", "global numpy RNG singleton (unseeded shared state)"),
    ("numpy.random.default_rng", None),
    ("numpy.random.SeedSequence", None),
    ("math.sqrt", None),
])
def test_classify_entropy_call(target, reason):
    assert classify_entropy_call(target) == reason


@pytest.mark.parametrize("expr, is_set", [
    ("{1, 2}", True),
    ("{x for x in y}", True),
    ("set(y)", True),
    ("frozenset(y)", True),
    ("sorted(set(y))", False),
    ("[1, 2]", False),
    ("{1: 2}", False),
])
def test_is_set_expression(expr, is_set):
    assert is_set_expression(ast.parse(expr, mode="eval").body) is is_set


def _function(model, fq_suffix):
    [func] = [f for f in model.functions() if f.fq.endswith(fq_suffix)]
    return func


@pytest.mark.parametrize("text, relpath, fq_suffix, reason", [
    ("def make_cache_key(x):\n    return x\n",
     "pkg/util/keys.py", "make_cache_key", "cache-key construction"),
    ("def spec_fingerprint(x):\n    return x\n",
     "pkg/util/keys.py", "spec_fingerprint", "cache-key construction"),
    ("class RunSpec:\n    def key(self):\n        return 1\n",
     "pkg/runtime/spec.py", "RunSpec.key", "cache-key construction"),
    ("def canonical_digest(x):\n    return x\n",
     "pkg/util/canonical.py", "canonical_digest", "canonical fingerprint"),
    ("class RunSummary:\n    def __init__(self):\n        self.n = 0\n",
     "pkg/simulator/metrics.py", "RunSummary.__init__",
     "RunSummary assembly (cached measurement surface)"),
    ("class Table:\n    def key(self):\n        return 1\n",
     "pkg/util/table.py", "Table.key", None),
    ("def canonical_digest(x):\n    return x\n",
     "pkg/util/digests.py", "canonical_digest", None),
])
def test_sink_reason(text, relpath, fq_suffix, reason):
    model = _model_for(text, relpath=relpath)
    assert sink_reason(_function(model, fq_suffix)) == reason


def _entropy_facts_of(text, fq_suffix, relpath="pkg/simulator/mod.py"):
    model = _model_for(text, relpath=relpath)
    func = _function(model, fq_suffix)
    facts = EffectAnalysis().local_facts(func, model.modules[func.module], model)
    return {
        key: fact for key, fact in facts.items()
        if fact.effect.kind == READS_ENTROPY
    }


def test_entropy_fact_is_one_per_function_at_its_earliest_site():
    # Three sources in one function make one fact, keyed by the
    # function's fq and holding the earliest site.
    facts = _entropy_facts_of(
        "import os\n"
        "import time\n"
        "def stamp(xs):\n"
        "    a = os.getenv('HOME')\n"
        "    b = time.time()\n"
        "    for x in {1, 2}:\n"
        "        pass\n"
        "    return a, b\n",
        "stamp",
    )
    [(key, fact)] = facts.items()
    assert key == "reads-entropy@pkg.simulator.mod.stamp"
    assert fact.steps == ()
    assert fact.effect.detail == "call to os.getenv (environment read)"
    assert fact.effect.line == 4


def test_entropy_fact_ties_on_a_line_go_to_the_lesser_detail():
    [fact] = _entropy_facts_of(
        "import time\n"
        "import os\n"
        "def stamp():\n"
        "    return time.time(), os.urandom(4)\n",
        "stamp",
    ).values()
    assert fact.effect.detail == "call to os.urandom (OS entropy read)"


@pytest.mark.parametrize("body, detail", [
    ("    return os.environ['HOME']\n", "os.environ (environment read)"),
    ("    return os.environ.get('HOME')\n",
     "call to os.environ.get (environment read)"),
    ("    return [x for x in set(xs)]\n",
     "iteration over a set (set-order-dependent iteration)"),
    ("    def inner():\n        return time.monotonic()\n    return inner\n",
     "call to time.monotonic (wall-clock read)"),
    ("    return BlockSampler(lambda n: random.random())\n",
     "call to random.random (module-level stdlib RNG (unseeded shared "
     "state))"),
])
def test_entropy_source_kinds(body, detail):
    # Env reads, set iteration and closures are sources; the sampler
    # sanction that exempts an RNG draw from consumes-rng does not make
    # it deterministic.
    [fact] = _entropy_facts_of(
        "import os\n"
        "import random\n"
        "import time\n"
        "def source(xs):\n" + body,
        "source",
    ).values()
    assert fact.effect.detail == detail


def test_no_entropy_fact_without_a_source():
    assert _entropy_facts_of(
        "import random\n"
        "def draw(seed, xs):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.random(), sorted(set(xs))\n",
        "draw",
    ) == {}


def test_entropy_fact_lifts_along_the_shortest_chain():
    # Two routes reach one source function: the summary keeps one fact
    # for it, with the one-call witness.
    sources = [
        SourceFile.from_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def relay():\n"
            "    return stamp()\n",
            relpath="src/repro/util/clock.py",
        ),
        SourceFile.from_text(
            "from ..util.clock import relay, stamp\n"
            "def make_cache_key(x):\n"
            "    return str(x) + str(relay()) + str(stamp())\n",
            relpath="src/repro/runtime/key.py",
        ),
    ]
    from repro.analysis.engine import AnalysisContext

    context = AnalysisContext(sources=sources, root=Path("."))
    summaries = context.summaries(EffectAnalysis())
    [fact] = entropy_facts(summaries["repro.runtime.key.make_cache_key"])
    assert [step.callee for step in fact.steps] == ["repro.util.clock.stamp"]

    result = analyze_sources(sources, deep=True, rules=["DET003"])
    [finding] = result.findings
    assert finding.message.endswith("(wall-clock read) through 1 call")
    assert finding.trace == (
        "repro.runtime.key.make_cache_key [cache-key construction]",
        "-> calls repro.util.clock.stamp (at "
        "repro.runtime.key.make_cache_key:3)",
        "** call to time.time (wall-clock read) at src/repro/util/clock.py:3",
    )


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
