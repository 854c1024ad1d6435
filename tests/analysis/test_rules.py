"""Every built-in rule: proof it fires on violations and stays silent on
clean code (and out-of-scope placements of the same violations)."""

import re
from pathlib import Path

from repro.analysis import SourceFile, all_rules, analyze_sources

SIM = "src/repro/simulator/fixture.py"
RUNTIME = "src/repro/runtime/fixture.py"
FAULTS = "src/repro/faults/fixture.py"


def _rules_fired(result):
    return [finding.rule for finding in result.findings]


def _run_text(text, relpath, rules):
    return analyze_sources(
        [SourceFile.from_text(text, relpath=relpath)], rules=rules
    )


# -- DET001 ----------------------------------------------------------------


def test_det001_fires_on_ambient_entropy(run_fixture):
    result = run_fixture("det001_fires.py", RUNTIME, rules=["DET001"])
    assert _rules_fired(result) == ["DET001"] * 4
    messages = " ".join(f.message for f in result.findings)
    assert "time.time" in messages
    assert "random.shuffle" in messages
    assert "numpy.random.randint" in messages
    assert "os.urandom" in messages


def test_det001_silent_on_seeded_generators(run_fixture):
    result = run_fixture("det001_clean.py", RUNTIME, rules=["DET001"])
    assert result.clean


def test_det001_fires_on_wall_clock_in_faults():
    # faults/ is a simulated path: the injector's draws replay from the
    # spec, so a clock read there forks runs exactly as in simulator/.
    result = _run_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        FAULTS,
        ["DET001"],
    )
    assert _rules_fired(result) == ["DET001"]
    assert "time.time" in result.findings[0].message


_PRIVATE_RNG = (
    "class Jitter:\n"
    "    def draw(self):\n"
    "        return self._rng.random()\n"
    "    def draw_aliased(self):\n"
    "        r = self._rng\n"
    "        return r.random()\n"
)


def test_det001_fires_on_rng_draws_outside_the_facades():
    result = _run_text(_PRIVATE_RNG, FAULTS, ["DET001"])
    assert [(f.rule, f.line) for f in result.findings] == [
        ("DET001", 3), ("DET001", 6),
    ]
    assert "self._rng.random" in result.findings[0].message


def test_det001_out_of_scope_in_scripts(run_fixture):
    # Wall-clock benchmarking in scripts/ is legitimate.
    result = run_fixture("det001_fires.py", "scripts/bench.py",
                         rules=["DET001"])
    assert result.clean


# -- DET002 ----------------------------------------------------------------


def test_det002_fires_on_set_iteration(run_fixture):
    result = run_fixture("det002_fires.py", RUNTIME, rules=["DET002"])
    assert _rules_fired(result) == ["DET002"] * 3


def test_det002_silent_when_sorted(run_fixture):
    result = run_fixture("det002_clean.py", RUNTIME, rules=["DET002"])
    assert result.clean


def test_det002_out_of_scope_elsewhere(run_fixture):
    result = run_fixture("det002_fires.py", "src/repro/viz/fixture.py",
                         rules=["DET002"])
    assert result.clean


# -- SPEC001 ---------------------------------------------------------------


def test_spec001_fires_on_bad_defaults(run_fixture):
    result = run_fixture("spec001_fires.py", RUNTIME, rules=["SPEC001"])
    assert _rules_fired(result) == ["SPEC001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "SweepSpec.points" in messages
    assert "default_factory=list" in messages
    assert "lambda default_factory" in messages


def test_spec001_silent_on_hashable_specs(run_fixture):
    # Named factories, tuple defaults, and *non-frozen* scratch
    # dataclasses with mutable factories are all fine.
    result = run_fixture("spec001_clean.py", RUNTIME, rules=["SPEC001"])
    assert result.clean


def test_spec001_applies_everywhere(run_fixture):
    # Spec hygiene is not path-scoped: frozen dataclasses anywhere feed
    # cache keys.
    result = run_fixture("spec001_fires.py", "src/repro/viz/fixture.py",
                         rules=["SPEC001"])
    assert len(result.findings) == 3


# -- PERF001 ---------------------------------------------------------------


def test_perf001_fires_in_simulator_scope(run_fixture):
    result = run_fixture("perf001_fires.py", SIM, rules=["PERF001"])
    assert _rules_fired(result) == ["PERF001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "EventBox" in messages          # plain class without __slots__
    assert "Sample" in messages            # dataclass without slots=True
    assert "run_until" in messages         # per-event dict allocation


def test_perf001_silent_on_clean_hot_path(run_fixture):
    result = run_fixture("perf001_clean.py", SIM, rules=["PERF001"])
    assert result.clean


def test_perf001_out_of_scope_outside_simulator(run_fixture):
    result = run_fixture("perf001_fires.py", "src/repro/profiling/fixture.py",
                         rules=["PERF001"])
    assert result.clean


TRACER = "src/repro/observability/tracer.py"


def test_perf001_fires_on_tracer_record_hook_allocation(run_fixture):
    result = run_fixture("perf001_tracer_fires.py", TRACER,
                         rules=["PERF001"])
    assert _rules_fired(result) == ["PERF001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "record_interval" in messages   # constructor call per event
    assert "record_attempt" in messages    # dict display per event
    assert "mark_released" in messages     # list display per event
    assert "begin_request" not in messages  # lifecycle methods exempt


def test_perf001_silent_on_flat_ring_tracer(run_fixture):
    result = run_fixture("perf001_tracer_clean.py", TRACER,
                         rules=["PERF001"])
    assert result.clean


def test_perf001_tracer_checks_only_apply_to_tracer_module(run_fixture):
    # The record-hook checks scope to tracer.py: the same code in
    # another observability module is outside them.
    result = run_fixture("perf001_tracer_fires.py",
                         "src/repro/observability/export.py",
                         rules=["PERF001"])
    assert result.clean


def test_perf001_fires_on_allocation_inside_tracer_gate(run_fixture):
    result = run_fixture("perf001_gate_fires.py", SIM, rules=["PERF001"])
    fired = _rules_fired(result)
    assert fired == ["PERF001"] * 2
    assert all("tracer gate" in f.message for f in result.findings)


def test_perf001_reads_trace_ctx_gates_too():
    # PERF001 shares OBS001's tracer vocabulary, trace_ctx included.
    result = _run_text(
        "class Scheduler:\n"
        "    __slots__ = ()\n"
        "    def step(self, trace_ctx, now):\n"
        "        if trace_ctx is not None:\n"
        "            trace_ctx.record_interval({'at': now})\n",
        SIM,
        ["PERF001"],
    )
    assert [(f.rule, f.line) for f in result.findings] == [("PERF001", 5)]
    assert "dict allocation inside a tracer gate" in (
        result.findings[0].message
    )


def test_perf001_silent_on_scalar_tracer_gate(run_fixture):
    result = run_fixture("perf001_gate_clean.py", SIM, rules=["PERF001"])
    assert result.clean


def test_perf001_fires_on_device_hot_path(run_fixture):
    # submit/_select_tenant joined the hot set with the shared device.
    result = run_fixture("perf001_device_fires.py", SIM, rules=["PERF001"])
    assert _rules_fired(result) == ["PERF001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "TenantBox" in messages          # queue class without __slots__
    assert "submit" in messages             # per-offload list allocation
    assert "_select_tenant" in messages     # per-scan dict allocation


def test_perf001_silent_on_clean_device_hot_path(run_fixture):
    result = run_fixture("perf001_device_clean.py", SIM, rules=["PERF001"])
    assert result.clean


# -- UNIT001 ---------------------------------------------------------------


def test_unit001_fires_on_mixing_and_magic_constants(run_fixture):
    result = run_fixture("unit001_fires.py", "src/repro/core/equations.py",
                         rules=["UNIT001"])
    assert _rules_fired(result) == ["UNIT001"] * 2
    messages = " ".join(f.message for f in result.findings)
    assert "cycles + seconds" in messages
    assert "3.7" in messages


def test_unit001_silent_on_consistent_units(run_fixture):
    result = run_fixture("unit001_clean.py", "src/repro/core/equations.py",
                         rules=["UNIT001"])
    assert result.clean


def test_unit001_magic_constants_only_in_equation_files(run_fixture):
    # Outside equations.py/model.py/projections.py only the unit-mixing
    # half applies.
    result = run_fixture("unit001_fires.py", "src/repro/core/helpers.py",
                         rules=["UNIT001"])
    assert len(result.findings) == 1
    assert "mixing units" in result.findings[0].message


def test_unit001_and_unit002_are_not_duplicates(fixture_source):
    # Each unit rule is silent on the other's fire fixture, so the pair
    # checks two different things and both stay.
    from .conftest import load_deep_sources

    per_file = analyze_sources(
        [fixture_source("unit001_fires.py", "src/repro/core/model.py")],
        deep=True, rules=["UNIT002"],
    )
    assert per_file.rules == ("UNIT002",) and per_file.clean
    deep = analyze_sources(load_deep_sources("unitflow_fires"), deep=True,
                           rules=["UNIT001"])
    assert deep.rules == ("UNIT001",) and deep.clean


# -- API001 ----------------------------------------------------------------


def test_api001_fires_on_facade_rot(run_fixture):
    result = run_fixture("api001_fires.py", "src/repro/fake/__init__.py",
                         rules=["API001"])
    assert _rules_fired(result) == ["API001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "shadows" in messages
    assert "more than once" in messages
    assert "not bound" in messages


def test_api001_silent_on_consistent_facade(run_fixture):
    result = run_fixture("api001_clean.py", "src/repro/fake/__init__.py",
                         rules=["API001"])
    assert result.clean


def test_api001_requires_all_declaration(run_fixture):
    # The same module under a non-__init__ name is not a facade.
    result = run_fixture("api001_fires.py", "src/repro/fake/module.py",
                         rules=["API001"])
    assert result.clean


# -- OBS001 ----------------------------------------------------------------


def test_obs001_fires_on_ungated_tracer_calls(run_fixture):
    result = run_fixture("obs001_fires.py", SIM, rules=["OBS001"])
    assert _rules_fired(result) == ["OBS001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "record_interval" in messages   # attribute call on self.tracer
    assert "begin_request" in messages     # ungated local binding
    assert "end_body" in messages          # gated behind the wrong name


def test_obs001_fires_in_faults_scope_too(run_fixture):
    result = run_fixture("obs001_fires.py", "src/repro/faults/fixture.py",
                         rules=["OBS001"])
    assert len(result.findings) == 3


def test_obs001_silent_on_gated_emission(run_fixture):
    # ``is not None`` gates, compound tests, early-return gates, and
    # conditional expressions all count as gated.
    result = run_fixture("obs001_clean.py", SIM, rules=["OBS001"])
    assert result.clean


def test_obs001_fires_on_ungated_trace_ctx_call():
    result = _run_text(
        "def stamp(trace_ctx, now):\n"
        "    trace_ctx.record_interval(now, now + 1.0)\n",
        SIM,
        ["OBS001"],
    )
    assert _rules_fired(result) == ["OBS001"]
    assert "trace_ctx.record_interval" in result.findings[0].message


def test_obs001_fires_on_ungated_observer_write():
    result = _run_text(
        "def count(trace_ctx):\n"
        "    trace_ctx.offloads += 1\n"
        "    if trace_ctx is not None:\n"
        "        trace_ctx.retries += 1\n",
        SIM,
        ["OBS001"],
    )
    assert [(f.rule, f.line) for f in result.findings] == [("OBS001", 2)]
    assert "write to tracer state trace_ctx.offloads" in (
        result.findings[0].message
    )


def test_obs001_out_of_scope_outside_the_simulator(run_fixture):
    # Exporters and analyses run after the simulation; only the hot
    # path must gate its emission.
    result = run_fixture("obs001_fires.py",
                         "src/repro/observability/fixture.py",
                         rules=["OBS001"])
    assert result.clean


# -- OBS001 on runtime/ telemetry ---------------------------------------------


def test_obs001_fires_on_ungated_telemetry_calls(run_fixture):
    result = run_fixture("obs002_fires.py", RUNTIME, rules=["OBS001"])
    assert _rules_fired(result) == ["OBS001"] * 3
    messages = " ".join(f.message for f in result.findings)
    assert "record_outcome" in messages    # attribute call on self.telemetry
    assert "begin_stage" in messages       # ungated local binding
    assert "record_put" in messages        # gated behind the wrong name


def test_obs001_silent_on_gated_telemetry(run_fixture):
    # ``is not None`` gates, compound tests, early-return gates, and
    # conditional expressions all count as gated.
    result = run_fixture("obs002_clean.py", RUNTIME, rules=["OBS001"])
    assert result.clean


def test_obs001_telemetry_out_of_scope_outside_the_runtime(run_fixture):
    # The telemetry module itself owns the clocks and records freely;
    # only runtime/ must gate its emission.
    result = run_fixture("obs002_fires.py",
                         "src/repro/observability/fixture.py",
                         rules=["OBS001"])
    assert result.clean


def test_obs001_tracer_and_telemetry_scopes_do_not_overlap(run_fixture):
    # In runtime/ only the telemetry names are handles: a tracer-style
    # touch there is not an OBS001 finding, and a telemetry-style touch
    # in simulator/ is not one either.
    assert run_fixture("obs001_fires.py", RUNTIME, rules=["OBS001"]).clean
    assert run_fixture("obs002_fires.py", SIM, rules=["OBS001"]).clean


# -- catalog metadata -------------------------------------------------------


def test_every_rule_documents_itself():
    rules = all_rules()
    assert {r.name for r in rules} >= {
        "DET001", "DET002", "SPEC001", "PERF001", "UNIT001", "API001",
        "OBS001",
    }
    for rule in rules:
        assert rule.description, rule.name
        assert rule.invariant, rule.name


CATALOG = Path(__file__).resolve().parents[2] / "docs" / "analysis.md"

#: A rule's catalog entry: a ``### ID —`` heading, a ``**ID —`` deep-rule
#: lead, or a ``| `ID` |`` table row.
_ENTRY = re.compile(r"^(?:#+ |\*\*|\| `)([A-Z]+\d{3})\b", re.MULTILINE)


def test_every_registered_rule_has_a_catalog_entry():
    documented = set(_ENTRY.findall(CATALOG.read_text(encoding="utf-8")))
    registered = {rule.name for rule in all_rules()}
    assert registered - documented == set()
    # ... and no entry names a rule that is not registered (retired IDs
    # are listed in prose, not as entries).
    assert documented - registered == set()
