"""PAR001-PAR004 against the seeded twin trees: each drift fires exactly
once, names both sides of the divergence, suppresses through the C
pragma pipeline, and round-trips through the JSON report."""

import json
import re

from repro.analysis import (
    AnalysisResult,
    CSourceFile,
    Finding,
    analyze_sources,
    render_json,
)

from .conftest import PARITY_RULES, load_parity_tree

#: ``path:line:column`` with a real line/column, as promised by the
#: acceptance criteria for *both* sides of every parity message.
LOCATION = re.compile(r"\S+\.(?:c|py):\d+:\d+")


def run_tree(name, **kwargs):
    sources, c_sources = load_parity_tree(name)
    return analyze_sources(
        sources,
        c_sources=c_sources,
        rules=PARITY_RULES,
        deep=True,
        **kwargs,
    )


def the_finding(result, rule):
    """Exactly one finding, of *rule*, naming both locations."""
    assert [f.rule for f in result.findings] == [rule]
    finding = result.findings[0]
    locations = LOCATION.findall(finding.message)
    assert any(loc.split(":")[0].endswith(".c") for loc in locations)
    assert any(".py:" in loc for loc in locations)
    assert len(finding.trace) == 2
    assert finding.trace[0].startswith("C side: ")
    assert finding.trace[1].startswith("Python side: ")
    return finding


class TestSeededDrift:
    def test_clean_twin_is_silent(self):
        result = run_tree("clean")
        assert result.findings == []
        # The deliberately C-only error string is *suppressed* by its
        # /* repro: noqa[PAR002] */ pragma, not silently missing.
        assert [f.rule for f in result.suppressed] == ["PAR002"]

    def test_renamed_attribute_fires_par001(self):
        finding = the_finding(run_tree("attr_renamed"), "PAR001")
        assert "'current'" in finding.message
        assert "'current_thread'" in finding.message
        assert finding.path.endswith("_hotcore.c")

    def test_mutated_error_string_fires_par002(self):
        finding = the_finding(run_tree("error_drift"), "PAR002")
        assert "cannot compute a negative cycle count" in finding.message
        assert "cannot compute negative cycles" in finding.message

    def test_repacked_shift_constant_fires_par003(self):
        finding = the_finding(run_tree("shift_drift"), "PAR003")
        assert "SINK_CODE_BITS = 20" in finding.message
        assert "CODE_BITS = 21" in finding.message

    def test_unannotated_hook_fires_par004(self):
        finding = the_finding(run_tree("hook_bypass"), "PAR004")
        assert "trace.record_window" in finding.message
        assert "engine_advance_core" in finding.message
        # PAR004 pins the *Python* side: the fix happens there.
        assert finding.path.endswith("cpu.py")

    def test_c_files_count_as_analyzed(self):
        sources, c_sources = load_parity_tree("clean")
        result = analyze_sources(
            sources, c_sources=c_sources, rules=PARITY_RULES, deep=True
        )
        assert result.files == len(sources) + len(c_sources)


class TestPragmaRoundTrip:
    def _drifted(self, extra=""):
        sources, c_sources = load_parity_tree("error_drift")
        (c,) = c_sources
        text = c.text.replace(
            '"cannot compute a negative cycle count: %S", thread);',
            '"cannot compute a negative cycle count: %S", thread);' + extra,
        )
        return sources, [CSourceFile.from_text(text, relpath=c.relpath)]

    def test_c_pragma_suppresses_like_python(self):
        sources, c_sources = self._drifted(" /* repro: noqa[PAR002] */")
        result = analyze_sources(
            sources, c_sources=c_sources, rules=PARITY_RULES, deep=True
        )
        assert result.findings == []
        assert "PAR002" in {f.rule for f in result.suppressed}

    def test_bare_c_pragma_suppresses_all(self):
        sources, c_sources = self._drifted(" // repro: noqa")
        result = analyze_sources(
            sources, c_sources=c_sources, rules=PARITY_RULES, deep=True
        )
        assert result.findings == []

    def test_wrong_rule_pragma_does_not_suppress(self):
        sources, c_sources = self._drifted(" /* repro: noqa[PAR001] */")
        result = analyze_sources(
            sources, c_sources=c_sources, rules=PARITY_RULES, deep=True
        )
        assert [f.rule for f in result.findings] == ["PAR002"]


class TestDeepSemantics:
    def test_parity_survives_restrict(self):
        # PAR rules are deep: a --changed run that touched only the C
        # file (or nothing at all) still reports cross-language drift.
        result = run_tree("error_drift", restrict=["src/repro/_hotcore.c"])
        assert [f.rule for f in result.findings] == ["PAR002"]
        result = run_tree("shift_drift", restrict=[])
        assert [f.rule for f in result.findings] == ["PAR003"]

    def test_partial_reference_set_skips_not_fires(self):
        # Without the full twin set the contract cannot be judged; a
        # subset lint run must not drown in false drift.
        sources, c_sources = load_parity_tree("attr_renamed")
        partial = [s for s in sources if "ringbuffer" not in s.relpath]
        result = analyze_sources(
            partial, c_sources=c_sources, rules=PARITY_RULES, deep=True
        )
        assert result.findings == []

    def test_uncontracted_c_file_is_ignored(self):
        sources, _ = load_parity_tree("clean")
        stray = CSourceFile.from_text(
            'int f(void) { return 0; }\n', relpath="src/repro/_other.c"
        )
        result = analyze_sources(
            sources, c_sources=[stray], rules=PARITY_RULES, deep=True
        )
        assert result.findings == []


class TestJsonRoundTrip:
    def test_all_par_rules_round_trip_with_traces(self):
        findings = []
        for name in (
            "attr_renamed",
            "error_drift",
            "shift_drift",
            "hook_bypass",
        ):
            findings.extend(run_tree(name).findings)
        assert sorted({f.rule for f in findings}) == PARITY_RULES
        result = AnalysisResult(
            findings=findings,
            suppressed=[],
            files=4,
            rules=tuple(PARITY_RULES),
        )
        payload = json.loads(render_json(result))
        recovered = [Finding.from_dict(row) for row in payload["findings"]]
        assert recovered == findings
        for finding in recovered:
            assert len(finding.trace) == 2  # both locations survive
