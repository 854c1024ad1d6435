"""SARIF 2.1.0 export: structure, determinism, and the lossless
finding round trip."""

import json

import pytest

from repro.analysis import (
    AnalysisResult,
    Finding,
    Severity,
    render_sarif,
)
from repro.analysis.sarif import sarif_findings

from .conftest import load_deep_sources

FINDINGS = [
    Finding(
        rule="DET003",
        path="src/repro/runtime/spec.py",
        line=11,
        column=0,
        message="cache key reaches time.time through 2 calls",
        hint="thread the value through the RunSpec",
        severity=Severity.ERROR,
        trace=(
            "repro.runtime.spec.make_cache_key [cache-key construction]",
            "-> calls repro.util.stamp.build_salt",
            "** call to time.time (wall-clock read)",
        ),
    ),
    Finding(
        rule="API002",
        path="src/repro/core/__init__.py",
        line=7,
        column=0,
        message="facade export 'ghost' is referenced by no analyzed module",
        hint="drop the export",
        severity=Severity.WARNING,
    ),
    Finding(
        rule="UNIT001",
        path="src/repro/model/overheads.py",
        line=3,
        column=8,
        message="advisory note",
        severity=Severity.INFO,
    ),
]


def _result(findings):
    return AnalysisResult(
        findings=list(findings),
        suppressed=[],
        files=len({f.path for f in findings}),
        rules=tuple(sorted({f.rule for f in findings})),
    )


class TestRoundTrip:
    def test_lossless_for_every_field(self):
        text = render_sarif(_result(FINDINGS))
        assert sarif_findings(text) == FINDINGS

    def test_lossless_without_hint_or_trace(self):
        bare = [
            Finding(
                rule="EQ001",
                path="src/x.py",
                line=1,
                column=0,
                message="m",
            )
        ]
        assert sarif_findings(render_sarif(_result(bare))) == bare

    @pytest.mark.parametrize(
        "severity", [Severity.ERROR, Severity.WARNING, Severity.INFO]
    )
    def test_severity_survives(self, severity):
        finding = Finding(
            rule="R", path="p.py", line=2, column=5, message="m",
            severity=severity,
        )
        [back] = sarif_findings(render_sarif(_result([finding])))
        assert back.severity is severity

    def test_real_deep_run_round_trips(self):
        from repro.analysis import analyze_sources

        result = analyze_sources(
            load_deep_sources("taint_fires"), deep=True
        )
        assert result.findings  # the fixture fires
        assert sarif_findings(render_sarif(result)) == result.findings


class TestStructure:
    def test_envelope(self):
        payload = json.loads(render_sarif(_result(FINDINGS)))
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        [run] = payload["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"

    def test_rule_descriptors_carry_descriptions(self):
        payload = json.loads(render_sarif(_result(FINDINGS)))
        [run] = payload["runs"]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert set(rules) == {"DET003", "API002", "UNIT001"}
        assert "shortDescription" in rules["DET003"]
        assert "fullDescription" in rules["DET003"]

    def test_columns_are_one_based_in_sarif(self):
        payload = json.loads(render_sarif(_result(FINDINGS)))
        [run] = payload["runs"]
        info = next(
            r for r in run["results"] if r["ruleId"] == "UNIT001"
        )
        region = info["locations"][0]["physicalLocation"]["region"]
        assert region["startColumn"] == 9  # finding column 8, 0-based

    def test_output_deterministic(self):
        result = _result(FINDINGS)
        assert render_sarif(result) == render_sarif(result)
