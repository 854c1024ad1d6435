"""DET003/UNIT002 on the shared dataflow framework are byte-identical
to the pre-framework ad-hoc propagators.

``fixtures/pinned_deep.json`` was captured by running the original BFS
taint pass and the original signature-deriving unit-flow pass over
every deep fixture tree.  The reimplementation on
:mod:`repro.analysis.dataflow` must reproduce those findings, as
:meth:`Finding.to_dict` rows, exactly; any drift here is a behavior
change in the refactor, not an improvement.
"""

import json

import pytest

from repro.analysis import Finding, analyze_sources, render_json

from .conftest import FIXTURES, load_deep_sources

PINNED = json.loads(
    (FIXTURES / "pinned_deep.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("tree", sorted(PINNED))
def test_findings_match_pinned(tree):
    result = analyze_sources(
        load_deep_sources(tree), deep=True, rules=["DET003", "UNIT002"]
    )
    assert not result.internal
    assert [f.to_dict() for f in result.findings] == PINNED[tree]["findings"]


@pytest.mark.parametrize("tree", sorted(PINNED))
def test_json_report_matches_pinned(tree):
    # The --json report carries the pinned findings losslessly: its rows
    # are the pinned rows, and they decode back to the analyzed findings.
    result = analyze_sources(
        load_deep_sources(tree), deep=True, rules=["DET003", "UNIT002"]
    )
    rows = json.loads(render_json(result))["findings"]
    assert rows == PINNED[tree]["findings"]
    assert [Finding.from_dict(row) for row in rows] == result.findings


def test_pinned_corpus_is_not_vacuous():
    # The capture must include at least one firing tree per rule, or
    # the byte-identity claim proves nothing.
    rules = {
        finding["rule"]
        for tree in PINNED.values()
        for finding in tree["findings"]
    }
    # (The degraded tree also pins a PARSE finding riding along.)
    assert {"DET003", "UNIT002"} <= rules
