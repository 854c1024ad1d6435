"""Tier-1 gate: the repository satisfies its own invariant linter.

This is the test that makes every rule a *contract*: a PR reintroducing
an unseeded RNG on a simulated path, a slotless simulator class, or a
facade/__all__ mismatch fails here with the exact location and fix hint.
"""

import json
from pathlib import Path

from repro.analysis import DEFAULT_BASELINE_NAME, analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_is_lint_clean():
    result = analyze_paths(["src/repro", "scripts"], root=REPO_ROOT)
    details = "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in result.findings
    )
    assert result.clean, f"lint violations:\n{details}"


def test_repository_is_deep_lint_clean():
    # The whole-program pass has the same teeth as the per-file rules:
    # no taint path into a cache key, no cross-module unit mixing, no
    # dead facade exports, and every module inside the model.
    result = analyze_paths(
        ["src/repro", "scripts"],
        root=REPO_ROOT,
        deep=True,
        reference_paths=["tests", "examples", "benchmarks"],
    )
    details = "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in result.findings
    )
    assert result.clean, f"deep lint violations:\n{details}"
    assert not result.internal, "deep analyzer crashed on its own repo"
    # The gate, entropy and effect rules actually ran -- "clean" must
    # mean the zero-observer, entropy-budget, frozen-spec, and
    # cache-closure contracts were checked, not skipped.
    for rule in ("OBS001", "DET001", "EFF001", "EFF003", "EFF004"):
        assert rule in result.rules, f"{rule} did not run in the deep pass"


def test_shipped_baseline_is_empty():
    # Real violations get fixed, not grandfathered: the checked-in
    # baseline must stay empty so the previous test has teeth.
    baseline = REPO_ROOT / DEFAULT_BASELINE_NAME
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["entries"] == []
