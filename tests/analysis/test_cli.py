"""End-to-end ``python -m repro lint`` behavior on a synthetic project."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.cli import main

DEEP_FIXTURES = Path(__file__).parent / "fixtures" / "deep"

VIOLATION = "import time\n\n\ndef stamp():\n    return time.time()\n"
CLEAN = "def stamp(now):\n    return now\n"


@pytest.fixture
def project(tmp_path):
    package = tmp_path / "src" / "repro" / "runtime"
    package.mkdir(parents=True)
    (package / "clock.py").write_text(VIOLATION)
    (package / "fine.py").write_text(CLEAN)
    return tmp_path


def _lint(project, *extra):
    return main(["lint", "--root", str(project), "src", *extra])


def test_lint_exit_codes(project, capsys):
    assert _lint(project) == 1
    out = capsys.readouterr().out
    assert "src/repro/runtime/clock.py:5:" in out
    assert "DET001" in out

    (project / "src" / "repro" / "runtime" / "clock.py").write_text(CLEAN)
    assert _lint(project) == 0


def test_lint_json_output(project, capsys):
    assert _lint(project, "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert [f["rule"] for f in payload["findings"]] == ["DET001"]


def test_lint_rules_filter(project):
    # PERF001 cannot fire on this tree, so filtering to it passes.
    assert _lint(project, "--rules", "PERF001") == 0
    assert _lint(project, "--rules", "DET001") == 1


def test_lint_list_rules(project, capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("DET001", "DET002", "SPEC001", "PERF001", "UNIT001",
                 "API001"):
        assert name in out


@pytest.mark.parametrize("retired", ["OBS002", "EFF002"])
def test_lint_rejects_retired_rule_ids(retired, capsys):
    # OBS002 became part of OBS001 and EFF002 part of DET001; naming a
    # retired ID is the ordinary one-line unknown-rule error.
    assert main(["lint", "--rules", retired]) == 2
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0
    assert f"unknown rule {retired!r}" in err


def test_lint_baseline_workflow(project, capsys):
    # Record the pre-existing violation ...
    assert _lint(project, "--write-baseline") == 0
    baseline = project / "lint-baseline.json"
    assert baseline.is_file()
    capsys.readouterr()

    # ... the default run now picks the baseline up and passes ...
    assert _lint(project) == 0
    assert "1 baselined" in capsys.readouterr().out

    # ... --no-baseline still exposes it ...
    assert _lint(project, "--no-baseline") == 1

    # ... and a *new* violation fails even with the baseline active.
    (project / "src" / "repro" / "runtime" / "fine.py").write_text(VIOLATION)
    assert _lint(project) == 1


@pytest.fixture
def taint_project(tmp_path):
    shutil.copytree(DEEP_FIXTURES / "taint_fires", tmp_path / "proj")
    return tmp_path / "proj"


def test_lint_deep_flag(taint_project, capsys):
    # The per-file rules cannot see the cross-module clock read ...
    assert _lint(taint_project) == 0
    capsys.readouterr()
    # ... the deep pass can, and prints the call chain.
    assert _lint(taint_project, "--deep") == 1
    out = capsys.readouterr().out
    assert "DET003" in out
    assert "-> calls repro.util.stamp.build_salt" in out


def test_lint_list_rules_tags_deep(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET003" in out and "deep" in out


def test_lint_sarif_output(taint_project, capsys):
    target = taint_project / "report.sarif"
    assert _lint(taint_project, "--deep", "--sarif", str(target)) == 1
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["version"] == "2.1.0"
    [run] = payload["runs"]
    assert [r["ruleId"] for r in run["results"]] == ["DET003"]
    assert run["results"][0]["properties"]["trace"]


def test_lint_sarif_stdout(taint_project, capsys):
    assert _lint(taint_project, "--deep", "--sarif", "-") == 1
    out = capsys.readouterr().out
    assert '"$schema"' in out


def test_lint_export_graph(taint_project, capsys):
    out_dir = taint_project / "graphs"
    assert _lint(taint_project, "--export-graph", str(out_dir)) == 0
    first = (out_dir / "callgraph.json").read_bytes()
    assert (out_dir / "callgraph.dot").exists()
    payload = json.loads(first)
    assert payload["counts"]["edges"] >= 2
    # Re-export is byte-identical.
    assert _lint(taint_project, "--export-graph", str(out_dir)) == 0
    assert (out_dir / "callgraph.json").read_bytes() == first


def test_lint_changed_narrows_per_file_findings(project, capsys):
    def git(*args):
        subprocess.run(
            ["git", *args], cwd=project, check=True, capture_output=True,
            env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.invalid",
                 "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.invalid",
                 "HOME": str(project), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    # Nothing changed: the pre-existing violation is out of scope.
    assert _lint(project, "--changed") == 0
    capsys.readouterr()
    # Touch the violating file: it is back in scope.
    clock = project / "src" / "repro" / "runtime" / "clock.py"
    clock.write_text(clock.read_text() + "\n")
    assert _lint(project, "--changed") == 1
    assert "DET001" in capsys.readouterr().out


def test_lint_internal_error_exits_2(taint_project, capsys, monkeypatch):
    from repro.analysis.rules import deep as deep_rules

    def boom(self, context):
        raise RuntimeError("synthetic analyzer bug")

    monkeypatch.setattr(deep_rules.DeepCoverage, "check_project", boom)
    assert _lint(taint_project, "--deep") == 2
    out = capsys.readouterr().out
    assert "internal analyzer error" in out
    assert "DEEP001 crashed" in out
