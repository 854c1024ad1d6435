"""End-to-end ``python -m repro lint`` behavior on a synthetic project."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import Finding
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


def test_lint_deep_counts_users_not_tests(tmp_path, capsys):
    # A facade export only a test imports is dead: tests are not users.
    package = tmp_path / "src" / "repro" / "widgets"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from .shapes import square\n\n__all__ = ["square"]\n'
    )
    (package / "shapes.py").write_text(
        "def square(x):\n    return x * x\n"
    )
    importer = "from repro.widgets import square\n\nassert square(3) == 9\n"
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_shapes.py").write_text(importer)
    assert _lint(tmp_path, "--deep", "--no-cache") == 1
    out = capsys.readouterr().out
    assert "API002" in out and "'square'" in out

    # An example is a user: the same import keeps the export alive.
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "shapes_demo.py").write_text(importer)
    assert _lint(tmp_path, "--deep", "--no-cache") == 0
    assert "0 findings" in capsys.readouterr().out


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


def test_lint_deep_json_carries_trace(taint_project, capsys):
    assert _lint(taint_project, "--deep", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["DET003"]
    assert payload["findings"][0]["trace"]


def test_lint_json_and_text_reports_agree(taint_project, capsys):
    # The two reports describe the same findings: every decoded JSON
    # finding prints at its location in the text report, trace and all.
    assert _lint(taint_project, "--deep", "--json", "--no-cache") == 1
    rows = json.loads(capsys.readouterr().out)["findings"]
    findings = [Finding.from_dict(row) for row in rows]
    assert findings
    assert _lint(taint_project, "--deep", "--no-cache") == 1
    text = capsys.readouterr().out
    for finding in findings:
        assert f"{finding.location}: {finding.rule}" in text
        for hop in finding.trace:
            assert f"    | {hop}" in text


@pytest.mark.parametrize("option", ["--sarif", "--export-graph"])
def test_lint_rejects_removed_output_options(option, tmp_path, capsys):
    # --json is the one machine-readable report; the SARIF and
    # call-graph outputs are gone, and asking for one is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["lint", option, str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("deep", [(), ("--deep",)])
def test_lint_root_without_default_paths_exits_2(tmp_path, capsys, deep):
    # No src/repro and no scripts under the root: an error, not a clean
    # report over zero files.
    assert main(["lint", "--root", str(tmp_path), *deep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.count("\n") == 0
    assert err.startswith("accelerometer: error: ")
    assert "src/repro" in err


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
