"""Git-aware incremental mode: ``changed_python_files`` against a real
temporary repository, and the ``restrict`` semantics of the driver."""

import subprocess

import pytest

from repro.analysis import SourceFile, analyze_sources, changed_python_files
from repro.errors import ParameterError


def _git(repo, *args):
    subprocess.run(
        ["git", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.invalid",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def repo(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("B = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChangedFiles:
    def test_clean_tree_reports_nothing(self, repo):
        assert changed_python_files(repo) == []

    def test_modified_file_reported(self, repo):
        (repo / "pkg" / "a.py").write_text("A = 10\n")
        assert changed_python_files(repo) == ["pkg/a.py"]

    def test_untracked_file_reported(self, repo):
        (repo / "pkg" / "new.py").write_text("N = 3\n")
        assert changed_python_files(repo) == ["pkg/new.py"]

    def test_staged_file_reported(self, repo):
        (repo / "pkg" / "b.py").write_text("B = 20\n")
        _git(repo, "add", "pkg/b.py")
        assert changed_python_files(repo) == ["pkg/b.py"]

    def test_deleted_file_dropped(self, repo):
        (repo / "pkg" / "a.py").unlink()
        assert changed_python_files(repo) == []

    def test_non_python_changes_ignored(self, repo):
        (repo / "notes.txt").write_text("still not python\n")
        assert changed_python_files(repo) == []

    def test_explicit_base_revision(self, repo):
        (repo / "pkg" / "a.py").write_text("A = 10\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "edit")
        assert changed_python_files(repo) == []
        assert changed_python_files(repo, "HEAD~1") == ["pkg/a.py"]

    def test_sorted_output(self, repo):
        (repo / "pkg" / "z.py").write_text("Z = 1\n")
        (repo / "pkg" / "a.py").write_text("A = 10\n")
        assert changed_python_files(repo) == ["pkg/a.py", "pkg/z.py"]

    def test_deleted_file_dropped_against_older_base(self, repo):
        # The deletion is committed, so the file IS in the diff vs.
        # HEAD~1 -- status D must drop it rather than handing the
        # driver a path with nothing behind it.
        (repo / "pkg" / "a.py").unlink()
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "drop a")
        assert changed_python_files(repo, "HEAD~1") == []

    def test_renamed_file_reports_only_new_name(self, repo):
        _git(repo, "mv", "pkg/a.py", "pkg/renamed.py")
        _git(repo, "commit", "-q", "-m", "rename")
        assert changed_python_files(repo, "HEAD~1") == ["pkg/renamed.py"]

    def test_rename_with_edit_reports_only_new_name(self, repo):
        # A below-threshold similarity rename degrades to add+delete;
        # an above-threshold one is status R -- either way only the
        # surviving path may come back.
        _git(repo, "mv", "pkg/a.py", "pkg/moved.py")
        (repo / "pkg" / "moved.py").write_text("A = 1\nEXTRA = 2\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "move and edit")
        assert changed_python_files(repo, "HEAD~1") == ["pkg/moved.py"]

    def test_path_with_spaces_survives_quoting(self, repo):
        # git quotes unusual paths in line-oriented output; the
        # NUL-delimited protocol must hand them back verbatim.
        (repo / "pkg" / "odd name.py").write_text("ODD = 1\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "odd")
        (repo / "pkg" / "odd name.py").write_text("ODD = 2\n")
        assert changed_python_files(repo) == ["pkg/odd name.py"]

    def test_non_repo_root_raises_parameter_error(self, tmp_path):
        outside = tmp_path / "plain"
        outside.mkdir()
        with pytest.raises(ParameterError, match="git"):
            changed_python_files(outside)


VIOLATION = """\
import time


def simulate_step():
    now = time.time()
    return now
"""


class TestRestrictSemantics:
    def _sources(self):
        return [
            SourceFile.from_text(
                VIOLATION, relpath="src/repro/simulator/one.py"
            ),
            SourceFile.from_text(
                VIOLATION, relpath="src/repro/simulator/two.py"
            ),
        ]

    def test_per_file_findings_narrow_to_changed_set(self):
        everything = analyze_sources(self._sources())
        assert {f.path for f in everything.findings} == {
            "src/repro/simulator/one.py",
            "src/repro/simulator/two.py",
        }
        narrowed = analyze_sources(
            self._sources(), restrict=["src/repro/simulator/two.py"]
        )
        assert {f.path for f in narrowed.findings} == {
            "src/repro/simulator/two.py"
        }

    def test_deep_findings_survive_restriction(self, deep_sources):
        # The taint path's sink file is NOT in the changed set; the
        # finding must survive anyway -- interprocedural properties do
        # not respect diff boundaries.
        result = analyze_sources(
            deep_sources("taint_fires"),
            deep=True,
            restrict=["src/repro/util/stamp.py"],
        )
        assert [f.rule for f in result.findings] == ["DET003"]

    def test_empty_restriction_keeps_only_deep(self, deep_sources):
        result = analyze_sources(
            deep_sources("taint_fires"), deep=True, restrict=[]
        )
        assert [f.rule for f in result.findings] == ["DET003"]
