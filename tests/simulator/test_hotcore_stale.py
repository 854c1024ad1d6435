"""Stale-kernel detection: the mtime guard that keeps REPRO_COMPILED=auto
from silently selecting an extension built from an older ``_hotcore.c``
or contract header."""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.simulator.hotcore import COMPILE_INPUTS, extension_is_stale, status

REPO = Path(__file__).resolve().parents[2]


def _stamp(path: Path, mtime: float) -> None:
    os.utime(path, (mtime, mtime))


class TestExtensionIsStale:
    def _built(self, tmp_path, newer=None):
        """A fresh extension next to both compile inputs, or one whose
        input *newer* was edited after the build."""
        ext = tmp_path / "_hotcore.so"
        ext.write_text("elf\n")
        _stamp(ext, 2000.0)
        for name in COMPILE_INPUTS:
            (tmp_path / name).write_text("/* input */\n")
            _stamp(tmp_path / name, 3000.0 if name == newer else 1000.0)
        return ext

    def test_no_extension_is_not_stale(self):
        assert extension_is_stale(None) is False
        assert extension_is_stale("") is False

    def test_fresh_build_is_not_stale(self, tmp_path):
        assert extension_is_stale(str(self._built(tmp_path))) is False

    @pytest.mark.parametrize("newer", COMPILE_INPUTS)
    def test_newer_source_marks_stale(self, tmp_path, newer):
        assert extension_is_stale(str(self._built(tmp_path, newer))) is True

    def test_missing_source_counts_as_fresh(self, tmp_path):
        # Packaged installs ship no .c or .h next to the .so; staleness
        # is a development guard, not an import gate.
        ext = tmp_path / "_hotcore.so"
        ext.write_text("elf\n")
        assert extension_is_stale(str(ext)) is False

    def test_explicit_source_path(self, tmp_path):
        source = tmp_path / "elsewhere.c"
        ext = self._built(tmp_path)
        source.write_text("/* kernel */\n")
        _stamp(source, 3000.0)
        assert extension_is_stale(str(ext)) is False
        assert extension_is_stale(str(ext), (str(source),)) is True


class TestStatusReportsStaleness:
    def test_status_has_stale_flag(self):
        report = status()
        assert isinstance(report["stale"], bool)
        # This process imported whatever kernel the repo has built; the
        # repo state itself must never be stale mid-test-run.
        assert report["stale"] is False


class TestBuildScriptCheckMode:
    def _script(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "build_hotcore_under_test", REPO / "scripts" / "build_hotcore.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "REPO", tmp_path)
        monkeypatch.setattr(module, "SOURCE", tmp_path / "_hotcore.c")
        monkeypatch.setattr(module, "HEADER", tmp_path / "_hotcore_contract.h")
        module.SOURCE.write_text("/* kernel */\n")
        module.HEADER.write_text(module.render_header())
        return module

    def _stamped(self, module, newer=None):
        out = module.target_path()
        out.write_text("elf\n")
        _stamp(out, 2000.0)
        for path in (module.SOURCE, module.HEADER):
            _stamp(path, 3000.0 if path.name == newer else 1000.0)
        return out

    def test_check_passes_with_no_extension(self, tmp_path, monkeypatch, capsys):
        module = self._script(tmp_path, monkeypatch)
        assert module.main(["--check"]) == 0
        assert "not built" in capsys.readouterr().out

    def test_check_passes_with_fresh_extension(
        self, tmp_path, monkeypatch, capsys
    ):
        module = self._script(tmp_path, monkeypatch)
        self._stamped(module)
        assert module.main(["--check"]) == 0
        assert "up to date" in capsys.readouterr().out

    @pytest.mark.parametrize("newer", COMPILE_INPUTS)
    def test_check_fails_on_stale_extension(
        self, tmp_path, monkeypatch, capsys, newer
    ):
        module = self._script(tmp_path, monkeypatch)
        self._stamped(module, newer)
        assert module.main(["--check"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_build_skips_a_fresh_extension(
        self, tmp_path, monkeypatch, capsys
    ):
        module = self._script(tmp_path, monkeypatch)
        self._stamped(module)
        assert module.main([]) == 0
        assert "up to date" in capsys.readouterr().out

    @pytest.mark.parametrize("newer", COMPILE_INPUTS)
    def test_build_rebuilds_after_either_input_changes(
        self, tmp_path, monkeypatch, capsys, newer
    ):
        module = self._script(tmp_path, monkeypatch)
        self._stamped(module, newer)
        monkeypatch.setattr(module, "find_compiler", lambda: None)
        assert module.main([]) == 0
        captured = capsys.readouterr()
        assert "up to date" not in captured.out
        assert "no C compiler found" in captured.err

    def test_build_renders_a_stale_header_first(
        self, tmp_path, monkeypatch, capsys
    ):
        # A header that no longer matches the table is rewritten before
        # the staleness check, so the edit also forces a rebuild.
        module = self._script(tmp_path, monkeypatch)
        self._stamped(module)
        module.HEADER.write_text("/* hand-edited */\n")
        _stamp(module.HEADER, 1000.0)
        monkeypatch.setattr(module, "find_compiler", lambda: None)
        assert module.main([]) == 0
        assert module.HEADER.read_text() == module.render_header()
        assert "rendered:" in capsys.readouterr().out
