"""The CLI's visible surface: help text, parsing and error reporting.

``tests/fixtures/cli_help.json`` pins ``format_help()`` of the top-level
parser (key ``""``) and of every subcommand at 80 columns.  Regenerate it
only for an intended change to the surface::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

FIXTURE = Path(__file__).parent / "fixtures" / "cli_help.json"
COLUMNS = "80"

#: Every command line that tests/test_cli.py parses or runs.
TEST_CLI_ARGVS = [
    ["table1"], ["table4"], ["table6"], ["table7"],
    ["fig1"], ["fig2"], ["fig3"], ["fig4"], ["fig5"], ["fig6"], ["fig7"],
    ["fig8"], ["fig9"], ["fig10"], ["fig15"], ["fig16"], ["fig19"],
    ["fig20"], ["fig21"], ["fig22"],
    ["project", "--alpha", "0.1", "--n", "10", "--a", "2"],
    ["fleet", "--speedups", "web=1.1"],
    ["project", "--alpha", "0.15", "--n", "15008", "--a", "5",
     "--c", "2.3e9", "--design", "sync", "--placement", "on-chip"],
    ["fleet", "--speedups", "web=1.1,cache1=1.14"],
    ["bounds", "--alpha", "0.15", "--n", "9629", "--a", "27",
     "--c", "2.3e9", "--l", "2300", "--cb", "5.62"],
    ["bounds", "--alpha", "0.15", "--n", "9629", "--a", "27",
     "--c", "2.3e9", "--l", "2300"],
    ["sensitivity", "--alpha", "0.15", "--n", "9629", "--a", "27",
     "--c", "2.3e9", "--l", "2300"],
    ["batch", "--alpha", "0.52", "--n", "1000", "--a", "1",
     "--c", "2.5e9", "--o0", "250000", "--o1", "12500",
     "--design", "async-distinct-thread", "--placement", "remote"],
    ["workloads"],
    ["demand-risk", "--growths", "0.5,1.0,2.0"],
    ["capacity", "--n", "9629", "--service-cycles", "800",
     "--c", "2.3e9", "--q-budget", "200"],
    ["fig9", "--services", "cache2"],
    ["fig1", "--services", "cache2"],
    ["simulate", "--shared-device", "--tenants", "2",
     "--batch-size", "4", "--drop", "0.1"],
    ["contention", "--tenants", "1,2", "--output", "contention.json"],
    ["trace", "--service", "cache1", "--requests", "20",
     "--windows", "8", "--output", "trace-out"],
    ["simulate", "--drop", "0.2", "--timeout", "2000",
     "--trace-out", "cell.json", "--metrics-out", "cell-metrics.json"],
]

#: The operations of the six end-to-end benchmark workloads (seed 2020).
BENCH_ARGVS = [
    ["characterize", "--no-cache", "--requests", "50", "--seed", "2020"],
    ["validate-matrix", "--no-cache"],
    ["table6", "--no-cache", "--seed", "2020"],
    ["contention", "--seed", "2020"],
    ["resilience", "--no-cache", "--seed", "2020"],
    ["simulate", "--shared-device", "--tenants", "4", "--batch-size", "4",
     "--drop", "0.1", "--design", "async", "--seed", "2020"],
    ["characterize", "--requests", "20", "--workers", "2", "--seed", "2020"],
    ["validate-matrix", "--workers", "2"],
    ["trace", "--service", "feed2", "--requests", "200", "--windows", "20",
     "--seed", "2020", "--output", "tmp/trace"],
    ["lint", "--deep", "--cache-dir", "tmp/lint-cache"],
]


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action


def help_surface(parser: argparse.ArgumentParser) -> dict:
    """``format_help()`` of ``parser`` and of each of its subcommands."""
    surface = {"": parser.format_help()}
    for name, subparser in _subparsers(parser).choices.items():
        surface[name] = subparser.format_help()
    return surface


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


class TestHelpSurface:
    def test_full_build_matches_fixture(self, columns):
        assert help_surface(build_parser()) == json.loads(FIXTURE.read_text())

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_single_command_help_is_identical(self, columns, name):
        full = _subparsers(build_parser()).choices[name].format_help()
        single = _subparsers(build_parser(name)).choices[name].format_help()
        assert single == full

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_single_build_has_one_choice(self, name):
        assert list(_subparsers(build_parser(name)).choices) == [name]


class TestParsing:
    @pytest.mark.parametrize(
        "argv", TEST_CLI_ARGVS + BENCH_ARGVS, ids=" ".join)
    def test_single_build_parses_like_full_build(self, argv):
        single = vars(build_parser(argv[0]).parse_args(argv))
        assert single == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["table1", "--bogus"],
        ["fleet"],
        ["project", "--alpha", "x", "--n", "1", "--a", "2"],
    ], ids=" ".join)
    def test_usage_errors_are_unchanged(self, columns, capsys, argv):
        """A usage error past the command name prints the top-level usage
        line, which must still list every command."""
        outputs = []
        for parser in (build_parser(), build_parser(argv[0])):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(argv)
            assert exit_info.value.code == 2
            outputs.append(capsys.readouterr().err)
        assert outputs[0] == outputs[1]


def test_analyzer_is_not_imported_for_other_commands():
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['table1']) == 0\n"
        "assert 'repro.analysis' not in sys.modules, 'analyzer imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr


class TestErrors:
    @pytest.mark.parametrize("argv, prefix", [
        (["fleet", "--speedups", "web"], "--speedups: malformed pair 'web',"),
        (["fleet", "--speedups", "web=x"],
         "--speedups: malformed pair 'web=x',"),
        (["validate-matrix", "--workers", "0"], "workers must be >= 1"),
        (["characterize", "--services", "nosuch", "--no-cache",
          "--requests", "5"], "unknown service 'nosuch'"),
    ], ids=["pair-without-value", "pair-with-bad-value", "zero-workers",
            "unknown-service"])
    def test_domain_errors_print_one_line(self, capsys, argv, prefix):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith(f"accelerometer: error: {prefix}")


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(help_surface(build_parser()), indent=1)
                       + "\n")
    print(f"wrote {FIXTURE}")
