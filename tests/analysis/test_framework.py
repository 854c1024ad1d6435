"""Framework plumbing: suppressions, rule selection, parse errors, and
reporters."""

import json

import pytest

from repro.analysis import (
    Finding,
    SourceFile,
    analyze_sources,
    parse_suppressions,
    render_json,
    render_text,
    resolve_rules,
)
from repro.errors import ParameterError

RUNTIME = "src/repro/runtime/fixture.py"

VIOLATION = "import time\n\n\ndef stamp():\n    return time.time()\n"


def _analyze(text, relpath=RUNTIME, rules=("DET001",)):
    source = SourceFile.from_text(text, relpath=relpath)
    return analyze_sources([source], rules=list(rules))


# -- suppressions -----------------------------------------------------------


def test_parse_suppressions_variants():
    table = parse_suppressions(
        "a = 1\n"
        "b = 2  # repro: noqa\n"
        "c = 3  # repro: noqa[DET001]\n"
        "d = 4  # repro: noqa[det001, perf001]\n"
    )
    assert 1 not in table
    assert "*" in table[2]
    assert table[3] == frozenset({"DET001"})
    assert table[4] == frozenset({"DET001", "PERF001"})


def test_targeted_pragma_suppresses_only_named_rule():
    text = VIOLATION.replace(
        "return time.time()", "return time.time()  # repro: noqa[DET001]"
    )
    result = _analyze(text)
    assert result.clean
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "DET001"


def test_bare_pragma_suppresses_everything():
    text = VIOLATION.replace(
        "return time.time()", "return time.time()  # repro: noqa"
    )
    result = _analyze(text)
    assert result.clean and len(result.suppressed) == 1


def test_mismatched_pragma_does_not_suppress():
    text = VIOLATION.replace(
        "return time.time()", "return time.time()  # repro: noqa[PERF001]"
    )
    result = _analyze(text)
    assert not result.clean
    assert not result.suppressed


def test_pragma_on_any_line_of_multiline_statement_anchors():
    # The finding is reported at the statement's first line; the pragma
    # sits on a *continuation* line.  Statement-span anchoring must
    # connect the two.
    text = (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return max(\n"
        "        time.time(),  # repro: noqa[DET001]\n"
        "        0.0,\n"
        "    )\n"
    )
    result = _analyze(text)
    assert result.clean
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "DET001"


def test_pragma_on_first_line_covers_continuation_findings():
    # Converse direction: pragma on the opening line, finding anchored
    # on a later line of the same statement.
    text = (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return max(  # repro: noqa[DET001]\n"
        "        time.time(),\n"
        "        0.0,\n"
        "    )\n"
    )
    source = SourceFile.from_text(text, relpath=RUNTIME)
    assert source.is_suppressed("DET001", 6)


def test_pragma_inside_block_does_not_silence_whole_block():
    # Compound statements own only their header lines: a pragma on one
    # body statement must not leak to its siblings.
    text = (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    a = time.time()  # repro: noqa[DET001]\n"
        "    b = time.time()\n"
        "    return a + b\n"
    )
    result = _analyze(text)
    assert [f.line for f in result.findings] == [6]
    assert [f.line for f in result.suppressed] == [5]


def test_unparsable_file_keeps_exact_line_pragmas():
    text = "x = (  # repro: noqa[PARSE]\n"  # unterminated -> parse error
    source = SourceFile.from_text(text, relpath=RUNTIME)
    assert source.parse_error is not None
    assert source.is_suppressed("PARSE", 1)
    assert not source.is_suppressed("PARSE", 2)


# -- rule selection and parse errors ---------------------------------------


def test_resolve_rules_rejects_unknown_names():
    with pytest.raises(ParameterError, match="unknown rule"):
        resolve_rules(["NOPE999"])


def test_rules_filter_limits_what_runs():
    # PERF001 would fire on this simulator-scoped class, DET001 cannot.
    text = "class Box:\n    def __init__(self):\n        self.x = 1\n"
    result = _analyze(text, relpath="src/repro/simulator/box.py",
                      rules=("DET001",))
    assert result.clean
    assert result.rules == ("DET001",)


def test_syntax_errors_surface_as_parse_findings():
    result = _analyze("def broken(:\n")
    assert [f.rule for f in result.findings] == ["PARSE"]


# -- reporters --------------------------------------------------------------


def test_text_report_locations_are_clickable():
    result = _analyze(VIOLATION)
    report = render_text(result)
    # path:line:column prefix -- terminals and editors link this form.
    assert f"{RUNTIME}:5:" in report
    assert "DET001" in report
    assert "1 finding" in report


def test_json_report_shape():
    payload = json.loads(render_json(_analyze(VIOLATION)))
    assert payload["clean"] is False
    assert payload["files"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["path"] == RUNTIME
    assert finding["line"] == 5
    assert finding["severity"] == "error"


def test_finding_sorting_is_stable():
    findings = [
        Finding(rule="B", path="b.py", line=1, column=0, message="m"),
        Finding(rule="A", path="a.py", line=9, column=0, message="m"),
        Finding(rule="A", path="a.py", line=2, column=0, message="m"),
    ]
    ordered = sorted(findings, key=Finding.sort_key)
    assert [(f.path, f.line) for f in ordered] == [
        ("a.py", 2), ("a.py", 9), ("b.py", 1)
    ]
