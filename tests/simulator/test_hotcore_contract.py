"""The compiled core's contract, checked without a C toolchain.

``_hotcore.c`` spells no name, module or message its Python twins also
spell: it includes ``_hotcore_contract.h``, which
``scripts/build_hotcore.py`` renders from the table in
:mod:`repro.simulator.hotcore`.  These tests pin each link of that
chain: the committed header is a fresh render, every row names
something its Python twins define, the C source spells nothing the
header should, and every hook ``CPU._advance`` fires names an attribute
the C core reads (or is marked as running only on the pure engine).
"""

import ast
import importlib
import importlib.util
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from repro.simulator import hotcore
from repro.simulator.cpu import CPU

REPO = Path(__file__).resolve().parents[2]
SOURCE = REPO / "src" / "repro" / "_hotcore.c"
HEADER = SOURCE.with_name("_hotcore_contract.h")

#: Marks a hook in ``CPU._advance`` that the compiled core deliberately
#: leaves to the interpreter.
FALLBACK = "# repro: compiled-fallback"

#: Hook roots in ``CPU._advance``: a chain through one of these touches
#: tracer or metrics state.
HOOK_ROOTS = {"trace", "metrics"}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
ARG_COUNT = re.compile(r"\w+\(\) takes ")
ARG_FORMAT = re.compile(r"[|$()#A-Za-z]+")
#: What may stand before a docstring: a method or getset table's flag
#: or setter slot, or a type's or module's doc slot.
DOC_SLOT = re.compile(r"(?:METH_\w+\s*,|NULL\s*,|\.tp_doc\s*=|\.m_doc\s*=)$")
ERROR_CALL = re.compile(r"PyErr_(?:SetString|Format)\(\s*(\w+)\s*,$")


def build_script():
    spec = importlib.util.spec_from_file_location(
        "build_hotcore_contract", REPO / "scripts" / "build_hotcore.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(twin: str):
    module, _, qualname = twin.partition(":")
    owner = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part)
    return owner


def defines(twin, name: str) -> bool:
    if inspect.isfunction(twin):
        return (
            name in inspect.signature(twin).parameters
            or name in twin.__code__.co_consts
        )
    return hasattr(twin, name)


def c_code(text: str) -> str:
    """*text* with comments and ``#include`` lines blanked, offsets kept."""
    token = re.compile(
        r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S
    )

    def blank(match):
        found = match.group()
        if found.startswith("/"):
            return re.sub(r"[^\n]", " ", found)
        return found

    code = token.sub(blank, text)
    return re.sub(r"^#\s*include[^\n]*", lambda m: " " * len(m.group()),
                  code, flags=re.M)


def c_literals(code: str):
    """``(code before, value)`` per string literal, adjacent ones joined."""
    for run in re.finditer(r'(?:"(?:\\.|[^"\\\n])*"\s*)+', code):
        parts = re.findall(r'"((?:\\.|[^"\\\n])*)"', run.group())
        yield code[: run.start()].rstrip(), "".join(parts)


def test_committed_header_is_a_fresh_render():
    assert HEADER.read_text(encoding="utf-8") == build_script().render_header(), (
        "_hotcore_contract.h differs from the contract table; rerun "
        "`python scripts/build_hotcore.py`"
    )


def test_every_name_exists_on_its_python_twins():
    missing = [
        f"{name.text!r} on {twin}"
        for name in hotcore.ATTRIBUTES + hotcore.EXPOSED
        for twin in name.twins
        if not defines(resolve(twin), name.text)
    ]
    assert not missing, f"renamed or removed on the Python side: {missing}"
    for module in hotcore.MODULES:
        importlib.import_module(module)
    package, _, stem = hotcore.EXTENSION.rpartition(".")
    assert package == "repro" and SOURCE.name == f"{stem}.c"


def test_every_twinned_message_is_raised_from_the_table():
    for message in hotcore.Message:
        for twin in message.value[2]:
            assert f"Message.{message.name}" in inspect.getsource(
                resolve(twin)
            ), f"{twin} no longer raises {message.name}"


def test_c_source_spells_only_formats_argument_counts_and_docs():
    code = c_code(SOURCE.read_text(encoding="utf-8"))
    wrong = []
    for before, value in c_literals(code):
        if IDENTIFIER.fullmatch(value):
            wrong.append(f"name {value!r}")
        elif ERROR_CALL.search(before):
            if not ARG_COUNT.match(value):
                wrong.append(f"message {value!r}")
        elif not (ARG_FORMAT.fullmatch(value) or DOC_SLOT.search(before)):
            wrong.append(f"literal {value!r}")
    assert not wrong, (
        f"_hotcore.c spells {wrong}; add a row to the contract table in "
        "repro/simulator/hotcore.py and use its header macro"
    )


def test_c_source_raises_each_message_as_its_table_exception():
    code = c_code(SOURCE.read_text(encoding="utf-8"))
    raised = re.findall(
        r"PyErr_(?:SetString|Format)\(\s*(\w+)\s*,\s*HC_ERR_(\w+)", code
    )
    assert {name for _, name in raised} == {m.name for m in hotcore.Message}
    for exception, name in raised:
        expected = hotcore.Message[name].value[0].__name__
        assert exception in (expected, f"PyExc_{expected}"), (name, exception)


def test_c_source_uses_every_header_name():
    header = HEADER.read_text(encoding="utf-8")
    names = re.findall(r"#define (HC_\w+) \"", header)
    names += re.findall(r"X\((str_\w+),", header)
    code = c_code(SOURCE.read_text(encoding="utf-8"))
    unused = [name for name in names if not re.search(rf"\b{name}\b", code)]
    assert not unused, f"contract rows _hotcore.c never uses: {unused}"


def hooks(function):
    """``(chain, line text)`` per tracer/metrics hook in *function*."""
    source = textwrap.dedent(inspect.getsource(function))
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.insert(0, node.id)
            if HOOK_ROOTS & set(chain[:-1]):
                yield chain, lines[node.lineno - 1]


def test_hot_path_hooks_name_attributes_the_c_core_reads():
    attributes = {name.text for name in hotcore.ATTRIBUTES}
    found = list(hooks(CPU._advance))
    assert found, "no hooks found: the hook scan no longer reads CPU._advance"
    unmirrored = [
        ".".join(chain)
        for chain, line in found
        if chain[-1] not in attributes and FALLBACK not in line
    ]
    assert not unmirrored, (
        f"CPU._advance fires {unmirrored}, which the compiled core does "
        f"not mirror; add it to hotcore.ATTRIBUTES and the C advance, or "
        f"mark the line '{FALLBACK}'"
    )


@pytest.mark.parametrize(
    "template, c_format",
    [
        ("{thread} advanced", '"%S advanced"'),
        ("{type:.200s} object", '"%.200s object"'),
        ('say "{x}"', '"say \\"%S\\""'),
    ],
)
def test_templates_render_as_c_formats(template, c_format):
    assert build_script().c_template(template) == c_format
