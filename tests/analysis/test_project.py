"""The whole-program model: module names, resolution, usage, liveness."""

import ast
from pathlib import Path

import pytest

from repro.analysis import ProjectModel, SourceFile, module_name_for
from repro.analysis.cli import REFERENCE_PATHS
from repro.analysis.engine import load_sources
from repro.analysis.project import _dotted

from .conftest import FIXTURES, load_deep_sources


def _model(*files, reference=()):
    sources = [
        SourceFile.from_text(text, relpath=relpath) for relpath, text in files
    ]
    references = [
        SourceFile.from_text(text, relpath=relpath)
        for relpath, text in reference
    ]
    return ProjectModel.build(sources, references)


class TestModuleNames:
    @pytest.mark.parametrize(
        "relpath,expected",
        [
            ("src/repro/simulator/service.py", "repro.simulator.service"),
            ("src/repro/core/__init__.py", "repro.core"),
            ("src/repro/__init__.py", "repro"),
            ("scripts/bench_runtime.py", "scripts.bench_runtime"),
            ("tests/analysis/conftest.py", "tests.analysis.conftest"),
        ],
    )
    def test_derivation(self, relpath, expected):
        assert module_name_for(relpath) == expected

    def test_non_module_paths(self):
        assert module_name_for("README.md") is None
        assert module_name_for("src/has-dash/x.py") is None

    def test_collision_lands_in_skipped(self):
        model = _model(
            ("src/repro/a.py", "X = 1\n"),
            ("repro/a.py", "X = 2\n"),
        )
        assert len(model.modules) == 1
        assert any("collides" in reason for _, reason in model.skipped)

    def test_parse_failure_lands_in_skipped(self):
        model = _model(("src/repro/bad.py", "def broken(:\n"))
        assert model.modules == {}
        [(relpath, reason)] = model.skipped
        assert relpath == "src/repro/bad.py"
        assert "does not parse" in reason


FACADE = """\
from .impl import thing

__all__ = ["thing"]
"""

IMPL = """\
def thing():
    return 1


def helper():
    return thing()
"""


class TestResolution:
    def test_through_facade_chain(self):
        model = _model(
            ("src/pkg/sub/__init__.py", FACADE),
            ("src/pkg/sub/impl.py", IMPL),
        )
        resolution = model.resolve_dotted("pkg.sub.thing")
        assert resolution.kind == "function"
        assert resolution.fq == "pkg.sub.impl.thing"

    def test_external_and_broken(self):
        model = _model(("src/pkg/sub/__init__.py", FACADE))
        assert model.resolve_dotted("os.path.join").kind == "external"
        broken = model.resolve_dotted("pkg.sub.thing")
        assert not broken.resolved
        assert broken.broken_chain

    def test_relative_imports_absolutized(self):
        model = _model(
            ("src/pkg/deep/mod.py", "from ..util import helper\n"),
            ("src/pkg/util.py", "def helper():\n    return 1\n"),
        )
        module = model.modules["pkg.deep.mod"]
        assert module.imports["helper"] == "pkg.util.helper"
        assert model.resolve_name(module, "helper").fq == "pkg.util.helper"

    def test_symbol_shadowing_submodule_wins(self):
        # ``from .sweep import sweep`` rebinds the submodule's name on
        # the package: attribute access must yield the function.
        model = _model(
            ("src/pkg/__init__.py", "from .sweep import sweep\n"),
            ("src/pkg/sweep.py", "def sweep():\n    return 1\n"),
        )
        resolution = model.resolve_dotted("pkg.sweep")
        assert resolution.kind == "function"
        assert resolution.fq == "pkg.sweep.sweep"

    def test_unshadowed_submodule_stays_a_module(self):
        model = _model(
            ("src/pkg/__init__.py", "from . import sweep\n"),
            ("src/pkg/sweep.py", "def run():\n    return 1\n"),
        )
        assert model.resolve_dotted("pkg.sweep").kind == "module"


CLASSY = """\
class Device:
    def service(self):
        return 1


class Host:
    def __init__(self, device: Device):
        self.device = device

    def run(self):
        return self.device.service()
"""


class TestClassStructure:
    def test_attr_type_from_annotated_param(self):
        model = _model(("src/pkg/hw.py", CLASSY))
        host = model.modules["pkg.hw"].classes["Host"]
        resolved = model.attr_type(host, "device")
        assert resolved is not None and resolved.name == "Device"

    def test_find_method_through_mro(self):
        model = _model(
            (
                "src/pkg/hw.py",
                "class Base:\n"
                "    def ping(self):\n"
                "        return 1\n"
                "\n"
                "\n"
                "class Leaf(Base):\n"
                "    pass\n",
            )
        )
        leaf = model.modules["pkg.hw"].classes["Leaf"]
        method = model.find_method(leaf, "ping")
        assert method is not None
        assert method.fq == "pkg.hw.Base.ping"


class TestUsageAndLiveness:
    def test_usage_index_sees_reference_sources(self):
        model = _model(
            ("src/pkg/sub/__init__.py", FACADE),
            ("src/pkg/sub/impl.py", IMPL),
            reference=(
                (
                    "tests/test_thing.py",
                    "from pkg.sub import thing\n\n\n"
                    "def test_thing():\n    assert thing() == 1\n",
                ),
            ),
        )
        usage = model.usage_index()
        assert "tests.test_thing" in usage["pkg.sub.impl.thing"]

    def test_definition_refs_connect_function_to_result_class(self):
        model = _model(
            (
                "src/pkg/api.py",
                "class Result:\n"
                "    pass\n"
                "\n"
                "\n"
                "def compute():\n"
                "    return Result()\n",
            )
        )
        refs = model.definition_refs()
        assert refs["pkg.api.compute"] == ["pkg.api.Result"]

    def test_loose_refs_see_registry_wiring(self):
        model = _model(
            (
                "src/pkg/reg.py",
                "REGISTRY = {}\n"
                "\n"
                "\n"
                "def handler():\n"
                "    return 1\n"
                "\n"
                "\n"
                "REGISTRY.setdefault('h', handler)\n",
            )
        )
        assert "pkg.reg.handler" in model.loose_refs()

    def test_string_mentions_skip_all_lists(self):
        model = _model(
            (
                "src/pkg/__init__.py",
                "from .impl import thing\n\n"
                "__all__ = ['thing']\n",
            ),
            ("src/pkg/impl.py", IMPL),
            reference=(
                (
                    "tests/test_dyn.py",
                    "import pkg\n\n\n"
                    "def test_dyn():\n"
                    "    assert getattr(pkg, 'thing')() == 1\n",
                ),
            ),
        )
        mentions = model.string_mentions()
        # The getattr literal counts; the __all__ entry does not.
        assert mentions["thing"] == ["tests.test_dyn"]


def _definition_refs_oracle(model):
    """The straightforward scan: walk every definition with ``ast.walk``
    and resolve each ``Name``/``Attribute`` node on its own."""
    refs = {}

    def scan(owner, module, root):
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
            elif isinstance(node, ast.Name):
                dotted = node.id
            else:
                continue
            if dotted is None:
                continue
            resolution = model._resolve_in(
                module, dotted.split("."), f"{module.name}.{dotted}", 0
            )
            if (
                resolution.kind in ("function", "class", "constant")
                and resolution.fq != owner
            ):
                refs.setdefault(owner, set()).add(resolution.fq)

    for module in model.analyzed_modules():
        for func in module.functions.values():
            scan(func.fq, module, func.node)
        for cls_info in module.classes.values():
            scan(cls_info.fq, module, cls_info.node)
        for name, value in module.constants.items():
            scan(f"{module.name}.{name}", module, value)
    return {owner: sorted(targets) for owner, targets in refs.items()}


class TestDefinitionRefsOracle:
    def test_live_model(self):
        root = Path(__file__).resolve().parents[2]
        model = ProjectModel.build(
            load_sources(["src/repro", "scripts"], root),
            load_sources(list(REFERENCE_PATHS), root),
        )
        refs = model.definition_refs()
        assert len(refs) > 500
        assert refs == _definition_refs_oracle(model)

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (FIXTURES / "deep").iterdir())
    )
    def test_deep_fixtures(self, name):
        model = ProjectModel.build(load_deep_sources(name))
        assert model.definition_refs() == _definition_refs_oracle(model)

    def test_class_header_and_nested_class(self):
        model = _model(
            (
                "src/pkg/cls.py",
                "def deco(c):\n"
                "    return c\n"
                "\n"
                "\n"
                "class Meta(type):\n"
                "    pass\n"
                "\n"
                "\n"
                "class Base:\n"
                "    pass\n"
                "\n"
                "\n"
                "class Inner:\n"
                "    pass\n"
                "\n"
                "\n"
                "@deco\n"
                "class Outer(Base, metaclass=Meta):\n"
                "    class Nested:\n"
                "        kind = Inner\n"
                "\n"
                "    def method(self):\n"
                "        return Outer\n",
            )
        )
        refs = model.definition_refs()
        assert refs["pkg.cls.Outer"] == [
            "pkg.cls.Base",
            "pkg.cls.Inner",
            "pkg.cls.Meta",
            "pkg.cls.deco",
        ]
        assert refs == _definition_refs_oracle(model)
