"""Call-graph construction: edge kinds, the unresolved bucket, and a
graph that does not depend on input order."""

from repro.analysis import (
    CallGraph,
    ProjectModel,
    SourceFile,
    build_call_graph,
)

DEVICE = """\
class AcceleratorDevice:
    def service_cycles(self, work: float) -> float:
        return work * 2.0
"""

CONFIG = """\
from .device import AcceleratorDevice


class OffloadConfig:
    def __init__(self, device: AcceleratorDevice):
        self.device = device
"""

SERVICE = """\
import time

from .config import OffloadConfig
from .device import AcceleratorDevice


def fresh_config() -> OffloadConfig:
    return OffloadConfig(AcceleratorDevice())


class Microservice:
    def __init__(self, config: OffloadConfig):
        self.config = config

    def run_offload(self, work: float) -> float:
        return self.config.device.service_cycles(work)

    def run_twice(self, work: float) -> float:
        return self.run_offload(work) + self.run_offload(work)


def stamp() -> float:
    return time.time()


def dynamic(callback):
    return callback()
"""


def _graph(*files):
    sources = [
        SourceFile.from_text(text, relpath=relpath) for relpath, text in files
    ]
    model = ProjectModel.build(sources, ())
    return build_call_graph(model)


def _default_graph(reverse=False):
    files = [
        ("src/sim/device.py", DEVICE),
        ("src/sim/config.py", CONFIG),
        ("src/sim/service.py", SERVICE),
        ("src/sim/__init__.py", ""),
    ]
    if reverse:
        files = list(reversed(files))
    return _graph(*files)


class TestEdges:
    def test_every_function_and_method_is_a_node(self):
        graph = _default_graph()
        assert "sim.service.Microservice.run_offload" in graph.nodes
        assert "sim.service.stamp" in graph.nodes
        module, kind, relpath, line = graph.nodes[
            "sim.device.AcceleratorDevice.service_cycles"
        ]
        assert module == "sim.device"
        assert kind == "method"
        assert relpath == "src/sim/device.py"

    def test_constructor_calls_resolve_to_init(self):
        graph = _default_graph()
        pairs = {(e.caller, e.callee) for e in graph.edges}
        assert (
            "sim.service.fresh_config",
            "sim.config.OffloadConfig.__init__",
        ) in pairs

    def test_constructor_without_init_targets_class_node(self):
        graph = _default_graph()
        pairs = {(e.caller, e.callee) for e in graph.edges}
        assert (
            "sim.service.fresh_config",
            "sim.device.AcceleratorDevice",
        ) in pairs
        assert graph.nodes["sim.device.AcceleratorDevice"][1] == "class"

    def test_self_method_calls_resolve(self):
        graph = _default_graph()
        pairs = {(e.caller, e.callee) for e in graph.edges}
        assert (
            "sim.service.Microservice.run_twice",
            "sim.service.Microservice.run_offload",
        ) in pairs

    def test_typed_attribute_chain_resolves_offload_path(self):
        # self.config (annotated OffloadConfig) -> .device (annotated
        # AcceleratorDevice) -> .service_cycles: two type hops.
        graph = _default_graph()
        pairs = {(e.caller, e.callee) for e in graph.edges}
        assert (
            "sim.service.Microservice.run_offload",
            "sim.device.AcceleratorDevice.service_cycles",
        ) in pairs

    def test_external_calls_recorded_not_dropped(self):
        graph = _default_graph()
        external = {
            (c.caller, c.target) for c in graph.external
        }
        assert ("sim.service.stamp", "time.time") in external

    def test_dynamic_dispatch_lands_in_unresolved(self):
        graph = _default_graph()
        unresolved = {
            (c.caller, c.text) for c in graph.unresolved
        }
        assert ("sim.service.dynamic", "callback") in unresolved


class TestDeterminism:
    def test_graph_identical_across_builds_and_input_orders(self):
        # Nodes compare as a dict; edges, external calls and unresolved
        # calls compare as ordered tuples, so their order is pinned too.
        assert _default_graph() == _default_graph(reverse=True)

    def test_adjacency_sorted(self):
        graph = _default_graph()
        for sites in graph.adjacency().values():
            assert sites == sorted(sites)

    def test_call_tuples_sorted_by_caller_line_target(self):
        graph = _default_graph()
        assert [(e.caller, e.line, e.callee) for e in graph.edges] == sorted(
            (e.caller, e.line, e.callee) for e in graph.edges
        )
        assert [(c.caller, c.line, c.target) for c in graph.external] == (
            sorted((c.caller, c.line, c.target) for c in graph.external)
        )
        assert [(c.caller, c.line, c.text) for c in graph.unresolved] == (
            sorted((c.caller, c.line, c.text) for c in graph.unresolved)
        )


class TestStructure:
    def test_every_call_site_belongs_to_a_node(self):
        graph = _default_graph()
        for edge in graph.edges:
            assert edge.caller in graph.nodes
            assert edge.callee in graph.nodes
        for call in graph.external + graph.unresolved:
            assert call.caller in graph.nodes

    def test_nodes_record_their_module(self):
        graph = _default_graph()
        modules = {meta[0] for meta in graph.nodes.values()}
        assert modules == {"sim.device", "sim.config", "sim.service"}
        for fq, (module, _kind, relpath, _line) in graph.nodes.items():
            assert fq.startswith(module + ".")
            assert relpath == "src/" + module.replace(".", "/") + ".py"


class TestEmptyGraph:
    def test_empty_model_builds_empty_collections(self):
        graph = _graph()
        assert isinstance(graph, CallGraph)
        assert graph.nodes == {}
        assert graph.edges == ()
        assert graph.external == ()
        assert graph.unresolved == ()
