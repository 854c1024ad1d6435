"""Tier-1 snapshot: the simulator call graph is deterministic and
contains the structural edges the paper's pipeline depends on.

Determinism is checked the hard way -- two separate interpreter
processes with *different* ``PYTHONHASHSEED`` values must build graphs
with the same digest, so no set/dict iteration order can leak into the
graph.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ProjectModel, build_call_graph, load_sources

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_graph():
    sources = load_sources(["src/repro"], REPO_ROOT)
    return build_call_graph(ProjectModel.build(sources, ()))


class TestKnownEdges:
    def test_cache_key_calls_canonical_digest(self, repo_graph):
        pairs = {(e.caller, e.callee) for e in repo_graph.edges}
        assert (
            "repro.runtime.spec.RunSpec.key",
            "repro.canonical.canonical_digest",
        ) in pairs

    def test_offload_path_reaches_accelerator_device(self, repo_graph):
        # The Sync state machine submits to the device model through the
        # typed config.device attribute -- the flagship example of
        # attribute-chain resolution over the simulator.
        pairs = {(e.caller, e.callee) for e in repo_graph.edges}
        assert (
            "repro.simulator.service.Microservice._offload_sync",
            "repro.simulator.accelerator.AcceleratorDevice.submit",
        ) in pairs

    def test_fingerprint_calls_canonical_digest(self, repo_graph):
        pairs = {(e.caller, e.callee) for e in repo_graph.edges}
        assert (
            "repro.simulator.summary.RunSummary.fingerprint",
            "repro.canonical.canonical_digest",
        ) in pairs

    def test_graph_covers_the_simulator(self, repo_graph):
        modules = {meta[0] for meta in repo_graph.nodes.values()}
        assert "repro.simulator.service" in modules
        assert "repro.runtime.spec" in modules
        assert len(repo_graph.nodes) > 500
        assert len(repo_graph.edges) > 1000


class TestInProcessDeterminism:
    def test_rebuild_is_identical(self, repo_graph):
        rebuilt = build_call_graph(
            ProjectModel.build(load_sources(["src/repro"], REPO_ROOT), ())
        )
        assert rebuilt == repo_graph

    def test_reversed_input_order_builds_the_same_graph(self, repo_graph):
        sources = load_sources(["src/repro"], REPO_ROOT)
        rebuilt = build_call_graph(
            ProjectModel.build(list(reversed(sources)), ())
        )
        assert rebuilt == repo_graph


#: Prints a digest of the repository's call graph: the nodes sorted, the
#: edge, external-call and unresolved tuples in the graph's own order.
_DIGEST_GRAPH = """
import hashlib
import sys

from repro.analysis import ProjectModel, build_call_graph, load_sources

graph = build_call_graph(
    ProjectModel.build(load_sources(["src/repro"], sys.argv[1]), ())
)
payload = repr(
    (sorted(graph.nodes.items()), graph.edges, graph.external, graph.unresolved)
)
print(hashlib.sha256(payload.encode("utf-8")).hexdigest())
"""


def _graph_digest(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _DIGEST_GRAPH, str(REPO_ROOT)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout.strip()


class TestCrossProcessDeterminism:
    def test_graph_identical_under_different_hash_seeds(self):
        first = _graph_digest("0")
        assert len(first) == 64
        assert _graph_digest("424242") == first
