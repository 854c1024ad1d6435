"""Tier-1 snapshot: the simulator call-graph export is deterministic
and contains the structural edges the paper's pipeline depends on.

Determinism is checked the hard way -- two separate interpreter
processes with *different* ``PYTHONHASHSEED`` values must produce
byte-identical artifacts, so no set/dict iteration order can leak into
the export.
"""

import json
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
    def test_rebuild_is_byte_identical(self, repo_graph):
        rebuilt = build_call_graph(
            ProjectModel.build(load_sources(["src/repro"], REPO_ROOT), ())
        )
        assert rebuilt.to_json() == repo_graph.to_json()
        assert rebuilt.to_dot() == repo_graph.to_dot()


def _export(tmp_path: Path, tag: str, hash_seed: str) -> dict:
    out_dir = tmp_path / tag
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "lint",
            "--root",
            str(REPO_ROOT),
            "--export-graph",
            str(out_dir),
            "src/repro",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return {
        name: (out_dir / name).read_bytes()
        for name in ("callgraph.json", "callgraph.dot")
    }


class TestCrossProcessDeterminism:
    def test_export_identical_under_different_hash_seeds(self, tmp_path):
        first = _export(tmp_path, "run1", "0")
        second = _export(tmp_path, "run2", "424242")
        assert first == second
        payload = json.loads(first["callgraph.json"])
        assert payload["counts"]["nodes"] == len(payload["nodes"])
        assert first["callgraph.dot"].startswith(b"digraph callgraph {")
