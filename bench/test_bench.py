"""Tests of the benchmark harness on synthetic functions.

Run with ``python -m pytest bench -q``; nothing here imports ``repro``
or runs a workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ledger
import passes
import run

BENCH = Path(__file__).resolve().parent


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A throwaway package whose functions the hooks can wrap."""
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .inner import outer, Engine\n")
    (package / "inner.py").write_text(textwrap.dedent("""
        import time

        def leaf():
            time.sleep(0.01)
            return 1

        def outer():
            time.sleep(0.02)
            return leaf() + leaf()

        def checks():
            yield leaf()
            yield leaf()

        def stream(factory, limit):
            return [factory() for _ in range(limit)]

        class Engine:
            def __init__(self):
                self.events = 0

            def run_until(self, n):
                self.events += n

            @classmethod
            def build(cls):
                return cls()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def hooks_for(*pairs):
    return tuple(ledger.Hook(target, span) for target, span in pairs)


def test_self_time_subtracts_direct_children_only():
    spans = [["a.x", 0.0, 10.0, None], ["b.y", 1.0, 4.0, 0],
             ["c.z", 5.0, 6.0, 0], ["d.w", 2.0, 3.0, 1]]
    assert ledger.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert ledger.roots(spans) == [0, 0, 0, 0]


def test_nested_spans_of_wrapped_functions(fakepkg, tmp_path):
    import fakepkg as pkg

    rec = ledger.Recorder(str(tmp_path))
    missing = ledger.install(rec, hooks_for(
        ("fakepkg.inner:outer", "cli.outer"),
        ("fakepkg.inner:leaf", "workloads.leaf"),
    ), package="fakepkg")
    assert missing == []
    assert pkg.outer() == 2  # the package re-export is rewrapped too
    names = [span[0] for span in rec.spans]
    assert names == ["cli.outer", "workloads.leaf", "workloads.leaf"]
    own = ledger.self_times(rec.spans)
    outer = rec.spans[0][2] - rec.spans[0][1]
    children = sum(end - start for _, start, end, _ in rec.spans[1:])
    assert own[0] == pytest.approx(outer - children, abs=1e-9)
    assert 0.015 < own[0] < outer - 0.015


def test_generator_method_and_argument_hooks(fakepkg, tmp_path):
    import fakepkg.inner as inner

    rec = ledger.Recorder(str(tmp_path))
    hooks = (
        ledger.Hook("fakepkg.inner:checks", "analysis.rule.X"),
        ledger.Hook("fakepkg.inner:leaf", "workloads.leaf"),
        ledger.Hook("fakepkg.inner:stream", "workloads.request",
                    wraps_argument=True),
        ledger.Hook("fakepkg.inner:Engine.run_until", "simulator.run_until",
                    delta=("simulator.events", lambda a: a[0].events)),
        ledger.Hook("fakepkg.inner:Engine.build", "simulator.build"),
    )
    assert ledger.install(rec, hooks, package="fakepkg") == []
    assert list(inner.checks()) == [1, 1]
    assert rec.spans[0][0] == "analysis.rule.X"
    assert [span[3] for span in rec.spans[1:3]] == [0, 0]

    assert inner.stream(lambda: 7, 3) == [7, 7, 7]
    assert [s[0] for s in rec.spans[3:]] == ["workloads.request"] * 3

    engine = inner.Engine.build()
    engine.run_until(40)
    engine.run_until(2)
    assert rec.counts["simulator.events"] == 42
    assert [s[0] for s in rec.spans[-3:]] == [
        "simulator.build", "simulator.run_until", "simulator.run_until"]


def test_missing_hook_is_listed_not_raised(fakepkg, tmp_path):
    rec = ledger.Recorder(str(tmp_path))
    hooks = hooks_for(
        ("fakepkg.inner:renamed_away", "cli.gone"),
        ("fakepkg.nosuchmodule:f", "cli.gone"),
        ("fakepkg.inner:Engine.nosuchmethod", "cli.gone"),
        ("fakepkg.inner:leaf", "workloads.leaf"),
    )
    missing = ledger.install(rec, hooks, package="fakepkg")
    assert missing == [
        "fakepkg.inner:renamed_away",
        "fakepkg.nosuchmodule:f",
        "fakepkg.inner:Engine.nosuchmethod",
    ]
    assert ledger.import_targets(hooks) == missing


def test_forked_worker_spans_are_spooled_and_merged(fakepkg, tmp_path):
    import fakepkg.inner as inner

    rec = ledger.Recorder(str(tmp_path))
    ledger.install(rec, hooks_for(
        ("fakepkg.inner:outer", "runtime.execute_run"),
        ("fakepkg.inner:leaf", "workloads.leaf"),
    ), package="fakepkg")
    batch = rec.begin("runtime.execute_batch")
    children = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            try:
                inner.outer()
            finally:
                os._exit(0)
        children.append(pid)
    for pid in children:
        assert os.waitpid(pid, 0)[1] == 0
    rec.end(batch)

    assert [span[0] for span in rec.spans] == ["runtime.execute_batch"]
    trees = ledger.read_worker_spool(str(tmp_path))
    assert sorted(tree["pid"] for tree in trees) == sorted(children)
    for tree in trees:
        assert [s[0] for s in tree["spans"]] == [
            "runtime.execute_run", "workloads.leaf", "workloads.leaf"]
        assert tree["spans"][0][3] is None

    metrics = ledger.ledger(rec.spans, 0, rec.counts, rec.peaks, trees)
    assert metrics["runtime.pool_busy_ratio"] > 0.3
    assert metrics["runtime.batch_self_s"] == pytest.approx(
        rec.spans[0][2] - rec.spans[0][1])


def test_layer_shares_sum_to_one_and_ceilings():
    spans = [["bench.pass", 0.0, 10.0, None],
             ["cli.main", 1.0, 9.0, 0],
             ["simulator.run_until", 2.0, 8.0, 1],
             ["faults.outcome", 3.0, 4.0, 2]]
    metrics = ledger.ledger(spans, 0, {"simulator.events": 5e6}, {}, [])
    shares = {layer: metrics[f"{layer}.alpha"] for layer in ledger.LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["simulator"] == pytest.approx(0.5)
    assert metrics["simulator.calls"] == 1
    assert metrics["simulator.ns_per_event"] == pytest.approx(1000.0)
    assert ledger.amdahl_ceiling(0.5) == pytest.approx(2.0)
    assert ledger.amdahl_ceiling(1.0) == float("inf")


def test_normalization_drops_only_volatile_lines():
    cold = ("service  events\nweb  96,528\n"
            "batch: 7 specs — 7 executed, 0 cache hits\n"
            "cache: 0 hits / 7 misses (7 entries on disk)\n"
            "wrote /scratch/a/trace.json\n"
            "0 findings in 145 files (2 suppressed)")
    warm = cold.replace("7 executed, 0 cache hits", "0 executed, 7 cache hits")
    warm = warm.replace("/scratch/a/", "/elsewhere/").replace("145", "150")
    assert passes.normalize(cold) == "service  events\nweb  96,528\n0 findings"
    assert passes.digest(0, cold, []) == passes.digest(0, warm, [])
    assert passes.digest(0, cold, []) != passes.digest(1, cold, [])
    assert passes.digest(0, cold, []) != passes.digest(
        0, cold.replace("96,528", "96,529"), [])


def test_directory_digest_ignores_json_formatting(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    (one / "a.json").write_text(json.dumps({"x": 1.5, "y": [1, 2]}))
    (two / "a.json").write_text(json.dumps({"y": [1, 2], "x": 1.5}, indent=2))
    (one / "b.svg").write_text("<svg/>")
    (two / "b.svg").write_text("<svg/>")
    assert passes.digest_directory(one) == passes.digest_directory(two)
    (two / "b.svg").write_text("<svg />")
    assert passes.digest_directory(one) != passes.digest_directory(two)


def test_operations_replay_cold_ops_under_one_key():
    workload = passes.Workload(
        why="", cold=(("lint", "--cache-dir", "{tmp}/c", "--seed", "{seed}"),),
        warm=2)
    ops = passes.operations(workload, 7, "/w")
    assert [op["phase"] for op in ops] == ["cold", "warm", "warm"]
    assert ops[0]["argv"] == ["lint", "--cache-dir", "/w/c", "--seed", "7"]
    assert {op["key"] for op in ops} == {"lint --cache-dir {tmp}/c --seed 7"}


def test_probe_rescaling():
    assert run.rescale(2.0, probe_s=0.02, probe_ref=0.01) == 1.0
    result = {
        "setup_s": 0.5, "setup_sampling_s": 0.1,
        "setup_probe_samples_s": [0.03], "probe_before_s": 0.01,
        "probe_after_s": 0.03, "wall_s": 4.0, "sampling_s": 1.0,
        "probe_samples_s": [0.01, 0.03], "peak_rss_mb": 50.0,
        "ops": [{"phase": "cold", "seconds": 1.0},
                {"phase": "warm", "seconds": 3.0}],
    }
    scaled = run.rescaled(result, probe_ref=0.01)
    assert scaled["wall_s"] == pytest.approx(3.0 * 0.01 / 0.02)
    assert scaled["setup_s"] == pytest.approx(0.4 * 0.01 / 0.02)
    assert scaled["phases_s"] == pytest.approx({"cold": 0.375, "warm": 1.125})
    result["probe_samples_s"] = []
    result["probe_after_s"] = 0.05
    assert run.rescaled(result, 0.01)["wall_s"] == pytest.approx(
        3.0 * 0.01 / 0.03)


def test_every_benchmark_metric_is_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = ledger.ledger([["bench.pass", 0.0, 1.0, None]], 0, {}, {}, [])
    metrics["bench.trace_overhead"] = 0.1
    report = {"workload": "w", "attempted": 2, "failed": 0,
              "end_to_end": dict.fromkeys(run.END_TO_END, 1.0),
              "ledger": {"metrics": metrics}}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.summary_line([report], trace)
        assert line["correct"] is True
        assert {name: value["unit"] for name, value in line["metrics"].items()} \
            == {entry["name"]: entry["unit"] for entry in spec[section]}
    assert [w["name"] for w in spec["workloads"]] == list(passes.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in passes.WORKLOADS.items()}
    assert set(ledger.RULE_IDS) == {
        name[len("analysis.rule."):-2] for name in metrics
        if name.startswith("analysis.rule.")}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "lint-deep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
