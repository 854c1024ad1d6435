"""The selectable DES hot core: selection, parity, and artifact equality.

The compiled engine (``repro._hotcore.HotEngine``) must be a *drop-in*
for :class:`~repro.simulator.hotcore.PyEngine`: same event order, same
error messages at the same boundaries, same measurement fingerprints.
Engine-level parity runs both implementations side by side; whole-run
equality monkeypatches the runner's engine and compares fingerprints
and decoded traces; the subprocess test diffs artifacts across
``REPRO_COMPILED=0`` and ``auto`` exactly as the CI matrix leg does.

Everything compiled-specific is skipped (visibly) when the extension
has not been built -- the pure path is the reference and always runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator import hotcore
from repro.simulator.engine import Engine, PyEngine
from repro.simulator.service import Microservice
from repro.workloads import build_workload

COMPILED = hotcore.COMPILED

needs_compiled = pytest.mark.skipif(
    not COMPILED,
    reason="compiled hot core not built (python scripts/build_hotcore.py)",
)


def both_engine_classes():
    classes = [PyEngine]
    if COMPILED:
        classes.append(hotcore.HotEngine)
    return classes


# -- selection ---------------------------------------------------------------


def test_status_is_consistent():
    status = hotcore.status()
    assert status["requested"] in ("0", "1", "auto")
    if status["compiled"]:
        assert status["engine"] == "HotEngine"
        assert status["interval_sink"] == "IntervalSink"
        assert Engine is hotcore.HotEngine
    else:
        assert status["engine"] == "PyEngine"
        assert Engine is PyEngine


def test_requested_mode_normalization(monkeypatch):
    for raw, expected in [
        ("0", "0"), ("false", "0"), ("OFF", "0"), ("no", "0"),
        ("1", "1"), ("true", "1"), ("On", "1"), ("YES", "1"),
        ("auto", "auto"), ("", "auto"), ("anything-else", "auto"),
    ]:
        monkeypatch.setenv("REPRO_COMPILED", raw)
        assert hotcore._requested_mode() == expected
    monkeypatch.delenv("REPRO_COMPILED")
    assert hotcore._requested_mode() == "auto"


def test_engine_module_is_a_facade():
    from repro.simulator import engine as engine_module

    assert engine_module.Engine is hotcore.Engine
    assert engine_module.PyEngine is hotcore.PyEngine


# -- engine-level parity -----------------------------------------------------


@pytest.mark.parametrize("engine_class", both_engine_classes())
class TestEngineContract:
    def test_event_order_is_time_then_fifo(self, engine_class):
        engine = engine_class()
        order = []
        engine.after(10.0, lambda: order.append("b"))
        engine.after(5.0, lambda: order.append("a"))
        engine.at(10.0, lambda: order.append("c"))
        engine.after(10.0, lambda: order.append("d"))
        engine.run_until(20.0)
        assert order == ["a", "b", "c", "d"]
        assert engine.now == 20.0
        assert engine.events_processed == 4
        assert engine.pending_events == 0

    def test_past_event_rejected(self, engine_class):
        engine = engine_class()
        engine.after(10.0, lambda: None)
        engine.run_until(10.0)
        with pytest.raises(SimulationError) as excinfo:
            engine.at(5, lambda: None)
        assert str(excinfo.value) == (
            "cannot schedule event in the past (5 < 10.0)"
        )

    def test_negative_delay_rejected(self, engine_class):
        engine = engine_class()
        with pytest.raises(SimulationError) as excinfo:
            engine.after(-1.5, lambda: None)
        assert str(excinfo.value) == "delay must be non-negative, got -1.5"

    def test_backward_horizon_rejected(self, engine_class):
        engine = engine_class()
        engine.run_until(100.0)
        with pytest.raises(SimulationError) as excinfo:
            engine.run_until(50.0)
        assert str(excinfo.value) == (
            "horizon 50.0 is before current time 100.0"
        )

    def test_zero_delay_loop_guard(self, engine_class):
        engine = engine_class()

        def respawn():
            engine.after(0.0, respawn)

        engine.after(0.0, respawn)
        with pytest.raises(SimulationError) as excinfo:
            engine.run_until(1.0, max_events=100)
        assert str(excinfo.value) == (
            "exceeded max_events = 100; likely a zero-delay event loop"
        )

    def test_step_and_counters(self, engine_class):
        engine = engine_class()
        hits = []
        engine.after(1.0, lambda: hits.append(1))
        engine.after(2.0, lambda: hits.append(2))
        assert engine.step() is True
        assert engine.now == 1.0
        assert engine.step() is True
        assert engine.step() is False
        assert hits == [1, 2]
        assert engine.events_processed == 2

    def test_run_to_completion_drains_everything(self, engine_class):
        engine = engine_class()
        hits = []
        engine.after(3.0, lambda: hits.append("late"))
        engine.after(1.0, lambda: engine.after(1.0, lambda: hits.append("chained")))
        engine.run_to_completion()
        assert hits == ["chained", "late"]
        assert engine.pending_events == 0

    def test_drop_pending_discards_without_running(self, engine_class):
        engine = engine_class()
        hits = []
        engine.after(1.0, lambda: hits.append(1))
        engine.after(5.0, lambda: hits.append(5))
        engine.run_until(2.0)
        engine.drop_pending()
        assert engine.pending_events == 0
        assert (engine.now, engine.events_processed) == (2.0, 1)
        engine.run_to_completion()
        assert hits == [1]
        engine.after(1.0, lambda: hits.append(3))
        engine.run_to_completion()
        assert hits == [1, 3]
        assert engine.now == 3.0

    def test_callback_exception_propagates_with_time_set(self, engine_class):
        engine = engine_class()

        def boom():
            raise RuntimeError("callback failure")

        engine.after(4.0, boom)
        with pytest.raises(RuntimeError, match="callback failure"):
            engine.run_until(10.0)
        # The failing event was popped: time advanced to it.
        assert engine.now == 4.0

    def test_multiple_cpus_on_one_engine_keep_their_metrics(self, engine_class):
        """Regression: the topology simulator binds several CPUs to ONE
        shared engine; every CPU's Compute cycles must land in its *own*
        MetricSink (an early compiled build kept a single engine-level
        binding, so the last-bound CPU absorbed everyone's cycles)."""
        from repro.paperdata.categories import FunctionalityCategory as F
        from repro.simulator import CPU, Compute, MetricSink

        engine = engine_class()
        sinks = {}
        for name, cycles in [("front", 100.0), ("mid", 250.0), ("leaf", 40.0)]:
            metrics = MetricSink()
            cpu = CPU(engine, metrics, 1)
            sinks[name] = metrics

            def body(thread, cycles=cycles):
                yield Compute(cycles, F.APPLICATION_LOGIC)
                yield Compute(cycles, F.COMPRESSION)

            cpu.spawn(body, name=name)
        engine.run_to_completion()
        for name, cycles in [("front", 100.0), ("mid", 250.0), ("leaf", 40.0)]:
            charged = sinks[name].cycles
            assert sum(charged.values()) == 2 * cycles, name
            assert {f for (f, _, _), v in charged.items() if v} == {
                F.APPLICATION_LOGIC, F.COMPRESSION,
            }


# -- whole-run equality ------------------------------------------------------


def _run_cache1(engine_class, monkeypatch, tracer=None):
    import repro.simulator.runner as runner

    monkeypatch.setattr(runner, "Engine", engine_class)
    workload = build_workload("cache1")
    config = SimulationConfig(num_cores=2, window_cycles=2.0e6)
    rng = np.random.default_rng(2020)

    def build(engine, cpu, metrics):
        service = Microservice(engine, cpu, metrics, name="cache1")
        return service, workload.request_factory(rng)

    return run_simulation(build, config, tracer=tracer)


@needs_compiled
def test_compiled_run_is_bit_identical_to_pure(monkeypatch):
    pure = _run_cache1(PyEngine, monkeypatch)
    compiled = _run_cache1(hotcore.HotEngine, monkeypatch)
    assert compiled.fingerprint() == pure.fingerprint()
    assert compiled.events_processed == pure.events_processed


@needs_compiled
def test_compiled_traced_run_decodes_identical_trace(monkeypatch):
    from repro.observability import SpanTracer

    pure = _run_cache1(PyEngine, monkeypatch, tracer=SpanTracer(label="x"))
    compiled = _run_cache1(
        hotcore.HotEngine, monkeypatch, tracer=SpanTracer(label="x")
    )
    assert compiled.fingerprint() == pure.fingerprint()
    assert compiled.trace == pure.trace


@needs_compiled
def test_compiled_engine_rejects_a_foreign_sink(monkeypatch):
    """HotEngine records only into the C sink it ships with; a tracer
    holding any other sink fails loudly instead of recording elsewhere."""
    import repro.observability.tracer as tracer_module
    from repro.observability import SpanTracer
    from repro.observability.ringbuffer import PyIntervalSink

    monkeypatch.setattr(tracer_module, "_COMPILED_SINK", None)
    tracer = SpanTracer(label="x")
    assert isinstance(tracer._sink, PyIntervalSink)
    with pytest.raises(TypeError, match="compiled IntervalSink"):
        _run_cache1(hotcore.HotEngine, monkeypatch, tracer=tracer)


# -- REPRO_COMPILED artifact diff (the CI leg, in miniature) -----------------


_PROBE = """
import json, sys
from repro.simulator import hotcore
from repro.characterization import characterize
run = characterize("cache1", seed=2020, num_cores=2, requests_target=30)
print(json.dumps({
    "compiled": hotcore.status()["compiled"],
    "fingerprint": run.simulation.fingerprint(),
}))
"""


@needs_compiled
def test_env_selected_paths_produce_identical_artifacts():
    repo = Path(__file__).resolve().parents[2]
    results = {}
    for mode in ("0", "auto"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        env["REPRO_COMPILED"] = mode
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE],
            capture_output=True, text=True, env=env, cwd=repo,
        )
        assert proc.returncode == 0, proc.stderr
        results[mode] = json.loads(proc.stdout)
    assert results["0"]["compiled"] is False
    assert results["auto"]["compiled"] is True
    assert results["0"]["fingerprint"] == results["auto"]["fingerprint"]


def test_forcing_compiled_without_extension_raises(tmp_path):
    """REPRO_COMPILED=1 on a checkout without the built extension must
    fail loudly with build instructions, not fall back silently."""
    repo = Path(__file__).resolve().parents[2]
    # Shadow repro._hotcore with an unimportable stub package entry by
    # running from a tree whose extension is hidden via a meta-path
    # blocker installed before repro imports.
    probe = """
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "repro._hotcore":
            raise ImportError("blocked for test")
        return None

sys.meta_path.insert(0, Blocker())
try:
    import repro.simulator.hotcore  # noqa: F401
except Exception as error:
    message = str(error)
    assert "REPRO_COMPILED=1" in message, message
    assert "scripts/build_hotcore.py" in message, message
    print("raised-as-expected")
else:
    print("no-error")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    env["REPRO_COMPILED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, cwd=repo,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised-as-expected"
