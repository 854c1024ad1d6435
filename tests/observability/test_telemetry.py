"""Runtime self-telemetry: the structural/timing artifact split, the
zero-observer contract at the runtime layer, and the span exporters.

The determinism contract under test: the *structural* section of a
``repro-runtime-telemetry-v1`` artifact is byte-identical across runs
and across serial vs pool execution, and its *topology* subsection is
additionally byte-identical across no-cache / cold-cache / warm-cache
modes.  All wall-clock material lives in the quarantined timing section.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ParameterError
from repro.observability import (
    TELEMETRY_SCHEMA,
    RuntimeTelemetry,
    SpanKind,
    chrome_payload,
    load_runtime_telemetry,
    summarize_runtime_telemetry,
    trace_data_from_payload,
    write_json_artifact,
    write_otlp_spans,
)
from repro.runtime import ResultCache, RunSpec, execute_batch
from repro.runtime.runners import register_runner


@register_runner("test_telemetry_probe")
def _probe(spec: RunSpec) -> float:
    return spec.params_dict()["value"] * 2.0


def _specs():
    # Four tasks: one duplicated pair so dedup outcomes are exercised.
    return [
        RunSpec.create("test_telemetry_probe", value=v)
        for v in (1.0, 2.0, 2.0, 3.0)
    ]


def _run(workers: int = 1, cache=None) -> RuntimeTelemetry:
    telemetry = RuntimeTelemetry(label="probe")
    execute_batch(_specs(), workers=workers, cache=cache, telemetry=telemetry)
    return telemetry


def _bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, indent=1).encode()


# -- structural determinism -------------------------------------------------


def test_structural_section_byte_identical_across_runs():
    assert _bytes(_run().structural_payload()) == \
        _bytes(_run().structural_payload())


def test_structural_section_byte_identical_serial_vs_pool():
    assert _bytes(_run(workers=1).structural_payload()) == \
        _bytes(_run(workers=3).structural_payload())


def test_topology_byte_identical_across_cache_modes(tmp_path):
    none = _run(cache=None)
    cold = _run(cache=ResultCache(tmp_path))
    warm = _run(cache=ResultCache(tmp_path))
    topologies = [
        _bytes(t.structural_payload()["topology"]) for t in (none, cold, warm)
    ]
    assert topologies[0] == topologies[1] == topologies[2]
    # ...while the outcome sections are mode-faithful (the duplicated
    # pair is deduplicated before the cache, in every mode):
    warm_totals = warm.structural_payload()["outcomes"]["totals"]
    assert warm_totals["cache_hits"] == 3
    assert warm_totals["deduplicated"] == 1
    assert cold.structural_payload()["outcomes"]["totals"]["executed"] == 3


def test_structural_section_carries_no_wall_clock_material():
    structural = _run().structural_payload()
    text = json.dumps(structural)
    assert structural["schema"] == TELEMETRY_SCHEMA
    for banned in ("wall_seconds", "started", "busy_seconds", "saturation"):
        assert banned not in text


def test_timing_section_is_stamped_nondeterministic():
    telemetry = _run(workers=2)
    timing = telemetry.timing_payload()
    assert timing["nondeterministic"] is True
    assert timing["batches"][0]["wall_seconds"] > 0.0
    payload = telemetry.payload()
    assert set(payload) == {"schema", "structural", "timing"}


# -- span capture and piggyback ---------------------------------------------


def test_worker_stamps_ride_back_on_pool_results():
    telemetry = _run(workers=3)
    batch = telemetry.batches[0]
    executed = batch.executed_records()
    assert len(executed) == 3
    parent = f"worker-{os.getpid()}"
    for record in executed:
        stages = record.stage_seconds()
        assert set(stages) == {"queue-wait", "simulate"}
        assert stages["simulate"] >= 0.0 and stages["queue-wait"] >= 0.0
        assert record.worker is not None and record.worker != parent


def test_cache_hit_tasks_record_only_the_lookup_stage(tmp_path):
    _run(cache=ResultCache(tmp_path))               # prime
    warm = _run(cache=ResultCache(tmp_path))
    for record in warm.batches[0].records:
        if record.dedup_of is not None:
            # A repeated key rides on its twin's one lookup.
            assert record.outcome == "deduplicated"
            assert record.stages == []
            continue
        assert record.outcome == "cache-hit"
        assert set(record.stage_seconds()) == {"cache-lookup"}
        assert record.worker == "parent"


def test_trace_data_builds_the_batch_task_stage_tree():
    telemetry = _run(workers=2)
    trace = telemetry.to_trace_data()
    batches = trace.spans_of_kind(SpanKind.BATCH)
    tasks = trace.spans_of_kind(SpanKind.TASK)
    stages = trace.spans_of_kind(SpanKind.STAGE)
    assert len(batches) == 1 and batches[0].parent_id is None
    assert len(tasks) == 3                      # executed specs only
    assert all(t.parent_id == batches[0].span_id for t in tasks)
    task_ids = {t.span_id for t in tasks}
    assert stages and all(s.parent_id in task_ids for s in stages)
    assert all(s.end >= s.start for s in trace.spans)


def test_pool_windows_account_for_every_completion():
    telemetry = _run(workers=2)
    pool = telemetry.timing_payload()["batches"][0]["pool"]
    assert sum(w["completions"] for w in pool["windows"]) == 3
    assert all(w["peak_in_flight"] >= 0 for w in pool["windows"])
    assert all(w["busy_seconds"] >= 0.0 for w in pool["windows"])


def test_critical_path_names_the_bounding_chain():
    telemetry = _run()
    critical = telemetry.timing_payload()["batches"][0]["critical_path"]
    assert critical["bounding_worker"] == "parent"   # serial run
    assert len(critical["chain"]) == 3
    longest = max(critical["chain"], key=lambda link: link["seconds"])
    assert critical["straggler"]["describe"] == longest["describe"]
    assert critical["chain_seconds"] <= critical["wall_seconds"] * 1.5


# -- artifact I/O and exporters ---------------------------------------------


def test_artifact_roundtrip_and_summary(tmp_path):
    telemetry = _run(workers=2)
    path = write_json_artifact(telemetry.payload(), tmp_path / "telemetry.json")
    payload = load_runtime_telemetry(path)
    assert payload["schema"] == TELEMETRY_SCHEMA
    text = summarize_runtime_telemetry(payload)
    assert "4 total" in text and "straggler" in text
    trace = trace_data_from_payload(payload)
    assert len(trace.spans_of_kind(SpanKind.TASK)) == 3
    otlp = write_otlp_spans(trace, tmp_path / "otlp.json")
    assert json.loads(otlp.read_text())["resourceSpans"]
    chrome = chrome_payload(trace)
    assert len(chrome["traceEvents"]) == len(trace.spans)
    assert all(event["ph"] == "X" for event in chrome["traceEvents"])


def test_loader_rejects_foreign_artifacts(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ParameterError):
        load_runtime_telemetry(path)


# -- zero observer effect at the runtime layer ------------------------------


def test_telemetered_characterization_keeps_the_pinned_fingerprint():
    # The ultimate zero-observer check: run a pinned characterization
    # THROUGH the telemetered batch path and require the exact digest
    # captured before this layer existed.
    from .test_zero_observer import PINNED

    telemetry = RuntimeTelemetry(label="pinned")
    spec = RunSpec.create(
        "characterize", seed=2020, service="cache1", num_cores=2,
        requests_target=30,
    )
    run = execute_batch([spec], telemetry=telemetry)[0]
    assert run.simulation.fingerprint() == PINNED[30]
    assert telemetry.batches[0].records[0].outcome == "executed"
