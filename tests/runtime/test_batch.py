"""Batch executor: ordering, dedup, caching, and reporting."""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import ParameterError
from repro.runtime import (
    BatchReport,
    ResultCache,
    RunSpec,
    execute_batch,
)
from repro.runtime.runners import register_runner

# A tiny deterministic runner so executor tests never pay for a real
# simulation.  Registered at import time; keys include the kind, so these
# specs can never collide with real cached results.
@register_runner("test_square")
def _square(spec: RunSpec) -> float:
    params = spec.params_dict()
    return params["value"] * params["value"] + params.get("offset", 0.0)


def _specs(values):
    return [RunSpec.create("test_square", value=v) for v in values]


_TEST_PID = os.getpid()


@register_runner("test_killed_in_worker")
def _killed_in_worker(spec: RunSpec) -> float:
    """SIGKILLs the pool worker that runs a ``kill`` spec; in the test's
    own process every spec just returns."""
    params = spec.params_dict()
    if params.get("kill") and os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return params["value"] * 2.0


def _mortal_specs():
    return [
        RunSpec.create("test_killed_in_worker", value=float(v), kill=v == 3)
        for v in range(6)
    ]


def test_results_align_with_input_order():
    values = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert execute_batch(_specs(values)) == [9.0, 1.0, 16.0, 1.0, 25.0]


def test_pool_results_match_serial():
    values = [float(v) for v in range(8)]
    serial = execute_batch(_specs(values), workers=1)
    pooled = execute_batch(_specs(values), workers=2)
    assert pooled == serial


def test_duplicate_specs_execute_once():
    report = BatchReport()
    results = execute_batch(_specs([2.0, 2.0, 2.0]), report=report)
    assert results == [4.0, 4.0, 4.0]
    assert report.total == 3
    assert report.executed == 1
    assert report.deduplicated == 2


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    cold = BatchReport()
    execute_batch(_specs([2.0, 3.0]), cache=cache, report=cold)
    assert cold.executed == 2 and cold.cache_hits == 0
    assert not cold.simulated_nothing

    warm = BatchReport()
    results = execute_batch(_specs([2.0, 3.0]), cache=cache, report=warm)
    assert results == [4.0, 9.0]
    assert warm.executed == 0 and warm.cache_hits == 2
    assert warm.simulated_nothing


def test_partial_cache_hits(tmp_path):
    cache = ResultCache(tmp_path)
    execute_batch(_specs([2.0]), cache=cache)
    report = BatchReport()
    results = execute_batch(_specs([2.0, 5.0]), cache=cache, report=report)
    assert results == [4.0, 25.0]
    assert report.cache_hits == 1 and report.executed == 1


def test_distinct_params_are_distinct_cache_entries(tmp_path):
    cache = ResultCache(tmp_path)
    a = execute_batch(
        [RunSpec.create("test_square", value=2.0, offset=1.0)], cache=cache
    )
    b = execute_batch(
        [RunSpec.create("test_square", value=2.0, offset=2.0)], cache=cache
    )
    assert a == [5.0] and b == [6.0]
    assert len(cache) == 2


def test_workers_must_be_positive():
    with pytest.raises(ParameterError):
        execute_batch(_specs([1.0]), workers=0)
    with pytest.raises(ValueError):
        execute_batch(_specs([1.0]), workers=-3)


def test_empty_batch():
    report = BatchReport()
    assert execute_batch([], report=report) == []
    assert report.total == 0
    assert not report.simulated_nothing


def test_report_accumulates_across_batches(tmp_path):
    cache = ResultCache(tmp_path)
    report = BatchReport()
    execute_batch(_specs([1.0]), cache=cache, report=report)
    execute_batch(_specs([1.0]), cache=cache, report=report)
    assert report.total == 2
    assert report.executed == 1
    assert report.cache_hits == 1


def test_simulated_nothing_semantics():
    # True only for "work was requested and none of it ran": an empty
    # report is False, any execution flips it False, and dedup alone
    # does not count as serving the batch without simulation.
    assert not BatchReport().simulated_nothing
    assert BatchReport(total=3, cache_hits=3).simulated_nothing
    assert not BatchReport(total=3, executed=1, cache_hits=2).simulated_nothing
    assert not BatchReport(total=3, executed=1, deduplicated=2).simulated_nothing
    assert BatchReport(total=2, deduplicated=2).simulated_nothing


def test_telemetry_rides_outside_results(tmp_path):
    from repro.observability import RuntimeTelemetry

    values = [2.0, 2.0, 3.0]
    bare = execute_batch(_specs(values))
    telemetry = RuntimeTelemetry()
    observed = execute_batch(_specs(values), telemetry=telemetry)
    assert observed == bare
    structural = telemetry.structural_payload()
    assert structural["outcomes"]["totals"] == {
        "total": 3, "executed": 2, "cache_hits": 0, "deduplicated": 1,
    }
    # The deduplicated twin points back at its executing primary.
    outcomes = structural["outcomes"]["batches"][0]
    assert outcomes["outcomes"] == ["executed", "deduplicated", "executed"]
    assert outcomes["dedup_of"] == [None, 0, None]


def test_telemetry_attaches_and_detaches_cache(tmp_path):
    from repro.observability import RuntimeTelemetry

    cache = ResultCache(tmp_path)
    telemetry = RuntimeTelemetry()
    execute_batch(_specs([1.0, 2.0]), cache=cache, telemetry=telemetry)
    assert cache.telemetry is None          # detached after the batch
    assert telemetry.cache.misses == 2 and telemetry.cache.puts == 2
    execute_batch(_specs([1.0, 2.0]), cache=cache, telemetry=telemetry)
    assert telemetry.cache.hits == 2
    assert telemetry.structural_payload()["cache"]["hits"] == 2


def test_killed_pool_worker_falls_back_to_serial():
    serial = execute_batch(_mortal_specs())
    report = BatchReport()
    pooled = execute_batch(_mortal_specs(), workers=2, report=report)
    assert pooled == serial
    assert report.executed == 6
    # The killed spec and whatever the pool had not finished after it.
    assert 1 <= report.pool_fallbacks <= 6


def test_pool_fallback_is_recorded_in_the_telemetry():
    from repro.observability import RuntimeTelemetry

    telemetry = RuntimeTelemetry()
    report = BatchReport()
    results = execute_batch(
        _mortal_specs(), workers=2, report=report, telemetry=telemetry
    )
    assert results == execute_batch(_mortal_specs())
    (batch,) = telemetry.timing_payload()["batches"]
    assert batch["pool_fallbacks"] == report.pool_fallbacks >= 1
    # The rerun tasks ran in this process.
    workers = [record.worker for record in telemetry.batches[0].records]
    assert workers.count("parent") == report.pool_fallbacks


def test_a_healthy_pool_records_no_fallback():
    report = BatchReport()
    execute_batch(_specs([1.0, 2.0, 3.0]), workers=2, report=report)
    assert report.pool_fallbacks == 0


@pytest.mark.parametrize("fallbacks, mention", [
    (0, None),
    (2, "batch: 3 specs — 3 executed, 0 cache hits, 0 deduplicated, "
        "2 rerun serially after a worker died"),
])
def test_batch_line_names_the_fallback_only_when_nonzero(
    capsys, fallbacks, mention
):
    from repro.cli import _print_batch_report

    _print_batch_report(
        BatchReport(total=3, executed=3, pool_fallbacks=fallbacks), None
    )
    (line,) = capsys.readouterr().out.splitlines()
    assert ("rerun serially" in line) == (mention is not None)
    if mention is not None:
        assert line == mention
