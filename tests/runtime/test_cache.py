"""On-disk result cache behaviour."""

from __future__ import annotations

import dataclasses
import os
import pickle
from pathlib import Path

import pytest

from repro.runtime import ResultCache, default_cache_root, resolve_cache


KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@dataclasses.dataclass
class Payload:
    """Module-level so instances pickle by reference; tests delete the
    binding to fabricate a stale-format entry."""

    value: int


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _plant_orphan(cache, shard: str = KEY[:2]) -> Path:
    """Fabricate the debris an interrupted put() leaves behind."""
    shard_dir = cache.root / shard
    shard_dir.mkdir(parents=True, exist_ok=True)
    orphan = shard_dir / f".{KEY[:8]}-deadbeef.tmp"
    orphan.write_bytes(b"half-written pickle")
    return orphan


def test_miss_then_hit_roundtrip(cache):
    hit, value = cache.lookup(KEY)
    assert not hit and value is None
    cache.put(KEY, {"answer": 42})
    hit, value = cache.lookup(KEY)
    assert hit
    assert value == {"answer": 42}
    assert cache.hits == 1 and cache.misses == 1


def test_entries_are_sharded_by_key_prefix(cache):
    cache.put(KEY, 1)
    path = cache.path_for(KEY)
    assert path.parent.name == KEY[:2]
    assert path.exists()


def test_contains_and_len(cache):
    assert KEY not in cache
    assert len(cache) == 0
    cache.put(KEY, 1)
    cache.put(OTHER, 2)
    assert KEY in cache and OTHER in cache
    assert len(cache) == 2


def test_put_overwrites_atomically(cache):
    cache.put(KEY, "old")
    cache.put(KEY, "new")
    assert cache.get(KEY) == "new"
    # No stray temp files left next to the entry.
    leftovers = [
        name for name in os.listdir(cache.path_for(KEY).parent)
        if not name.endswith(".pkl")
    ]
    assert leftovers == []


def test_corrupt_entry_is_deleted_and_treated_as_miss(cache):
    cache.put(KEY, [1, 2, 3])
    cache.path_for(KEY).write_bytes(b"not a pickle")
    hit, value = cache.lookup(KEY)
    assert not hit and value is None
    assert not cache.path_for(KEY).exists()


def test_clear_removes_everything(cache):
    cache.put(KEY, 1)
    cache.put(OTHER, 2)
    removed = cache.clear()
    assert removed == 2
    assert len(cache) == 0
    assert KEY not in cache


def test_truncated_entry_is_classified_corrupt(cache):
    from repro.observability import CacheTelemetry

    cache.put(KEY, [1, 2, 3])
    whole = cache.path_for(KEY).read_bytes()
    cache.path_for(KEY).write_bytes(whole[: len(whole) // 2])
    cache.telemetry = CacheTelemetry()
    hit, value = cache.lookup(KEY)
    assert not hit and value is None
    assert not cache.path_for(KEY).exists()
    assert cache.telemetry.corrupt_drops == 1
    assert cache.telemetry.stale_drops == 0
    assert cache.telemetry.misses == 1


def test_stale_format_entry_is_classified_stale(cache, monkeypatch):
    # A valid pickle whose class this build no longer defines: unpickling
    # raises AttributeError, which is schema drift, not byte damage.
    from repro.observability import CacheTelemetry

    import sys

    cache.put(KEY, Payload(7))
    monkeypatch.delattr(sys.modules[Payload.__module__], "Payload")
    cache.telemetry = CacheTelemetry()
    hit, value = cache.lookup(KEY)
    assert not hit and value is None
    assert not cache.path_for(KEY).exists()
    assert cache.telemetry.stale_drops == 1
    assert cache.telemetry.corrupt_drops == 0


def test_interval_tuple_timeline_entry_is_classified_stale(cache, monkeypatch):
    # A traced result cached when a RequestTimeline held a tuple of
    # Interval objects in an ``intervals`` slot.  The stand-in class has
    # the same module and name and the same six slots, so the entry has
    # exactly that layout's bytes.  Today ``intervals`` is a read-only
    # view over columns: restoring the slot raises AttributeError, a
    # stale-format miss rather than a wrong-shaped hit.
    from repro.observability import CacheTelemetry, Interval, TraceData, spans

    interval_tuple_layout = dataclasses.make_dataclass(
        "RequestTimeline",
        ["request_id", "started_at", "body_end", "completed_at",
         "degraded", "intervals"],
        slots=True,
    )
    interval_tuple_layout.__module__ = spans.__name__
    timeline = interval_tuple_layout(
        1, 0.0, 5.0, 6.0, False,
        (Interval(0.0, 5.0, "f", "l", "useful", None),),
    )
    with monkeypatch.context() as patch:
        patch.setattr(spans, "RequestTimeline", interval_tuple_layout)
        cache.put(KEY, TraceData(label="run", spans=(), timelines=(timeline,)))
    cache.telemetry = CacheTelemetry()
    hit, value = cache.lookup(KEY)
    assert not hit and value is None
    assert not cache.path_for(KEY).exists()
    assert cache.telemetry.stale_drops == 1
    assert cache.telemetry.corrupt_drops == 0


def test_corrupt_entry_survives_unlink_race(cache, monkeypatch):
    # Another process may delete (or hold) the bad entry between our
    # failed load and the unlink; the OSError must not escape and the
    # lookup still reports a miss.
    cache.put(KEY, [1, 2, 3])
    cache.path_for(KEY).write_bytes(b"not a pickle")

    def racing_unlink(self, missing_ok=False):
        raise OSError("simulated unlink race")

    monkeypatch.setattr(Path, "unlink", racing_unlink)
    hit, value = cache.lookup(KEY)
    assert not hit and value is None
    assert cache.misses == 1
    monkeypatch.undo()
    assert cache.path_for(KEY).exists()  # the unlink never happened


def test_len_and_contains_ignore_orphaned_tmp_files(cache):
    cache.put(KEY, 1)
    _plant_orphan(cache)
    assert len(cache) == 1
    assert KEY in cache


def test_clear_sweeps_orphans_but_counts_only_entries(cache):
    cache.put(KEY, 1)
    cache.put(OTHER, 2)
    orphan = _plant_orphan(cache)
    removed = cache.clear()
    assert removed == 2          # entries only, matching what len() saw
    assert not orphan.exists()   # ...but the debris is gone too
    assert len(cache) == 0


def test_sweep_orphans_reports_and_removes_only_tmp_files(cache):
    cache.put(KEY, 1)
    first = _plant_orphan(cache)
    second = _plant_orphan(cache, shard=OTHER[:2])
    assert cache.sweep_orphans() == 2
    assert not first.exists() and not second.exists()
    assert cache.get(KEY) == 1   # real entries untouched
    assert cache.sweep_orphans() == 0


def test_cache_telemetry_counts_and_latency_samples(cache):
    from repro.observability import CacheTelemetry

    telemetry = CacheTelemetry()
    cache.telemetry = telemetry
    cache.lookup(KEY)                       # miss
    cache.put(KEY, {"answer": 42})
    hit, _ = cache.lookup(KEY)              # hit
    assert hit
    assert telemetry.counts() == {
        "hits": 1, "misses": 1, "stale_drops": 0, "corrupt_drops": 0,
        "puts": 1,
        "bytes_read": telemetry.bytes_read,
        "bytes_written": telemetry.bytes_written,
    }
    assert telemetry.bytes_read == telemetry.bytes_written > 0
    assert len(telemetry.lookup_seconds) == 2
    assert len(telemetry.put_seconds) == 1
    assert all(sample >= 0.0 for sample in telemetry.lookup_seconds)


def test_untelemetered_cache_has_no_telemetry_attribute_set(cache):
    assert cache.telemetry is None
    cache.put(KEY, 1)
    cache.lookup(KEY)
    assert cache.telemetry is None


def test_default_root_honours_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
    assert default_cache_root() == tmp_path / "env-root"
    cache = ResultCache()
    cache.put(KEY, "via-env")
    assert (tmp_path / "env-root").exists()
    assert cache.get(KEY) == "via-env"


def test_resolve_cache_forms(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "resolved"))
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    explicit = ResultCache(tmp_path / "explicit")
    assert resolve_cache(explicit) is explicit
    implicit = resolve_cache(True)
    assert isinstance(implicit, ResultCache)
    assert implicit.root == tmp_path / "resolved"
