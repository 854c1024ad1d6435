"""Unit tests for profile capture and aggregation."""

import pytest

from repro.errors import ProfileError
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.profiling import (
    CategoryCounters,
    ExecutionProfile,
    IPCModel,
    SampledTrace,
    StackSampler,
    TraceTemplate,
    capture_trace_profile,
    profile_from_traces,
)
from repro.simulator import CycleKind, MetricSink


def make_metrics():
    sink = MetricSink()
    sink.charge(600, F.IO, L.KERNEL)
    sink.charge(200, F.IO, L.MEMORY)
    sink.charge(200, F.COMPRESSION, L.ZSTD)
    sink.charge(999, F.IO, L.SSL, CycleKind.BLOCKED)  # ignored by default
    return sink


class TestProfileFromTraces:
    def test_tagging_and_bucketing_recover_categories(self):
        samples = [
            SampledTrace(("w", "rpc_send_loop", "memcpy"), 100, 60),
            SampledTrace(("w", "zstd_compress_block", "zstd_compress"), 300, 270),
        ]
        profile = profile_from_traces(samples, "svc", "GenC")
        assert profile.leaf_shares()[L.MEMORY] == pytest.approx(0.25)
        assert profile.functionality_shares()[F.COMPRESSION] == pytest.approx(0.75)

    def test_measured_ipc_is_ratio_of_aggregates(self):
        samples = [
            SampledTrace(("w", "rpc_send_loop", "memcpy"), 100, 60),
            SampledTrace(("w", "rpc_recv_loop", "memcpy"), 100, 100),
        ]
        profile = profile_from_traces(samples, "svc", "GenC")
        assert profile.leaf_ipc(L.MEMORY) == pytest.approx(0.8)

    def test_empty_samples_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_traces([], "svc", "GenC")


class TestEndToEndCapture:
    def test_capture_preserves_cycles_and_categories(self):
        templates = [
            TraceTemplate(("svc", "rpc_send_loop", "memcpy"), F.IO, L.MEMORY),
            TraceTemplate(("svc", "io_loop", "tcp_sendmsg"), F.IO, L.KERNEL),
            TraceTemplate(
                ("svc", "zstd_compress_block", "zstd_compress"),
                F.COMPRESSION, L.ZSTD,
            ),
        ]
        profile = capture_trace_profile(
            make_metrics(), StackSampler(templates), IPCModel("GenC"), "svc"
        )
        assert profile.total_cycles == pytest.approx(1000)
        assert profile.functionality_shares()[F.IO] == pytest.approx(0.8)
        assert profile.leaf_shares()[L.ZSTD] == pytest.approx(0.2)


SAMPLES = [
    SampledTrace(("w", "rpc_send_loop", "memcpy"), 100, 60),
    SampledTrace(("w", "zstd_compress_block", "zstd_compress"), 300, 270),
]


class TestProfileAccounting:
    @pytest.mark.parametrize("cycles, instructions", [(-1, 0), (0, -1)])
    def test_counters_reject_negative_counts(self, cycles, instructions):
        with pytest.raises(ProfileError, match="non-negative"):
            CategoryCounters().add(cycles, instructions)

    def test_counters_without_cycles_have_no_ipc(self):
        with pytest.raises(ProfileError, match="zero cycles"):
            CategoryCounters().ipc

    def test_shares_of_an_empty_profile_are_undefined(self):
        empty = ExecutionProfile("svc", "GenC", leaf={}, functionality={})
        with pytest.raises(ProfileError, match="no cycles"):
            empty.leaf_shares()
        with pytest.raises(ProfileError, match="no cycles"):
            empty.functionality_shares()

    def test_ipc_of_an_unrecorded_category_is_an_error(self):
        profile = profile_from_traces(SAMPLES, "svc", "GenC")
        with pytest.raises(ProfileError, match="no cycles recorded"):
            profile.leaf_ipc(L.SSL)
        with pytest.raises(ProfileError, match="no cycles recorded"):
            profile.functionality_ipc(F.LOGGING)

    def test_leaf_and_functionality_views_account_for_the_same_cycles(self):
        profile = profile_from_traces(SAMPLES, "svc", "GenC")
        assert sum(profile.leaf_shares().values()) == pytest.approx(1.0)
        assert sum(profile.functionality_shares().values()) == (
            pytest.approx(1.0))
        assert profile.total_cycles == sum(
            c.cycles for c in profile.functionality.values())
