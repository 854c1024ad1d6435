"""Golden pre-shared-device fingerprints and cache-schema compatibility.

The multi-tenant device refactor rebuilt the accelerator's dispatch
machinery, so this module pins the *pre-PR* artifacts directly: the
``characterize("cache1")`` digests captured before the shared scheduler
existed must hash out unchanged (a device with no tenants rides the
eager path byte for byte), and the result cache must keep replaying old
entries -- the new study types are *new* frozen dataclasses, not layout
changes to existing ones, so :data:`~repro.runtime.SCHEMA_VERSION`
intentionally does not move.
"""

from __future__ import annotations

import pickle

import pytest

from repro.application.shared_device import SharedDevicePoint, TenantRun
from repro.characterization import characterize
from repro.runtime import SCHEMA_VERSION, RunSpec
from repro.validation.case_studies import CASE_STUDY_SIMULATORS
from repro.workloads import ALL_SERVICES

#: RunSummary fingerprints for
#: characterize("cache1", seed=2020, num_cores=2, requests_target=...),
#: captured on the commit before the shared-device scheduler landed.
GOLDEN = {
    30: "c216cf2c9587677255fda0b066d4589587991c47ccffb2ba6a1d5ff2e53549a2",
    50: "ff046a8373079b8ad0d32051f563e256b9b0cd9d4edec5bfbc896841fd79d7d6",
}


@pytest.mark.parametrize("requests_target", sorted(GOLDEN))
def test_characterize_digests_survive_the_shared_device_refactor(
    requests_target,
):
    run = characterize(
        "cache1", seed=2020, num_cores=2, requests_target=requests_target
    )
    assert run.simulation.fingerprint() == GOLDEN[requests_target]


#: RunSummary fingerprints of every service for
#: characterize(name, seed=2020, num_cores=2, requests_target=30),
#: captured before request generation shared one precomputed
#: KernelInvocation per size and host-run calls ran inline in the
#: segment loop.
FLEET_GOLDEN = {
    "ads1": "6088e605c83559bd14ff1b50909088f463ecb89a75451d8b210f4a1836e8d89e",
    "ads2": "c2c027008056d29ab34a40c345519c30ec741b357d9e93c26b245cd32b874c19",
    "cache1": "c216cf2c9587677255fda0b066d4589587991c47ccffb2ba6a1d5ff2e53549a2",
    "cache2": "8dd5db550dd8a0fefb586fb1c64231a308a955b01e824dad496d8913b54d3920",
    "cache3": "dbdb414269c1fa5b59676f7e06452dc2b7fb61efea45d0b722b6f99bf9a38664",
    "feed1": "a209346ddb6e6ea8405c07925069c523383859fa71cfb70255907e13eac4d2c2",
    "feed2": "5dda7ef28c0d61ba6ad3981e552732ee605b7da7143402d5ea094c5712585665",
    "web": "017ee9d08d4b2a089f20e30ab75748aec38bf6111951f6c6acc1e8a399df4c58",
}


def test_fleet_golden_covers_every_service():
    assert sorted(FLEET_GOLDEN) == sorted(ALL_SERVICES)


@pytest.mark.parametrize("name", sorted(FLEET_GOLDEN))
def test_fleet_digests_survive_the_invocation_tables(name):
    run = characterize(name, seed=2020, num_cores=2, requests_target=30)
    assert run.simulation.fingerprint() == FLEET_GOLDEN[name]


#: RunSummary fingerprints of both runs of every Table-6 case study at
#: its default arguments (the runs ``table6`` prints), captured before
#: the case-study factories drew sizes through a precomputed CDF and
#: shared their IO segment's plain ops.  ``offload_records.json`` pins
#: only the accelerated offloads, and ``table6`` prints two decimals.
CASE_STUDY_GOLDEN = {
    ("aes-ni", "baseline"):
        "b473d59e00d1bbe3687f6449ade75b38b972707d916d06aaa0bb3910fd8c41d4",
    ("aes-ni", "accelerated"):
        "f99f057383576e23d5f1b3d11ef0799990d0501ead0fd855566ed4c4752aea38",
    ("encryption", "baseline"):
        "6861fa0ccf5c81fd0418fd8adec51a4ae635607cc34f3db254fb17dcf2f23347",
    ("encryption", "accelerated"):
        "6b1cacbcc98121f3fdc086d67080c865c0a959faa95616c7030eca3976ada8f0",
    ("inference", "baseline"):
        "4b43fb5d17bf543a7cec9cbe52361671e33fabc0e5c8997387a513220d155f1c",
    ("inference", "accelerated"):
        "bbbd8fe873ab826fd37ea50be3ca1bbffc624c4e6b53186f144c3fa06d2396bf",
}


@pytest.fixture(scope="module")
def case_studies():
    return {name: simulate() for name, simulate in CASE_STUDY_SIMULATORS.items()}


def test_case_study_golden_covers_every_run():
    assert sorted(CASE_STUDY_GOLDEN) == sorted(
        (name, variant)
        for name in CASE_STUDY_SIMULATORS
        for variant in ("baseline", "accelerated")
    )


@pytest.mark.parametrize("name,variant", sorted(CASE_STUDY_GOLDEN))
def test_case_study_digests_survive_the_request_templates(
    case_studies, name, variant
):
    run = getattr(case_studies[name], variant)
    assert run.fingerprint() == CASE_STUDY_GOLDEN[name, variant]


def test_cache_schema_version_is_unchanged():
    """Old cache entries must keep replaying: the shared-device studies
    add new result types rather than changing any pickled layout."""
    assert SCHEMA_VERSION == "accelerometer-runtime-v4"


def test_characterize_cache_key_is_stable():
    """Run-spec cache keys for pre-existing studies must not move either,
    or a warm cache would silently re-run everything."""
    spec = RunSpec.create(
        "characterize", seed=2020, name="cache1", num_cores=2,
        requests_target=30,
    )
    assert spec.key() == (
        "1683719f44ef412825bd24608b55d5c981eeab6c816d771d174f9699481b581b"
    )


def test_new_study_results_pickle_under_the_current_schema():
    point = SharedDevicePoint(
        tenants=2, weight=2.0, batch_size=4, drop_probability=0.1,
        model_speedup=1.25, simulated_speedup=1.24, attempts=10, drops=3,
        device_utilization=0.4,
    )
    assert pickle.loads(pickle.dumps(point)) == point
    run = TenantRun(
        tenant="tenant-0", weight=1.0, completed_requests=5,
        throughput=1e-3, offloads_served=15, busy_cycles=100.0,
        mean_queue_cycles=2.0, attempts=0, drops=0, fallbacks=0,
    )
    assert pickle.loads(pickle.dumps(run)) == run
