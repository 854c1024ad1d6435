"""Validation tests: the three case studies (Sec. 4, Table 6).

Two layers of checks:

1. The model's estimates reproduce Table 6's printed "Est. Speedup" to the
   printed precision, and sit within the paper's <= 3.7 percentage-point
   error of the printed production measurement.
2. A/B experiments on the simulator substrate measure speedups that match
   the model's estimates closely -- the reproduction's equivalent of the
   production validation.
"""

import pytest

from repro.paperdata import TABLE6_CASE_STUDIES
from repro.paperdata.case_studies import (
    ADS1_INFERENCE_STUDY,
    CACHE1_AES_NI_STUDY,
    CACHE3_ENCRYPTION_STUDY,
    MAX_VALIDATION_ERROR_PCT,
)
from repro.validation import model_estimate, run_all_case_studies
from repro.validation.case_studies import simulate_aes_ni


@pytest.fixture(scope="module")
def outcomes():
    return run_all_case_studies()


class TestModelEstimates:
    def test_aes_ni_estimate_matches_paper(self):
        estimate = model_estimate(CACHE1_AES_NI_STUDY)
        assert estimate.speedup_percent == pytest.approx(15.7, abs=0.1)

    def test_cache3_estimate_matches_paper(self):
        estimate = model_estimate(CACHE3_ENCRYPTION_STUDY)
        assert estimate.speedup_percent == pytest.approx(8.6, abs=0.05)

    def test_ads1_estimate_matches_paper(self):
        estimate = model_estimate(ADS1_INFERENCE_STUDY)
        assert estimate.speedup_percent == pytest.approx(72.39, abs=0.01)

    @pytest.mark.parametrize(
        "record", TABLE6_CASE_STUDIES, ids=[r.name for r in TABLE6_CASE_STUDIES]
    )
    def test_error_vs_production_within_headline(self, record):
        estimated = model_estimate(record).speedup_percent
        error = abs(estimated - record.real_speedup_pct)
        assert error <= MAX_VALIDATION_ERROR_PCT + 0.1

    def test_ads1_remote_latency_worsens(self):
        """Sec. 4: Ads1 trades per-request latency (extra ~10 ms network
        hop) for throughput; with A = 1 the model shows no latency win."""
        estimate = model_estimate(ADS1_INFERENCE_STUDY)
        assert estimate.improves_throughput
        assert not estimate.reduces_latency


class TestSimulatedValidation:
    def test_all_three_studies_present(self, outcomes):
        assert set(outcomes) == {"aes-ni", "encryption", "inference"}

    @pytest.mark.parametrize("name", ["aes-ni", "encryption", "inference"])
    def test_model_matches_simulation_within_1pp(self, outcomes, name):
        outcome = outcomes[name]
        assert outcome.model_vs_simulation_error <= 1.0

    @pytest.mark.parametrize("name", ["aes-ni", "encryption", "inference"])
    def test_model_matches_paper_estimate(self, outcomes, name):
        outcome = outcomes[name]
        assert outcome.model_vs_paper_error <= 0.15

    def test_simulated_speedups_positive(self, outcomes):
        for outcome in outcomes.values():
            assert outcome.simulated_speedup_pct > 0

    def test_reproducible_with_same_seed(self):
        first = simulate_aes_ni(seed=42, requests=200)
        second = simulate_aes_ni(seed=42, requests=200)
        assert first.speedup_percent == second.speedup_percent
