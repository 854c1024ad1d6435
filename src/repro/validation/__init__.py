"""Validation of the Accelerometer model (Sec. 4): A/B harness, the three
retrospective case studies, and the Fig. 16-18 breakdown shifts."""

from .abtest import ABTestResult, ab_test
from .matrix import (
    MatrixCell,
    MatrixSummary,
    validate_cell,
    validation_matrix,
)
from .breakdown_shift import FunctionalityShift, functionality_shift
from .case_studies import (
    CACHE3_DEVICE_SPEEDUP,
    CaseStudyOutcome,
    model_estimate,
    run_all_case_studies,
    scenario_for,
    simulate_aes_ni,
    simulate_all_case_studies,
    simulate_cache3_encryption,
    simulate_remote_inference,
)

__all__ = [
    "ABTestResult",
    "CACHE3_DEVICE_SPEEDUP",
    "CaseStudyOutcome",
    "FunctionalityShift",
    "MatrixCell",
    "MatrixSummary",
    "ab_test",
    "validate_cell",
    "validation_matrix",
    "functionality_shift",
    "model_estimate",
    "run_all_case_studies",
    "scenario_for",
    "simulate_aes_ni",
    "simulate_all_case_studies",
    "simulate_cache3_encryption",
    "simulate_remote_inference",
]
