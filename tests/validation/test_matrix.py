"""Tests for the sim-vs-model validation matrix."""

import pytest

from repro.core import ThreadingDesign
from repro.validation import validate_cell, validation_matrix


class TestValidateCell:
    @pytest.mark.parametrize(
        "design",
        [ThreadingDesign.SYNC, ThreadingDesign.ASYNC,
         ThreadingDesign.ASYNC_DISTINCT_THREAD],
    )
    def test_single_cell_error_small(self, design):
        cell = validate_cell(design, alpha=0.3, interface_cycles=200.0,
                             thread_switch_cycles=300.0)
        assert cell.error_pp < 0.7

    def test_sync_os_cell(self):
        cell = validate_cell(ThreadingDesign.SYNC_OS, alpha=0.3,
                             interface_cycles=200.0,
                             thread_switch_cycles=300.0)
        assert cell.error_pp < 1.0

    def test_cell_carries_parameters(self):
        cell = validate_cell(ThreadingDesign.SYNC, 0.1, 0.0, 0.0)
        assert cell.alpha == 0.1
        assert cell.design is ThreadingDesign.SYNC


class TestValidationMatrix:
    @pytest.fixture(scope="class")
    def summary(self):
        # A reduced grid keeps the test under a few seconds.
        return validation_matrix(
            designs=(ThreadingDesign.SYNC, ThreadingDesign.ASYNC),
            alphas=(0.2, 0.5),
            interface_cycles=(0.0, 400.0),
            window_cycles=6.0e6,
        )

    def test_grid_size(self, summary):
        assert len(summary.cells) == 8

    def test_errors_bounded(self, summary):
        assert summary.max_error_pp < 1.0
        assert summary.mean_error_pp < 0.5

    def test_worst_cell_is_max(self, summary):
        assert summary.worst_cell().error_pp == summary.max_error_pp


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6])
def test_synthetic_request_is_built_once_and_shared(alpha):
    from repro.validation.matrix import KERNEL_CYCLES, synthetic_request

    factory, plain = synthetic_request(alpha)
    spec = factory()
    assert factory() is spec
    assert spec.total_host_cycles() == plain + KERNEL_CYCLES
    assert plain == KERNEL_CYCLES * (1.0 - alpha) / alpha
