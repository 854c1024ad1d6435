"""Characterization pipeline: regenerates the paper's Figs. 1-10, 15, 19,
21, 22 from simulated executions of the calibrated workloads."""

from .cdf import (
    CdfFigure,
    fig15_encryption_cdf,
    fig19_compression_cdf,
    fig21_copy_cdf,
    fig22_allocation_cdf,
)
from .compare import (
    BreakdownComparison,
    compare_breakdown,
)
from .findings import DerivedFinding, derive_findings, findings_report
from .figures import (
    fig1_orchestration_split,
    fig2_leaf_breakdown,
    fig2_reference_rows,
    fig3_memory_breakdown,
    fig4_copy_origins,
    fig5_kernel_breakdown,
    fig6_sync_breakdown,
    fig7_clib_breakdown,
    fig9_functionality_breakdown,
)
from .ipc_scaling import (
    FIG10_CATEGORIES,
    FIG8_CATEGORIES,
    GENERATIONS,
    characterize_across_generations,
    fig10_functionality_ipc,
    fig8_leaf_ipc,
    genb_to_genc_gain,
    peak_utilization,
    scaling_factor,
)
from .pipeline import CharacterizationRun, characterize, characterize_all

__all__ = [
    "BreakdownComparison",
    "CdfFigure",
    "CharacterizationRun",
    "FIG10_CATEGORIES",
    "FIG8_CATEGORIES",
    "GENERATIONS",
    "characterize",
    "characterize_across_generations",
    "characterize_all",
    "compare_breakdown",
    "DerivedFinding",
    "derive_findings",
    "findings_report",
    "fig10_functionality_ipc",
    "fig15_encryption_cdf",
    "fig19_compression_cdf",
    "fig1_orchestration_split",
    "fig21_copy_cdf",
    "fig22_allocation_cdf",
    "fig2_leaf_breakdown",
    "fig2_reference_rows",
    "fig3_memory_breakdown",
    "fig4_copy_origins",
    "fig5_kernel_breakdown",
    "fig6_sync_breakdown",
    "fig7_clib_breakdown",
    "fig8_leaf_ipc",
    "fig9_functionality_breakdown",
    "genb_to_genc_gain",
    "peak_utilization",
    "scaling_factor",
]
