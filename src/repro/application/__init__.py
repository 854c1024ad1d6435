"""Application of the Accelerometer model (Sec. 5): Table-7 projections,
Fig. 20, and ablations over the modelling choices."""

from .ablations import (
    SelectiveOffloadAblation,
    complexity_sensitivity,
    pipelining_benefit,
    queueing_sensitivity,
    selective_vs_offload_all,
    threading_design_comparison,
)
from .oversubscription import (
    OversubscriptionPoint,
    OversubscriptionStudyConfig,
    oversubscription_study,
    run_point,
    saturation_level,
)
from .recommendations import Recommendation, quantify_recommendations
from .slo import SloCheck, check_slo
from .resilience import (
    Ads1ResiliencePoint,
    ResilienceGrid,
    ResiliencePoint,
    ads1_resilience_sweep,
    resilience_grid,
    run_resilience_point,
)
from .shared_device import (
    ContentionRow,
    SharedDevicePoint,
    SharedDeviceRun,
    TenantRun,
    contention_case_study,
    contention_report,
    run_shared_device_point,
)
from .projections import (
    OverheadProjection,
    fig20_comparison,
    fig20_table,
    project_overhead,
    project_row,
    scenario_for_projection,
)

__all__ = [
    "Ads1ResiliencePoint",
    "ContentionRow",
    "ResilienceGrid",
    "ResiliencePoint",
    "SharedDevicePoint",
    "SharedDeviceRun",
    "TenantRun",
    "ads1_resilience_sweep",
    "contention_case_study",
    "contention_report",
    "resilience_grid",
    "run_resilience_point",
    "run_shared_device_point",
    "OverheadProjection",
    "OversubscriptionPoint",
    "OversubscriptionStudyConfig",
    "oversubscription_study",
    "run_point",
    "saturation_level",
    "Recommendation",
    "SloCheck",
    "quantify_recommendations",
    "check_slo",
    "SelectiveOffloadAblation",
    "complexity_sensitivity",
    "fig20_comparison",
    "fig20_table",
    "pipelining_benefit",
    "project_overhead",
    "project_row",
    "queueing_sensitivity",
    "scenario_for_projection",
    "selective_vs_offload_all",
    "threading_design_comparison",
]
