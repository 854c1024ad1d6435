"""Published data from the Accelerometer paper, transcribed as constants.

Provenance levels (noted per module):

* **exact** -- values printed in the paper's tables or prose (Table 1, 5,
  6, 7; the speedup percentages; textual anchors like "Web spends 18% of
  cycles in core web serving logic").
* **digitized** -- per-segment values recovered from the figures' embedded
  data labels, cross-checked against prose anchors (e.g. Fig. 2's memory
  column is confirmed by Fig. 3's "Net =" labels and by Table 7's
  ``alpha = 0.1512`` for Ads1 memory copy).
* **reconstructed** -- segments the figure text does not disambiguate;
  chosen to sum to 100%, honor every prose anchor, and preserve the
  orderings the paper calls out.  These carry the characterization's
  *shape*, not its exact values.
"""

from .case_studies import (
    ADS1_INFERENCE_STUDY,
    CACHE1_AES_NI_STUDY,
    CACHE3_ENCRYPTION_STUDY,
    CaseStudyRecord,
    TABLE6_CASE_STUDIES,
)
from .categories import (
    LEAF_CATEGORIES,
    FunctionalityCategory,
    LeafCategory,
)
from .cdfs import (
    ALLOCATION_BINS,
    ALLOCATION_CDFS,
    COMPRESSION_BINS,
    COMPRESSION_CDFS,
    COPY_BINS,
    COPY_CDFS,
    ENCRYPTION_BINS,
    ENCRYPTION_CDFS,
)
from .findings import FINDINGS, Finding
from .breakdowns import (
    CLIB_BREAKDOWN,
    COPY_ORIGINS,
    FB_SERVICES,
    FUNCTIONALITY_BREAKDOWN,
    KERNEL_BREAKDOWN,
    LEAF_BREAKDOWN,
    MEMORY_BREAKDOWN,
    ORCHESTRATION_SPLIT,
    SYNC_BREAKDOWN,
)
from .ipc import FIG10_FUNCTIONALITY_IPC, FIG8_LEAF_IPC
from .platforms import GENA, GENB, GENC, PLATFORMS, PlatformSpec
from .projections import (
    FIG20_EXPECTED_SPEEDUPS,
    PROJECTION_PARAMETERS,
    ProjectionParameters,
)

__all__ = [
    "ADS1_INFERENCE_STUDY",
    "ALLOCATION_BINS",
    "ALLOCATION_CDFS",
    "CACHE1_AES_NI_STUDY",
    "CACHE3_ENCRYPTION_STUDY",
    "CLIB_BREAKDOWN",
    "COMPRESSION_BINS",
    "COMPRESSION_CDFS",
    "COPY_BINS",
    "COPY_CDFS",
    "COPY_ORIGINS",
    "CaseStudyRecord",
    "ENCRYPTION_BINS",
    "ENCRYPTION_CDFS",
    "FB_SERVICES",
    "FIG10_FUNCTIONALITY_IPC",
    "FIG20_EXPECTED_SPEEDUPS",
    "FIG8_LEAF_IPC",
    "FINDINGS",
    "FUNCTIONALITY_BREAKDOWN",
    "Finding",
    "FunctionalityCategory",
    "GENA",
    "GENB",
    "GENC",
    "KERNEL_BREAKDOWN",
    "LEAF_BREAKDOWN",
    "LEAF_CATEGORIES",
    "LeafCategory",
    "MEMORY_BREAKDOWN",
    "ORCHESTRATION_SPLIT",
    "PLATFORMS",
    "PROJECTION_PARAMETERS",
    "PlatformSpec",
    "ProjectionParameters",
    "SYNC_BREAKDOWN",
    "TABLE6_CASE_STUDIES",
]
