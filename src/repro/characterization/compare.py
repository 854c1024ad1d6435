"""Measured-vs-published comparison for the characterization figures.

The reproduction's acceptance criterion is *shape preservation*: dominant
categories, orderings, and magnitudes should match the paper's published
breakdowns within sampling tolerance.  :func:`compare_breakdown` packages
the shape metrics for one service.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Mapping

from ..profiling.reports import l1_distance, normalize, rank_agreement, same_dominant


@dataclasses.dataclass(frozen=True)
class BreakdownComparison:
    """Shape metrics between a measured and a published breakdown."""

    service: str
    figure: str
    l1: float
    dominant_match: bool
    rank_tau: float
    measured: Dict[Hashable, float]
    published: Dict[Hashable, float]

    def acceptable(self, l1_budget: float = 0.10) -> bool:
        """Default acceptance: small L1 gap and agreeing top category."""
        return self.l1 <= l1_budget and self.dominant_match


def compare_breakdown(
    service: str,
    figure: str,
    measured: Mapping[Hashable, float],
    published: Mapping[Hashable, float],
    min_share_for_rank: float = 0.02,
) -> BreakdownComparison:
    """Compute shape metrics; rank agreement ignores categories below
    *min_share_for_rank* in the published data (tiny bars' orderings are
    noise in both the paper's figures and our sampling)."""
    published_normalized = normalize(published)
    significant = {
        key: value
        for key, value in published_normalized.items()
        if value >= min_share_for_rank
    }
    measured_normalized = normalize(measured)
    measured_significant = {
        key: measured_normalized.get(key, 0.0) for key in significant
    }
    return BreakdownComparison(
        service=service,
        figure=figure,
        l1=l1_distance(measured, published),
        dominant_match=same_dominant(measured, published, top=1),
        rank_tau=rank_agreement(measured_significant, significant)
        if len(significant) >= 2
        else 1.0,
        measured={k: round(v * 100, 2) for k, v in measured_normalized.items()},
        published={k: round(v * 100, 2) for k, v in published_normalized.items()},
    )
