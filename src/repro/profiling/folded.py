"""Folded-stack output (FlameGraph / speedscope compatible).

Strobelight-style profiles render naturally as flame graphs.  This module
serializes sampled traces into the *folded* text format --
``frame;frame;frame count`` per line -- which ``flamegraph.pl``,
speedscope, and most profiling UIs ingest directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..errors import ProfileError
from .stacks import SampledTrace


def fold_traces(
    samples: Iterable[SampledTrace], scale: float = 1.0
) -> Dict[Tuple[str, ...], int]:
    """Aggregate sampled traces into {stack: weight} with integer weights.

    *scale* converts cycles to the folded count unit (e.g. 1e-3 to emit
    kilocycles); weights round to at least 1 so no sampled stack
    disappears.
    """
    if scale <= 0:
        raise ProfileError("scale must be positive")
    folded: Dict[Tuple[str, ...], int] = {}
    count = 0
    for sample in samples:
        count += 1
        weight = max(1, round(sample.cycles * scale))
        folded[sample.frames] = folded.get(sample.frames, 0) + weight
    if count == 0:
        raise ProfileError("no trace samples to fold")
    return folded


def to_folded_text(
    samples: Iterable[SampledTrace], scale: float = 1.0
) -> str:
    """Render samples as folded text, deepest-frame-last, sorted for
    deterministic output."""
    folded = fold_traces(samples, scale)
    lines = [
        ";".join(frames) + f" {weight}"
        for frames, weight in sorted(folded.items())
    ]
    return "\n".join(lines) + "\n"
