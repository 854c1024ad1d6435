"""Shared argument guards for simulator measurement code.

Measurement windows appear in several places (:class:`SimulationConfig`,
:class:`~repro.simulator.metrics.MetricSink`,
:class:`~repro.simulator.summary.RunSummary`); all of them must agree on
what a usable window is.  A config object can also be *mutated* after
validation (``dataclasses.replace`` or ``object.__setattr__`` on a frozen
instance), so consumers re-check at the point of division rather than
trusting construction-time validation alone.
"""

from __future__ import annotations

import math

from ..errors import ParameterError


def require_positive_window(window_cycles: float, context: str = "window_cycles") -> float:
    """Validate a measurement window before dividing by it.

    Rejects zero, negative, NaN, and infinite windows -- the "0-adjacent"
    values that turn a throughput division into garbage.
    """
    if not isinstance(window_cycles, (int, float)):
        raise ParameterError(f"{context} must be a number, got {type(window_cycles).__name__}")
    if math.isnan(window_cycles) or math.isinf(window_cycles):
        raise ParameterError(f"{context} must be finite, got {window_cycles}")
    if window_cycles <= 0:
        raise ParameterError(f"{context} must be > 0, got {window_cycles}")
    return float(window_cycles)
