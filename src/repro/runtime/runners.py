"""Registry of named runners the batch executor can execute.

A runner maps one :class:`~repro.runtime.spec.RunSpec` to a *picklable*
result object (built on :class:`~repro.simulator.summary.RunSummary` or a
frozen result dataclass -- never a live simulator graph, which cannot
cross a process boundary or live in the cache).  Domain modules are
imported lazily inside each runner so this module stays import-light and
free of circular dependencies: the characterization/validation layers
import the batch executor, and the executor only touches them at run
time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..errors import ParameterError
from .spec import RunSpec

Runner = Callable[[RunSpec], Any]

_REGISTRY: Dict[str, Runner] = {}


def register_runner(kind: str) -> Callable[[Runner], Runner]:
    """Register a runner under *kind* (decorator)."""

    def decorate(runner: Runner) -> Runner:
        if kind in _REGISTRY:
            raise ParameterError(f"runner {kind!r} already registered")
        _REGISTRY[kind] = runner
        return runner

    return decorate


def registered_kinds() -> tuple:
    return tuple(sorted(_REGISTRY))


def run_spec(spec: RunSpec) -> Any:
    """Execute one spec with its registered runner."""
    try:
        runner = _REGISTRY[spec.kind]
    except KeyError:
        raise ParameterError(
            f"unknown run kind {spec.kind!r}; registered: {registered_kinds()}"
        ) from None
    return runner(spec)


# ---------------------------------------------------------------------------
# Built-in runners.
# ---------------------------------------------------------------------------


@register_runner("characterize")
def _run_characterize(spec: RunSpec) -> Any:
    """One service characterization (simulation summary + profile)."""
    from ..characterization.pipeline import characterize

    kwargs = spec.params_dict()
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    return characterize(**kwargs)


@register_runner("matrix_cell")
def _run_matrix_cell(spec: RunSpec) -> Any:
    """One validation-matrix grid point (sim A/B vs the model)."""
    from ..validation.matrix import validate_cell

    return validate_cell(**spec.params_dict())


@register_runner("case_study")
def _run_case_study(spec: RunSpec) -> Any:
    """One Table-6 case-study A/B simulation."""
    from ..validation.case_studies import CASE_STUDY_SIMULATORS

    kwargs = spec.params_dict()
    name = kwargs.pop("name")
    try:
        simulate = CASE_STUDY_SIMULATORS[name]
    except KeyError:
        raise ParameterError(
            f"unknown case study {name!r}; "
            f"choose from {sorted(CASE_STUDY_SIMULATORS)}"
        ) from None
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    return simulate(**kwargs)


@register_runner("oversubscription_point")
def _run_oversubscription_point(spec: RunSpec) -> Any:
    """One threads-per-core level of the oversubscription study."""
    from ..application.oversubscription import (
        OversubscriptionStudyConfig,
        run_point,
    )

    kwargs = spec.params_dict()
    config = kwargs.pop("config", None) or OversubscriptionStudyConfig()
    return run_point(config, **kwargs)


@register_runner("resilience_point")
def _run_resilience_point(spec: RunSpec) -> Any:
    """One (failure-rate, timeout) cell of the degraded-mode study."""
    from ..application.resilience import run_resilience_point

    kwargs = spec.params_dict()
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    return run_resilience_point(**kwargs)


@register_runner("shared_device_point")
def _run_shared_device_point(spec: RunSpec) -> Any:
    """One (tenants, weight, batch, drop-rate) cell of the shared-device
    contention study."""
    from ..application.shared_device import run_shared_device_point

    kwargs = spec.params_dict()
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    return run_shared_device_point(**kwargs)
