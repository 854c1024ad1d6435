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


@register_runner("synthetic_baseline")
def _run_synthetic_baseline(spec: RunSpec) -> Any:
    """The synthetic service without offload: the shared baseline side
    of the matrix, resilience and shared-device A/B cells."""
    from ..validation.abtest import RunCounts
    from ..validation.matrix import run_synthetic

    return RunCounts.of(run_synthetic(**spec.params_dict()))


@register_runner("matrix_accelerated")
def _run_matrix_accelerated(spec: RunSpec) -> Any:
    """One validation-matrix grid point's offloading side."""
    from ..validation.abtest import RunCounts
    from ..validation.matrix import run_matrix_accelerated

    return RunCounts.of(run_matrix_accelerated(**spec.params_dict()))


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


@register_runner("resilience_accelerated")
def _run_resilience_accelerated(spec: RunSpec) -> Any:
    """One degraded-mode cell's faulty offloading side."""
    from ..application.resilience import run_resilience_accelerated
    from ..validation.abtest import RunCounts

    return RunCounts.of(run_resilience_accelerated(
        seed=spec.seed, **spec.params_dict()
    ))


@register_runner("shared_device_run")
def _run_shared_device(spec: RunSpec) -> Any:
    """One window of tenants sharing one device (the offloading side of a
    shared-device cell or contention row)."""
    from ..application.shared_device import run_shared

    return run_shared(seed=spec.seed, **spec.params_dict())
