"""Accelerometer reproduction: analytical acceleration modelling and
hyperscale microservice overhead characterization.

Reproduction of Sriraman & Dhanotia, "Accelerometer: Understanding
Acceleration Opportunities for Data Center Overheads at Hyperscale"
(ASPLOS 2020).

Quickstart::

    from repro import project, ThreadingDesign, Placement

    result = project(
        total_cycles=2.0e9, kernel_fraction=0.166, offloads_per_unit=3e5,
        peak_speedup=6, design=ThreadingDesign.SYNC,
        placement=Placement.ON_CHIP, dispatch_cycles=10, interface_cycles=3,
    )
    print(f"projected speedup: {result.speedup_percent:.1f}%")

Subpackages:

* :mod:`repro.core` -- the Accelerometer analytical model (eqns. 1-8).
* :mod:`repro.simulator` -- discrete-event microservice simulator.
* :mod:`repro.workloads` -- calibrated models of the seven services.
* :mod:`repro.profiling` -- Strobelight-style profiling substrate.
* :mod:`repro.characterization` -- regenerates Figs. 1-10, 15, 19, 21, 22.
* :mod:`repro.validation` -- the three case studies (Table 6, Figs. 16-18).
* :mod:`repro.application` -- Table-7 projections (Fig. 20) and ablations.
* :mod:`repro.fleet` -- fleet-wide capacity projection.
* :mod:`repro.paperdata` -- every published figure/table as constants.
"""

from .core import (
    Accelerometer,
    AcceleratorSpec,
    GranularityDistribution,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ProjectionResult,
    ThreadingDesign,
    project,
)
from .core.baselines import LogCA
from .errors import (
    CalibrationError,
    ParameterError,
    ProfileError,
    ReproError,
    SimulationError,
    UnknownServiceError,
)

__version__ = "1.0.0"

__all__ = [
    "Accelerometer",
    "AcceleratorSpec",
    "CalibrationError",
    "GranularityDistribution",
    "KernelProfile",
    "LogCA",
    "OffloadCosts",
    "OffloadScenario",
    "ParameterError",
    "Placement",
    "ProfileError",
    "ProjectionResult",
    "ReproError",
    "SimulationError",
    "ThreadingDesign",
    "UnknownServiceError",
    "__version__",
    "project",
]
