"""The built-in rule pack.

Importing this package registers every rule with the registry; the
modules group rules by the invariant family they protect.
"""

from . import (
    api,
    deep,
    determinism,
    effects,
    observability,
    perf,
    specs,
    units,
)

__all__ = [
    "api",
    "deep",
    "determinism",
    "effects",
    "observability",
    "perf",
    "specs",
    "units",
]
