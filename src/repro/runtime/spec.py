"""Declarative run specifications.

A :class:`RunSpec` names *what to simulate* without holding any live
object: a registered runner kind (``"characterize"``,
``"synthetic_baseline"``, ...), a seed, and a flat parameter mapping of
plain data (numbers, strings, enums, frozen dataclasses, or objects
defining ``__canonical__()``).  Because the spec is pure data it can be pickled to
a worker process and hashed into a content-addressed cache key --
the two capabilities the batch executor is built on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from ..canonical import canonical_digest, canonicalize

#: Version salt folded into every cache key.  Bump whenever the meaning
#: of a runner, the summary schema, or the simulator's RNG stream
#: changes: old cache entries become unreachable instead of stale.
SCHEMA_VERSION = "accelerometer-runtime-v4"


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One declarative, hashable, picklable simulation request."""

    #: Registered runner name (see :mod:`repro.runtime.runners`).
    kind: str

    #: Sorted ``(name, value)`` parameter pairs (sorted so that two specs
    #: built with the same kwargs in different orders are equal).
    params: Tuple[Tuple[str, Any], ...] = ()

    #: RNG seed for runners that take one; ``None`` for deterministic
    #: runners.
    seed: Optional[int] = None

    @classmethod
    def create(cls, kind: str, seed: Optional[int] = None, **params: Any) -> "RunSpec":
        """Build a spec from keyword parameters.

        ``None``-valued parameters are dropped so that "argument omitted"
        and "argument explicitly None" hash identically -- both mean
        "use the runner's default".
        """
        items = tuple(
            sorted((name, value) for name, value in params.items() if value is not None)
        )
        return cls(kind=kind, params=items, seed=seed)

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def key(self) -> str:
        """Content-addressed cache key: SHA-256 of the canonical encoding
        of (kind, params, seed), salted with :data:`SCHEMA_VERSION`."""
        return canonical_digest(self, salt=SCHEMA_VERSION)

    def describe(self) -> str:
        """Human-readable one-liner for logs and progress output."""
        args = ", ".join(f"{name}={value!r}" for name, value in self.params)
        seed = f", seed={self.seed}" if self.seed is not None else ""
        return f"{self.kind}({args}{seed})"

    def __post_init__(self) -> None:
        # Fail fast on un-hashable parameters: a spec that cannot be
        # canonicalized would otherwise only blow up at cache-lookup time.
        canonicalize(self.params)
