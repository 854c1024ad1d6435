"""Fixture: a cache key one call away from the stdlib's shared RNG.

The draw is an entropy source and a ``consumes-rng`` effect at once.
It is one defect, so it must yield one finding: DET003's.
"""

from ..util.jitter import jitter


def make_cache_key(payload: str) -> str:
    return payload + "-" + str(jitter())
