"""Content-addressed on-disk result cache.

Entries are keyed by :meth:`RunSpec.key` -- a SHA-256 of the spec's
canonical encoding salted with the runtime schema version -- and hold the
pickled, *detached* result of one run (a
:class:`~repro.simulator.summary.RunSummary`-based object, never a live
simulator graph).  Properties:

* **Deterministic addressing**: the same spec always maps to the same
  file, across processes and machines; a schema bump orphans (does not
  corrupt) old entries.
* **Atomic writes**: results are written to a temp file and
  ``os.replace``d into place, so concurrent workers and interrupted runs
  can never leave a half-written entry under a valid key.
* **Corruption tolerance**: an unreadable entry is treated as a miss and
  deleted, never propagated.  Drops are classified *stale* (the bytes
  unpickled into a shape this build no longer imports) vs *corrupt*
  (truncated or garbled pickle stream) for telemetry.
* **Crash recovery**: interrupted ``put()`` calls can leave orphaned
  ``.tmp`` files behind; :meth:`ResultCache.sweep_orphans` removes them,
  :meth:`ResultCache.clear` sweeps them too, and ``__len__``/``clear``
  never count them as entries.

The cache is observable through an optional
:class:`~repro.observability.telemetry.CacheTelemetry` attached as
``cache.telemetry``; every telemetry call is ``is not None``-gated
(OBS001) and all clock reads live inside the telemetry object, so an
unattached cache stays bit-identical in behaviour and never touches a
clock.

The default cache root is ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/accelerometer-repro``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple, Union

#: Exception types that mean the entry unpickled into a no-longer-valid
#: shape (schema drift across builds) rather than a damaged byte stream.
_STALE_ERRORS = (AttributeError, ImportError, TypeError, IndexError)

_ENV_VAR = "REPRO_CACHE_DIR"
_DEFAULT_DIRNAME = "accelerometer-repro"


def default_cache_root() -> Path:
    """Resolve the cache directory from the environment."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / _DEFAULT_DIRNAME


class ResultCache:
    """Pickle-backed content-addressed store of run results."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        #: Lookup counters (since construction), for tests and reporting.
        self.hits = 0
        self.misses = 0
        #: Optional :class:`~repro.observability.telemetry.CacheTelemetry`;
        #: ``None`` means no telemetry and no clock reads whatsoever.
        self.telemetry: Optional[Any] = None

    def path_for(self, key: str) -> Path:
        # Two-level fan-out keeps directories small for large sweeps.
        return self.root / key[:2] / f"{key}.pkl"

    # -- lookup / store -----------------------------------------------------

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        telemetry = self.telemetry
        began = 0.0
        if telemetry is not None:
            began = telemetry.begin()
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
                nbytes = handle.tell()
        except FileNotFoundError:
            self.misses += 1
            if telemetry is not None:
                telemetry.record_lookup("miss", began, 0)
            return False, None
        except Exception as error:
            # Truncated or stale-format entry: drop it and miss.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            if telemetry is not None:
                dropped = (
                    "stale-drop"
                    if isinstance(error, _STALE_ERRORS) else "corrupt-drop"
                )
                telemetry.record_lookup(dropped, began, 0)
            return False, None
        self.hits += 1
        if telemetry is not None:
            telemetry.record_lookup("hit", began, nbytes)
        return True, value

    def get(self, key: str, default: Any = None) -> Any:
        found, value = self.lookup(key)
        return value if found else default

    def put(self, key: str, value: Any) -> None:
        """Atomically store *value* under *key*."""
        telemetry = self.telemetry
        began = 0.0
        if telemetry is not None:
            began = telemetry.begin()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                nbytes = handle.tell()
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if telemetry is not None:
            telemetry.record_put(began, nbytes)

    # -- maintenance --------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number of *entries* removed.

        Orphaned temp files are swept as well but never counted -- the
        return value matches what ``__len__`` would have reported.
        """
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*/*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        self.sweep_orphans()
        return removed

    def sweep_orphans(self) -> int:
        """Crash recovery: delete orphaned ``.tmp`` files.

        An interrupted ``put()`` (power loss, SIGKILL -- anything that
        skips the ``except BaseException`` cleanup) strands its temp
        file next to the entries.  Orphans are invisible to ``lookup``,
        ``__len__``, and ``clear``'s count, but they leak disk; this
        sweeps them.  Returns the number removed.
        """
        removed = 0
        if self.root.is_dir():
            for orphan in sorted(self.root.glob("*/.*.tmp")):
                try:
                    orphan.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def resolve_cache(
    cache: Union[None, bool, ResultCache]
) -> Optional[ResultCache]:
    """Normalize the ``cache=`` argument accepted across the repo.

    ``None``/``False`` disable caching, ``True`` uses the default on-disk
    location, and a :class:`ResultCache` instance is used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache
