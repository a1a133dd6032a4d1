"""On-disk persistence for autotuned kernel choices.

``autotune_row_budget`` and the tier router both make machine-specific
choices (a row-block budget, a kernel tier) that historically lived in
process-local dicts and were re-measured by every process.  This module
persists them: a small JSON document keyed by ``(kernel, shape_class)``
holding the chosen budget, chosen tier, and the timing table behind the
choice.

Two invalidation mechanisms keep stale choices from leaking:

* a **machine fingerprint** (platform, python, numpy, CPU count) — a
  cache written on one machine or environment is silently discarded on
  another;
* a **schema version** (:data:`TUNE_CACHE_SCHEMA`) — bumped whenever
  the entry layout changes, discarding all older files.

Both discard paths count as an *invalidation* in :meth:`TuneCache.counters`;
lookups count hits and misses, so tests (and the perf harness) can prove
exactly when measurement was skipped.  Writes are atomic
(temp-file + ``os.replace``), and all state is guarded by a lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
import threading

import numpy as np

__all__ = [
    "TUNE_CACHE_SCHEMA",
    "TuneCache",
    "default_cache_path",
    "machine_fingerprint",
]

#: Entry-layout version.  Bump whenever the meaning of stored entries
#: changes; every existing cache file is then invalidated on load.
#: Version 2: budgets size strict-K-order tiles, and the fingerprint no
#: longer carries a native-tier term.
TUNE_CACHE_SCHEMA = 2


def machine_fingerprint() -> str:
    """Short digest of everything a tuned choice depends on.

    Covers the hardware/interpreter surface: machine, OS, python and
    numpy versions, CPU count.
    """
    parts = (
        platform.machine(),
        platform.system(),
        platform.python_version(),
        np.__version__,
        str(os.cpu_count() or 1),
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def default_cache_path() -> str:
    """Resolve the cache file path from the environment.

    ``$REPRO_TUNE_CACHE`` (explicit file) wins; else the file lives
    under ``$REPRO_CACHE_DIR`` (the repository's cache-root convention),
    else under ``~/.cache/repro-daism/``.
    """
    explicit = os.environ.get("REPRO_TUNE_CACHE")
    if explicit:
        return explicit
    base = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-daism"
    )
    return os.path.join(base, "tune_cache.json")


class TuneCache:
    """Persistent ``(kernel, shape_class) -> tuned choice`` store.

    Entries are plain dicts with any of ``budget`` (int, row-block
    elements), ``tier`` (kernel name the router chose), and
    ``timings_ms`` (the measurement behind the choice).  ``get`` returns
    a copy or ``None``; ``put`` merges keys into the existing entry and
    writes the file through atomically.  A file whose schema or machine
    fingerprint mismatches is discarded wholesale on load (counted as an
    invalidation), so corrupt or foreign caches degrade to a cold start,
    never to wrong choices.
    """

    def __init__(self, path: str | None = None, fingerprint: str | None = None):
        #: Backing file path (parent directories created on first write).
        self.path = str(path or default_cache_path())
        #: Fingerprint entries are bound to (defaults to this machine's).
        self.fingerprint = fingerprint or machine_fingerprint()
        self._lock = threading.Lock()
        self._counters = {"hits": 0, "misses": 0, "invalidations": 0}
        self._entries = self._load()

    def _load(self) -> dict:
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        if (
            raw.get("schema") != TUNE_CACHE_SCHEMA
            or raw.get("fingerprint") != self.fingerprint
        ):
            self._counters["invalidations"] += 1
            return {}
        entries = raw.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}

    @staticmethod
    def _key(kernel: str, shape_cls: str) -> str:
        return f"{kernel}::{shape_cls}"

    def get(self, kernel: str, shape_cls: str) -> dict | None:
        """Cached entry for ``(kernel, shape_cls)``, or ``None`` (a miss)."""
        with self._lock:
            entry = self._entries.get(self._key(kernel, shape_cls))
            if entry is None:
                self._counters["misses"] += 1
                return None
            self._counters["hits"] += 1
            return dict(entry)

    def put(
        self,
        kernel: str,
        shape_cls: str,
        *,
        budget: int | None = None,
        tier: str | None = None,
        timings_ms: dict | None = None,
    ) -> None:
        """Merge a tuned choice into the entry and persist the file."""
        fresh: dict = {}
        if budget is not None:
            fresh["budget"] = int(budget)
        if tier is not None:
            fresh["tier"] = str(tier)
        if timings_ms:
            fresh["timings_ms"] = {str(k): float(v) for k, v in timings_ms.items()}
        if not fresh:
            return
        key = self._key(kernel, shape_cls)
        with self._lock:
            merged = dict(self._entries.get(key) or {})
            merged.update(fresh)
            self._entries[key] = merged
            self._write()

    def _write(self) -> None:
        payload = {
            "schema": TUNE_CACHE_SCHEMA,
            "fingerprint": self.fingerprint,
            "entries": self._entries,
        }
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def counters(self) -> dict:
        """Snapshot of the hit/miss/invalidation counters."""
        with self._lock:
            return dict(self._counters)

    def entries(self) -> dict:
        """Copy of all live entries (for reports and tests)."""
        with self._lock:
            return {k: dict(v) for k, v in self._entries.items()}
