"""Kernel-state integrity: checksums, canary probes, heal, recurrence.

The serving stack keeps long-lived arithmetic state in process memory —
the cached product tables (:mod:`repro.core.kernels`) and pre-packed
weight planes — and the byte-exactness contract silently dies the
moment any of it is corrupted (an SRAM-style bit flip turns into wrong
logits, not a crash).  This module makes corruption a *detected,
recoverable* event:

* **per-table checksums** — every table registered at build time (the
  ``prepare()``/first-touch path in :func:`repro.core.kernels._cached`)
  records a SHA-256 over its bytes plus the deterministic rebuild
  closure that produced it;
* **canary probes** — a pinned GEMM per ``(fmt, config, kernel)``
  whose byte-exact output digest is recorded when the state is known
  healthy (plan compile / worker boot) and re-checked periodically;
* **heal** — a checksum or canary mismatch rebuilds the table from
  source (tables are pure functions of ``(bits, config)``) and
  re-verifies;
* **recurrence** — corruption that *recurs* on one table site
  (:data:`RECURRENCE_THRESHOLD` detections) or a canary still wrong
  after the heal sets ``recurred`` in the :func:`check_and_heal`
  report.  The process's memory is then suspect beyond what a rebuild
  fixes, and a fleet respawns the worker that reported it
  (:meth:`repro.runtime.fleet.FleetServer.check_health`).

Every detection and heal is a record in the process event journal
(:mod:`repro.journal`), read back by :func:`integrity_events`.
Everything is in-process state: fleet workers each run their own
registry (a worker's ``("health",)`` message triggers
:func:`check_and_heal` there), so a respawned worker starts with fresh
corruption counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time

import numpy as np

from .. import journal

__all__ = [
    "checksum_value",
    "register_table",
    "register_canary",
    "registered_tables",
    "registered_canaries",
    "verify_tables",
    "verify_canaries",
    "check_and_heal",
    "integrity_events",
    "corruption_counts",
    "reset_integrity",
]


def checksum_value(value) -> str:
    """SHA-256 over an array (or nested arrays) — dtype, shape and bytes.

    Handles the cache's value shapes: a bare ``ndarray``, the factored
    ``(U, V, info)`` tuple (arrays hashed in order, the info dict by its
    sorted item repr), and falls back to ``repr`` for anything else.
    """
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(repr(sorted(value.items(), key=lambda kv: repr(kv[0]))).encode())
    else:
        h.update(repr(value).encode())


@dataclasses.dataclass
class _TableRecord:
    digest: str
    rebuild: object  # zero-arg closure returning a fresh table
    source: tuple | None = None  # key of the table this one is derived from


@dataclasses.dataclass
class _CanaryRecord:
    fmt: object
    config: object
    kernel: object
    expected: str


_LOCK = threading.RLock()
_TABLES: dict[tuple, _TableRecord] = {}
_CANARIES: dict[tuple, _CanaryRecord] = {}
_CORRUPTIONS: dict[tuple, int] = {}
_JOURNAL = journal.Channel("integrity")

#: Corruption detections on one table site at which the corruption
#: counts as recurring (``recurred`` in the :func:`check_and_heal` report).
RECURRENCE_THRESHOLD = 2


# --------------------------------------------------------------------------
# Registration (called from the prepare()/build path)
# --------------------------------------------------------------------------


def register_table(key: tuple, value, rebuild, source: tuple | None = None) -> None:
    """Record a freshly built table's checksum + rebuild closure.

    Called by the kernel table cache on every build (miss).  Re-building
    after a heal re-registers the same digest — tables are pure
    functions of their key.  ``source`` names the table this one was
    computed from (e.g. a weight-stationary table from the value table):
    a derived table built while its source was corrupted checksums
    clean, so healing the source also rebuilds it.
    """
    digest = checksum_value(value)
    with _LOCK:
        _forget_released()
        _TABLES[key] = _TableRecord(digest=digest, rebuild=rebuild, source=source)


def _forget_released() -> None:
    """Drop the records of tables released from the cache (call under ``_LOCK``).

    A weight-stationary or direct table leaves the cache with the last
    weight using it; training releases one per layer and step, and
    never verifies, so this runs on every registration as well.
    """
    from . import kernels

    for key in kernels.drain_released():
        _TABLES.pop(key, None)


def _probe_digest(fmt, config, kernel) -> str:
    """Run the pinned canary GEMM and digest its output bytes.

    The probe is tiny (8x32 @ 32x16, fixed seed) and exercises the full
    gather path — table lookups included — so a flipped table bit that
    lands in the probed index set changes the digest.  Deterministic by
    the bit-exactness contract (and deterministic within a process even
    for the non-bit-exact factored tiers).
    """
    from ..formats.packed import pack

    rng = np.random.default_rng(0xC0FFEE)
    a = rng.standard_normal((8, 32)).astype(np.float32)
    b = rng.standard_normal((32, 16)).astype(np.float32)
    out = kernel.run(pack(a, fmt), pack(b, fmt), config)
    return checksum_value(out)


def register_canary(fmt, config, kernel) -> str:
    """Record the healthy output digest of the pinned GEMM (idempotent).

    Called at plan compile time (``_resolve_strategy``) and on worker
    boot — both moments the tables were just built, i.e. known healthy.
    Returns the expected digest.
    """
    key = (fmt.name, config.name if config is not None else None, kernel.name)
    with _LOCK:
        record = _CANARIES.get(key)
        if record is not None:
            return record.expected
    expected = _probe_digest(fmt, config, kernel)
    with _LOCK:
        record = _CANARIES.setdefault(
            key, _CanaryRecord(fmt=fmt, config=config, kernel=kernel, expected=expected)
        )
        return record.expected


def registered_tables() -> list[tuple]:
    """Keys of every checksummed table."""
    with _LOCK:
        return list(_TABLES)


def registered_canaries() -> list[tuple]:
    """Keys of every registered canary probe."""
    with _LOCK:
        return list(_CANARIES)


# --------------------------------------------------------------------------
# Verification + healing
# --------------------------------------------------------------------------


def _note_corruption(key: tuple) -> bool:
    """Count one table detection; True once the site's corruption recurs."""
    _CORRUPTIONS[key] = _CORRUPTIONS.get(key, 0) + 1
    _record("table_corruption", str(key), "rebuilt")
    return _CORRUPTIONS[key] >= RECURRENCE_THRESHOLD


def verify_tables(heal: bool = True) -> dict:
    """Re-checksum every registered table against the live cache.

    A mismatch is *always* detected (the digest covers every byte).
    With ``heal`` the table is rebuilt from source and reinstalled in
    the cache, and so is every table derived from a healed one whose
    rebuild comes out different (it was computed from corrupted bytes).
    ``recurred`` is True when a site flagged here reached
    :data:`RECURRENCE_THRESHOLD` detections.
    """
    from . import kernels

    corrupted: list[tuple] = []
    recurred = False

    def flag(key: tuple) -> None:
        nonlocal recurred
        corrupted.append(key)
        with _LOCK:
            recurred |= _note_corruption(key)

    with _LOCK:
        _forget_released()
        records = list(_TABLES.items())
    for key, record in records:
        live = kernels.peek_table(key)
        if live is None:
            # The table left the cache (a released weight-stationary
            # table): nothing to verify, and its rebuild closure would
            # only keep the weight alive.
            with _LOCK:
                if _TABLES.get(key) is record:
                    del _TABLES[key]
            continue
        if checksum_value(live) == record.digest:
            continue
        flag(key)
        if heal:
            _reinstall(key, record, record.rebuild())
    if heal:
        for key, record in records:
            if key in corrupted or record.source not in corrupted:
                continue
            if kernels.peek_table(key) is None:
                continue
            fresh = record.rebuild()
            if checksum_value(fresh) != record.digest:
                flag(key)
                _reinstall(key, record, fresh)
    return {
        "tables_checked": len(records),
        "corrupted_tables": [str(k) for k in corrupted],
        "healed_tables": len(corrupted) if heal else 0,
        "recurred": recurred,
    }


def _reinstall(key: tuple, record: _TableRecord, fresh) -> None:
    from . import kernels

    kernels.install_table(key, fresh)
    with _LOCK:
        _TABLES[key] = dataclasses.replace(record, digest=checksum_value(fresh))


def verify_canaries(heal: bool = True) -> dict:
    """Re-run every canary probe against its recorded healthy digest.

    On mismatch the table layer is healed first (the usual cause) and
    the probe retried; a mismatch that *survives* healing counts as
    recurred corruption — the kernel's output is wrong for reasons a
    rebuild did not fix.
    """
    with _LOCK:
        records = list(_CANARIES.items())
    failures: list[str] = []
    persistent: list[str] = []
    recurred = False
    for key, record in records:
        got = _probe_digest(record.fmt, record.config, record.kernel)
        if got == record.expected:
            continue
        failures.append(str(key))
        if not heal:
            continue
        recurred |= verify_tables(heal=True)["recurred"]
        got = _probe_digest(record.fmt, record.config, record.kernel)
        if got == record.expected:
            _record("canary_mismatch", str(key), "rebuilt")
        else:
            persistent.append(str(key))
            recurred = True
            _record(
                "canary_mismatch", str(key), "detected", "probe still wrong after table heal"
            )
    return {
        "canaries_checked": len(records),
        "canary_failures": failures,
        "persistent_failures": persistent,
        "recurred": recurred,
    }


def check_and_heal() -> dict:
    """One full integrity round: tables, then canaries; heals in place.

    The worker ``("health",)`` message and the fleet's periodic health
    monitor run exactly this.  Returns a merged, wire-ready report whose
    ``recurred`` is True when a table site reached
    :data:`RECURRENCE_THRESHOLD` or a canary was still wrong after the
    heal.
    """
    t0 = time.perf_counter()
    tables = verify_tables(heal=True)
    canaries = verify_canaries(heal=True)
    report = {**tables, **canaries}
    report["recurred"] = tables["recurred"] or canaries["recurred"]
    report["elapsed_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
    return report


def _record(kind: str, site: str, action: str, detail: str = "") -> None:
    """Journal one detection.

    ``kind`` is ``table_corruption`` or ``canary_mismatch``, ``site`` the
    stringified table or canary key, and ``action`` ``rebuilt`` or
    ``detected`` (still wrong after the heal).
    """
    _JOURNAL.record("integrity", kind=kind, site=site, action=action, detail=detail)


def integrity_events() -> list[dict]:
    """This module's journal records since the last :func:`reset_integrity`."""
    return _JOURNAL.events()


def corruption_counts() -> dict[tuple, int]:
    """Per-site detection counts (drive :data:`RECURRENCE_THRESHOLD`)."""
    with _LOCK:
        return dict(_CORRUPTIONS)


def reset_integrity() -> None:
    """Clear events and corruption counts (tests).

    Table/canary registrations are kept — they mirror live cache state,
    which a reset does not change.
    """
    global _JOURNAL
    with _LOCK:
        _CORRUPTIONS.clear()
        _JOURNAL = journal.Channel("integrity")
