"""One bounded, timestamped event journal per process.

The fleet, the scheduling policies and the kernel integrity layer record
into one ring of the newest :data:`CAPACITY` records, each ``{seq, t,
source, event, owner, **fields}`` with ``t`` from ``time.monotonic()``.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import threading
import time

__all__ = ["CAPACITY", "Channel", "dropped", "events"]

#: Records the ring keeps; older ones are dropped and counted.
CAPACITY = 4096

_LOCK = threading.Lock()
_RING: collections.deque[tuple[int, dict]] = collections.deque(maxlen=CAPACITY)
_SEQ = itertools.count(1)
_KEYS = itertools.count(1)
_last_t = -math.inf
_dropped = 0

# Fleet workers fork from a parent whose threads record here: fork only
# between two records, so no child inherits the lock held.
os.register_at_fork(
    before=_LOCK.acquire, after_in_parent=_LOCK.release, after_in_child=_LOCK.release
)


class Channel:
    """One emitter's records: their source, their owner, and a count.

    ``owner`` names the fleet the records belong to; a fleet attaching a
    policy reassigns it.  ``recorded`` counts every record made, so it
    stays exact after the ring drops old ones.
    """

    def __init__(self, source: str):
        self.source = source
        self.owner: str | None = None
        self.recorded = 0
        #: Unique in the process; names this channel's records in the ring.
        self.key = next(_KEYS)

    def record(self, event: str, **fields) -> None:
        """Append one record; its ``t`` is later than every earlier record's."""
        global _last_t, _dropped
        with _LOCK:
            _last_t = max(time.monotonic(), math.nextafter(_last_t, math.inf))
            entry = {"seq": next(_SEQ), "t": _last_t, "source": self.source}
            entry.update(event=event, owner=self.owner, **fields)
            if len(_RING) == CAPACITY:
                _dropped += 1
            _RING.append((self.key, entry))
            self.recorded += 1

    def events(self) -> list[dict]:
        """This channel's records still in the ring, oldest first."""
        with _LOCK:
            return [dict(r) for key, r in _RING if key == self.key]


def events(owner: str | None = None) -> list[dict]:
    """Records in the ring, oldest first; only ``owner``'s if given."""
    with _LOCK:
        return [dict(r) for _, r in _RING if owner is None or r["owner"] == owner]


def dropped() -> int:
    """Records pushed out of the ring since the process started."""
    with _LOCK:
        return _dropped
