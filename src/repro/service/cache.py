"""Two-tier prediction cache.

Tier 1 is an in-process LRU with optional TTL holding finished
:class:`~repro.core.predictor.PredictionReport` objects keyed by the full
request tuple (benchmark, class, nprocs, chain length, seed); analytic
answers are stored seed-free, under (benchmark, class, nprocs, chain
length, "analytic"), because the closed forms' expected values do not
depend on the noise stream. Tier 2 is the
existing Prophesy-style
:class:`~repro.instrument.database.PerformanceDatabase`: it persists the
underlying *measurements*, so even when a report ages out of the LRU (or a
fresh process starts against a warm database file) the service rebuilds the
report from stored samples without re-running a single simulation.

The persistent tier is keyed by the measurement tuple
(benchmark, class, nprocs, kernel chain), like
:class:`~repro.instrument.sweeps.Campaign` memoization, so it holds the
samples of one measurement noise seed: the service's own. Requests at any
other seed measure through an in-memory database of that seed, which the
service keeps in a bounded :class:`LRUCache`; only the L1 tier keys
reports by seed, and only for simulated and memoized answers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

from repro import faults
from repro.instrument.database import PerformanceDatabase

__all__ = ["LRUCache", "TieredPredictionCache", "ACTUAL_KEY"]

#: Pseudo-kernel chain under which the full application's actual runtime is
#: archived in the persistent tier (the real chains never collide with it).
ACTUAL_KEY: tuple[str, ...] = ("__APPLICATION_TOTAL__",)

_MISSING = object()


class LRUCache:
    """Thread-safe least-recently-used cache with optional TTL.

    ``clock`` is injectable (tests freeze it); entries older than
    ``ttl`` seconds are treated as absent and dropped on access.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[Hashable, tuple[Any, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, refreshing recency; ``default`` on miss."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self.misses += 1
                return default
            value, stored_at = entry
            if self.ttl is not None and self._clock() - stored_at > self.ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU tail beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, self._clock())
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop(self, key: Hashable) -> bool:
        """Remove one entry (if present); True when something was dropped."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def values(self) -> list[Any]:
        """The cached values, least recently used first (no TTL check)."""
        with self._lock:
            return [value for value, _ in self._entries.values()]

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters snapshot (hits/misses/evictions/expirations/size)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }


class TieredPredictionCache:
    """L1 report LRU over the L2 persistent measurement store.

    The service consults :meth:`get_report` first; on a miss the batching
    layer runs a measurement plan *through* :attr:`database`, which silently
    turns fully archived cells into zero-simulation replays.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl: Optional[float] = None,
        database: Optional[PerformanceDatabase] = None,
        db_path: str = ":memory:",
        clock: Callable[[], float] = time.monotonic,
    ):
        self.reports = LRUCache(capacity=capacity, ttl=ttl, clock=clock)
        # NB: an empty PerformanceDatabase is falsy (it has __len__), so the
        # ownership test must be `is None`, never truthiness.
        self._owns_database = database is None
        self.database = (
            PerformanceDatabase(db_path) if database is None else database
        )
        self.db_path = getattr(self.database, "path", db_path)

    # -- tier 1 ---------------------------------------------------------------

    def get_report(self, key: Hashable) -> Any:
        """The finished report for a request key, or None.

        The ``cache.l1.drop`` fault models L1 read corruption: in-process
        report objects carry no checksum, so the safe failure mode is to
        treat the entry as lost and recompute (a miss, never garbage).
        """
        if faults.check("cache.l1.drop") is not None:
            self.reports.drop(key)
            return None
        return self.reports.get(key)

    def put_report(self, key: Hashable, report: Any) -> None:
        self.reports.put(key, report)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the persistent tier if this cache owns it."""
        if self._owns_database:
            self.database.close()

    def stats(self) -> dict:
        """Both tiers' counters."""
        return {
            "l1": self.reports.stats(),
            "l2": {"path": self.db_path, "measurements": len(self.database)},
        }
