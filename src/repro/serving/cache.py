"""LRU cache of fitted optimizers, with pinning and eviction metrics.

The paper's "pre-load model" step exists because deserializing a model
inside Slurm's plugin window is too slow; this cache is the in-memory
half of that contract.  Keys are ``(system_id, application)`` — the same
identity ``chronus load-model`` records in the settings file — and values
are fitted optimizers ready to answer ``best_configuration``.

Two departures from a plain ``functools.lru_cache``:

* **pinning** — ``chronus serve --preload`` marks a model as hot; a
  pinned entry is never evicted no matter how cold it goes (an operator
  promised it must answer inside the window, capacity pressure cannot
  break that promise);
* **metrics** — ``<prefix>_{hits,misses,evictions}_total`` counters plus
  a ``<prefix>_size`` gauge, so a serving deployment can see thrash
  before it becomes latency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, TypeVar

from repro import telemetry

__all__ = ["ModelCache"]

V = TypeVar("V")


class ModelCache:
    """Bounded LRU mapping with pinned entries and telemetry.

    ``capacity=None`` means unbounded (the pre-serving in-process cache
    behaviour); the serving daemon always passes a bound.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        metric_prefix: str = "model_cache",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.metric_prefix = metric_prefix
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._pinned: set = set()

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Optional[V] = None):
        """Look up ``key``; a hit refreshes its recency."""
        if key in self._data:
            self._data.move_to_end(key)
            telemetry.counter(f"{self.metric_prefix}_hits_total").inc()
            return self._data[key]
        telemetry.counter(f"{self.metric_prefix}_misses_total").inc()
        return default

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting the coldest unpinned entries."""
        self._data[key] = value
        self._data.move_to_end(key)
        self._evict()
        telemetry.gauge(f"{self.metric_prefix}_size").set(len(self._data))

    def _evict(self) -> None:
        if self.capacity is None:
            return
        # oldest-first scan; pinned entries are skipped, so the cache may
        # exceed capacity when everything hot is pinned — pins win
        while len(self._data) > self.capacity:
            victim = next(
                (k for k in self._data if k not in self._pinned), None
            )
            if victim is None:
                return
            del self._data[victim]
            telemetry.counter(f"{self.metric_prefix}_evictions_total").inc()

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` (even when pinned) so the next lookup reloads.

        Promotion path: the entry under a key is *stale* — same identity,
        new artifact — so eviction rules don't apply; the pin survives
        and re-attaches to the reloaded value.  Returns whether the key
        was present.
        """
        if key not in self._data:
            return False
        del self._data[key]
        telemetry.counter(f"{self.metric_prefix}_invalidations_total").inc()
        telemetry.gauge(f"{self.metric_prefix}_size").set(len(self._data))
        return True

    # ------------------------------------------------------------------
    def pin(self, key: Hashable) -> None:
        """Exempt ``key`` from eviction (it may be loaded later)."""
        self._pinned.add(key)

    def unpin(self, key: Hashable) -> None:
        self._pinned.discard(key)
        self._evict()

    def pinned(self) -> set:
        return set(self._pinned)

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self):
        """Keys coldest-first (the eviction order)."""
        return list(self._data)

    def clear(self) -> None:
        self._data.clear()
        telemetry.gauge(f"{self.metric_prefix}_size").set(0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "∞" if self.capacity is None else self.capacity
        return (
            f"ModelCache({len(self._data)}/{cap}, "
            f"pinned={len(self._pinned)})"
        )
