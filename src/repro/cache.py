"""The package's one LRU: bounded by bytes and by entry count, thread-safe.

Random access into a compressed stream re-rolls the whole key-frame
chain on every request (`StepStreamReader.read_step` replays from the
nearest key frame); a server doing that once per *request* would spend
its tail latency re-decoding identical data.  The service keeps decoded
``(generation, step, level, shard)`` arrays — one shard of a sharded
step each, a whole step otherwise — in one bytes-bounded
:class:`LRUCache`; :class:`~repro.io.stream.StepStreamReader` uses a
small instance for its own decoded-step cache (unsharded streams only: a
sharded stream's shards are cached once per process, by the service);
the hierarchy memo of :mod:`repro.core.grid` is an entry-bounded one.

A leaf module (stdlib only, like ``frame.py`` and ``errors.py``) — the
asyncio event loop, its decode thread pool, and library callers may all
touch one instance.  Concurrent misses may both build a value; the last
writer wins, which is harmless for immutable entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["LRUCache"]

_MISSING = object()


def _sizeof(value) -> int:
    """Best-effort byte size of a cached value (ndarray, bytes, ...)."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    try:
        return len(value)
    except TypeError:
        return 0


class LRUCache:
    """Least-recently-used mapping bounded by total bytes and entry count.

    ``max_bytes=0`` (or ``max_entries=0``) disables the cache entirely:
    every ``get`` misses and ``put`` is a no-op — the switch the naive
    benchmark configuration and ``--cache-bytes 0`` flip.

    ``stats()`` reports hits / misses / evictions / current bytes;
    ``hit_rate`` is the fraction of ``get`` calls served from cache
    (0.0 when never queried).
    """

    def __init__(self, max_bytes: int = 256 << 20, max_entries: int | None = None):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_bytes = int(max_bytes)
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0 and self.max_entries != 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, key, default=None):
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value, nbytes: int | None = None) -> bool:
        """Insert ``value``; returns False when it cannot be cached
        (cache disabled, or the single value exceeds ``max_bytes``)."""
        if not self.enabled:
            return False
        size = _sizeof(value) if nbytes is None else int(nbytes)
        if size > self.max_bytes:
            return False
        with self._lock:
            old = self._sizes.pop(key, None)
            if old is not None:
                self._bytes -= old
                del self._data[key]
            self._data[key] = value
            self._sizes[key] = size
            self._bytes += size
            while self._bytes > self.max_bytes or (
                self.max_entries is not None and len(self._data) > self.max_entries
            ):
                victim, _ = self._data.popitem(last=False)
                self._bytes -= self._sizes.pop(victim)
                self._evictions += 1
            return True

    def clear(self) -> None:
        """Drop every entry and reset the hit / miss / eviction counters."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._bytes = self._hits = self._misses = self._evictions = 0

    @property
    def hit_rate(self) -> float:
        return self.stats()["hit_rate"]

    def stats(self) -> dict:
        with self._lock:
            asked = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._data),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hit_rate": self._hits / asked if asked else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(entries={len(self._data)}, bytes={self._bytes}/"
            f"{self.max_bytes}, hit_rate={self.hit_rate:.2f})"
        )
