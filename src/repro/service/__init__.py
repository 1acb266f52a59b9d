"""Compression-as-a-service: the asyncio network front-end.

The paper's headline workflow — stream compressed simulation steps to
concurrent consumers with accuracy-driven retrieval — served over TCP:

* :mod:`repro.service.protocol` — length-prefixed JSON+binary framing
  with zero-copy body writes and bounded, truncation-safe reads;
* :class:`repro.cache.LRUCache` — the bytes-bounded LRU over decoded
  steps / prefix reconstructions (re-exported here);
* :mod:`repro.service.batcher` — adaptive micro-batching: concurrent
  requests for the same ``(step, level)`` coalesce into one decode;
* :mod:`repro.service.server` — :class:`CompressionService`: ingest
  (``put_step`` → the stream writer's ``append``, its encode fanned
  out on the executor layer) and retrieval (``get_step`` /
  ``get_region``, plus progressive-precision ``get_region(level=k)``),
  with per-connection backpressure and BUSY load-shedding;
* :mod:`repro.service.client` — blocking :class:`ServiceClient` (with
  reconnect) and pipelining :class:`AsyncServiceClient`.

``server``/``client`` import the streaming stack and ``server`` is also
run as ``python -m repro.service.server``; they are loaded lazily here
so that importing the package does not import the module about to run
as ``__main__``.
"""

from __future__ import annotations

from ..cache import LRUCache
from .batcher import MicroBatcher
from .protocol import BusyError, ProtocolError, RemoteError, ServiceError

__all__ = [
    "AsyncServiceClient",
    "BusyError",
    "CompressionService",
    "LRUCache",
    "MicroBatcher",
    "ProtocolError",
    "RemoteError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "serve",
]

_LAZY = {
    "CompressionService": "server",
    "ServiceConfig": "server",
    "serve": "server",
    "ServiceClient": "client",
    "AsyncServiceClient": "client",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():  # pragma: no cover - introspection cosmetics
    return sorted(set(globals()) | set(_LAZY))
