"""Adaptive micro-batching: coalesce concurrent decodes of the same key.

Under concurrency, many in-flight requests tend to touch the same
``(step, level)`` — followers trailing a live writer all ask for the
newest step, dashboards poll the same region.  Decoding once per
*request* multiplies the most expensive operation the server has by the
fan-in.  :class:`MicroBatcher` collapses them:

* **single-flight** — the first request for a key becomes the *leader*
  and runs the decode; every request arriving while it is in flight
  *joins* and awaits the same decode.  One decode, N responses.
* **adaptive hold window** — a leader may briefly park (``window``)
  before decoding so that near-simultaneous requests coalesce even when
  they arrive just *after* the decode would have started.  The window
  adapts to the observed traffic: every batch that attracted joiners
  doubles it (up to ``max_window_s``), every solo batch halves it (down
  to zero), so an idle server pays no added latency and a hot key
  converges to maximal coalescing.

Failures propagate to every member of the batch; the key is retired
before the result is published, so a request arriving *after* a failure
starts a fresh decode rather than inheriting a stale error.  The supplier
runs as the batch's own task, which no member owns: a cancelled member —
the leader included — stops only its own wait, and the rest of the batch
still gets the result.
"""

from __future__ import annotations

import asyncio

__all__ = ["MicroBatcher"]

# the smallest non-zero hold window: the first batch with joiners jumps
# here from zero, and a window halved below it drops back to zero
_MIN_WINDOW_S = 0.0001


class MicroBatcher:
    """Coalesce concurrent async suppliers by key (see module docstring).

    Parameters
    ----------
    max_window_s:
        Upper bound of the adaptive hold window.  ``0`` disables the
        window entirely (pure single-flight).
    """

    def __init__(self, *, max_window_s: float = 0.002):
        if max_window_s < 0:
            raise ValueError("max_window_s must be >= 0")
        self.max_window_s = float(max_window_s)
        self.window_s = 0.0
        self._inflight: dict = {}
        self._leaders = 0
        self._joined = 0
        self._batches_with_joiners = 0
        self._errors = 0

    async def run(self, key, supplier):
        """Return ``await supplier()`` for ``key``, coalescing duplicates.

        ``supplier`` is an argument-less coroutine function; it runs at
        most once per batch, on the batch's own task.
        """
        task = self._inflight.get(key)
        if task is None:
            self._leaders += 1
            task = self._inflight[key] = asyncio.ensure_future(self._supply(key, supplier))
            task.joiners = 0  # set before the task first runs
            task.add_done_callback(_retrieve)
        else:
            self._joined += 1
            task.joiners += 1
        return await asyncio.shield(task)

    async def _supply(self, key, supplier):
        try:
            if self.window_s > 0:
                await asyncio.sleep(self.window_s)
            return await supplier()
        except BaseException:
            self._errors += 1
            raise
        finally:
            self._adapt(self._inflight.pop(key).joiners)

    def _adapt(self, joiners: int) -> None:
        if joiners:
            self._batches_with_joiners += 1
        if self.max_window_s == 0:
            return
        if joiners:
            self.window_s = min(self.max_window_s, max(self.window_s * 2, _MIN_WINDOW_S))
        else:
            self.window_s = self.window_s / 2
            if self.window_s < _MIN_WINDOW_S:
                self.window_s = 0.0

    @property
    def coalesce_rate(self) -> float:
        """Fraction of requests served by someone else's decode."""
        total = self._leaders + self._joined
        return self._joined / total if total else 0.0

    def stats(self) -> dict:
        return {
            "leaders": self._leaders,
            "joined": self._joined,
            "batches_with_joiners": self._batches_with_joiners,
            "errors": self._errors,
            "coalesce_rate": self.coalesce_rate,
            "window_s": self.window_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(leaders={self._leaders}, joined={self._joined}, "
            f"window={self.window_s * 1e3:.2f}ms)"
        )


def _retrieve(task: asyncio.Task) -> None:
    """Mark a batch's exception retrieved: every member may have stopped
    waiting before it finished."""
    if not task.cancelled():
        task.exception()
