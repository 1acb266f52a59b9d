"""Cached refactor/compression plans: build once, launch many times.

The paper's GPU designs split every operation into a *compiled kernel*
(shape-dependent setup: packed layouts, operator data, launch geometry)
and a *launch* (the per-array work).  This module applies the same idiom
to the compression pipeline: a :class:`RefactorPlan` pins the shared
:class:`~repro.core.grid.TensorHierarchy` (interpolation weights, banded
mass matrices, Thomas factors) for one grid geometry, and a
:class:`CompressionPlan` additionally pins the quantizer budgets and the
entropy-stage configuration for one (geometry, tolerance, mode, backend)
tuple.  Both are memoized, so streaming and multi-field workloads that
compress thousands of same-shape arrays pay the setup cost exactly once.

>>> from repro.compress.plan import compression_plan
>>> plan = compression_plan((65, 65), tol=1e-3)
>>> plan is compression_plan((65, 65), tol=1e-3)   # cached
True
>>> comp = plan.compressor()                       # ready-to-launch
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.classes import class_sizes, num_classes
from ..cache import LRUCache
from ..core.grid import TensorHierarchy, coords_key, hierarchy_for

__all__ = [
    "RefactorPlan",
    "CompressionPlan",
    "refactor_plan",
    "compression_plan",
    "clear_plan_cache",
    "plan_cache_stats",
]


@dataclass(frozen=True)
class RefactorPlan:
    """Per-geometry setup shared by every refactor of one grid shape.

    Wraps the cached hierarchy together with the derived class layout
    (class count and sizes) that the quantize/entropy stages and the
    container formats need on every call.
    """

    hier: TensorHierarchy
    n_classes: int
    class_sizes: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.hier.shape

    @classmethod
    def for_hierarchy(cls, hier: TensorHierarchy) -> "RefactorPlan":
        return cls(
            hier=hier,
            n_classes=num_classes(hier),
            class_sizes=tuple(class_sizes(hier)),
        )


@dataclass(frozen=True)
class CompressionPlan:
    """Everything shape/tolerance-dependent in one compress call.

    Holds the refactor plan plus the quantizer (with its per-class step
    budget resolved once) and the entropy backend, so
    :meth:`compressor` instances share all setup.  Which executor
    schedules the encode stage is no part of it — scheduling never
    changes emitted bytes — so that is a compressor argument.
    ``scratch`` is a plan-lifetime dictionary the pipeline stages may
    use for reusable buffers (e.g. Huffman code books for
    slowly-varying streams); consumers carve private namespaces out of
    it with :meth:`scratch_area` so same-geometry streams never
    collide.
    """

    refactor: RefactorPlan
    tol: float
    mode: str
    backend: str
    steps: tuple[float, ...]
    scratch: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def hier(self) -> TensorHierarchy:
        return self.refactor.hier

    @property
    def shape(self) -> tuple[int, ...]:
        return self.refactor.shape

    def quantizer(self):
        """A quantizer whose step budget is resolved from this plan."""
        from .quantizer import Quantizer

        q = Quantizer(self.tol, mode=self.mode)
        q.seed_steps(self.refactor.n_classes, self.steps)
        return q

    def scratch_area(self, tag: str) -> dict:
        """A private sub-dictionary of ``scratch`` for one consumer.

        ``scratch`` outlives any one compressor: a stream writer that
        tags its area with its output path can resume its code-book
        chain after being reopened (under whatever executor), while two
        concurrent same-geometry streams (different tags) stay
        isolated.
        """
        return self.scratch.setdefault(tag, {})

    def compressor(self, **kwargs):
        """A ready-to-launch :class:`~repro.compress.mgard.MgardCompressor`."""
        from .mgard import MgardCompressor

        return MgardCompressor(
            self.hier,
            self.tol,
            mode=self.mode,
            backend=self.backend,
            plan=self,
            **kwargs,
        )


_PLAN_CACHE = LRUCache(max_entries=128)


def refactor_plan(
    shape: tuple[int, ...],
    coords: tuple[np.ndarray | None, ...] | None = None,
) -> RefactorPlan:
    """Cached :class:`RefactorPlan` for one grid geometry."""
    key = ("refactor", tuple(int(s) for s in shape), coords_key(coords))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = RefactorPlan.for_hierarchy(hierarchy_for(shape, coords))
        _PLAN_CACHE.put(key, plan)
    return plan


def compression_plan(
    shape: tuple[int, ...],
    tol: float,
    mode: str = "level",
    backend: str = "zlib",
    coords: tuple[np.ndarray | None, ...] | None = None,
) -> CompressionPlan:
    """Cached :class:`CompressionPlan` for one (geometry, tol, mode, backend)."""
    key = (
        "compress",
        tuple(int(s) for s in shape),
        coords_key(coords),
        float(tol),
        str(mode),
        str(backend),
    )
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        from .quantizer import Quantizer

        rplan = refactor_plan(shape, coords)
        steps = tuple(Quantizer(tol, mode=mode).steps_for(rplan.n_classes))
        plan = CompressionPlan(
            refactor=rplan, tol=float(tol), mode=str(mode), backend=str(backend),
            steps=steps,
        )
        _PLAN_CACHE.put(key, plan)
    return plan


def clear_plan_cache() -> None:
    """Drop all cached plans and scratch (and reset the counters)."""
    _PLAN_CACHE.clear()


def plan_cache_stats() -> dict:
    """Snapshot of the plan cache: entries, hits, misses."""
    return _PLAN_CACHE.stats()
