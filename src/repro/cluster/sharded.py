"""Shard-parallel compression for partitioned domains.

The paper's large-scale runs "assign each GPU an equal sized data
partition and do decomposition and recomposition independently" — no
halo exchange, each partition with its own hierarchy.  This module is
the one partitioned codec: :func:`plan_shards` splits a frame along
axis 0 into equal *shards*, each shard runs its own
:class:`~repro.compress.mgard.MgardCompressor` (on the memoized
:func:`~repro.core.grid.hierarchy_for`, so equal-shape shards pay
setup once), and the shard fan-out is one
``executor.map(_encode_shard, [frame[a:b] …], …)`` over the backends
of :mod:`repro.parallel`, every job carrying its own rows: serial is
the byte-for-byte reference, threads overlap the GIL-releasing
kernels, and the process backend pickles each worker just its shard —
which of the three runs is the executor's concern, not this module's.

All three backends emit **byte-identical** shard containers: a shard's
bytes depend only on (shard data, tolerance, mode, backend), never on
the scheduler — shards share no code-book chain and no temporal state.

Error-bound accounting: shards are *disjoint* along axis 0 and are
decomposed/recomposed independently, so the reconstruction error at any
grid point is exactly the error of the one shard containing it.  The
global L∞ bound therefore holds with every shard compressed at the
*full* tolerance — :func:`shard_tolerance` records that accounting (it
would **not** be an identity for L2-type budgets, where per-shard
errors accumulate across shards; the quantizer here budgets L∞).

Shard payloads are self-contained single-shard containers (the
refactored ``.rprc`` or compressed ``.mgz`` layout), so a consumer can
decode any subset — the basis of
:meth:`repro.io.stream.StepStreamReader.read_region`.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .. import faults
from ..parallel import get_executor

__all__ = [
    "BlockPlan",
    "ShardCodec",
    "decode_shard",
    "encode_shards",
    "plan_shards",
    "shard_tolerance",
]


@dataclass(frozen=True)
class BlockPlan:
    """How a grid is split along axis 0 (shard ``i`` is rows ``starts[i]:stops[i]``)."""

    shape: tuple[int, ...]
    starts: tuple[int, ...]
    stops: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.starts)


def plan_shards(shape: tuple[int, ...], n_shards: int) -> BlockPlan:
    """Split ``shape`` along axis 0 into ``n_shards`` balanced shards.

    Shard sizes differ by at most one row.  Shards with a single row
    are allowed when ``n_shards`` demands them (they round-trip
    losslessly, they just cannot coarsen along axis 0); asking for more
    shards than rows is an error.
    """
    n0 = int(shape[0])
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_shards > n0:
        raise ValueError(f"cannot split {n0} rows into {n_shards} shards")
    base, extra = divmod(n0, n_shards)
    starts, stops = [], []
    pos = 0
    for i in range(n_shards):
        rows = base + (1 if i < extra else 0)
        starts.append(pos)
        stops.append(pos + rows)
        pos += rows
    return BlockPlan(shape=tuple(shape), starts=tuple(starts), stops=tuple(stops))


def shard_tolerance(tol: float, n_shards: int) -> float:
    """Per-shard L∞ tolerance preserving a global bound of ``tol``.

    Shards partition the domain, so the global L∞ error is the *max*
    (not any accumulation) of the per-shard errors — each shard may use
    the full budget.  Kept as an explicit function so the accounting is
    visible at the call sites (and because other error norms would need
    a real split here).
    """
    from ..compress.quantizer import checked_tol

    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return checked_tol(tol)


@dataclass(frozen=True)
class ShardCodec:
    """Picklable per-shard codec settings.

    ``tol is None`` selects the *refactored* payload (raw coefficient
    classes, the ``.rprc`` layout); otherwise shards are error-bounded
    compressed (the ``.mgz`` layout) at the — already shard-accounted —
    tolerance.  Worker-side compressors always run their *internal*
    entropy fan-out serially: the shard is the unit of parallelism.
    """

    tol: float | None = None
    mode: str = "level"
    backend: str = "zlib"

    @property
    def payload_mode(self) -> str:
        return "refactored" if self.tol is None else "compressed"


def _draw_faults(n: int) -> list[tuple[float, bool]]:
    """Per-shard ``(delay seconds, fail)`` for one fan-out of ``n`` shards.

    ``sharded.encode.shard`` is a fault-injection site: armed ``error``
    faults fail individual shard encodes (a sick worker), ``delay``
    faults model stragglers in the fan-out.  Drawn *here*, in the
    coordinator, one draw per shard in submission order, and shipped
    with the job (the ``kill_indices`` pattern): a pool worker's fault
    table is whatever it was when the pool forked, and its counters are
    its own.
    """
    inj = faults.active()
    if inj is None:
        return [(0.0, False)] * n
    drawn = []
    for _ in range(n):
        delay = inj.fire("sharded.encode.shard", ("delay",))
        fail = inj.fire("sharded.encode.shard", ("error",)) is not None
        drawn.append((0.0 if delay is None else delay.argument(), fail))
    return drawn


def _encode_shard(block: np.ndarray, codec: ShardCodec, fault: tuple[float, bool]) -> bytes:
    """Encode one shard's rows into self-contained container bytes (the
    work unit of :func:`encode_shards`)."""
    from ..compress.fileio import save_compressed
    from ..compress.mgard import MgardCompressor
    from ..core.grid import hierarchy_for
    from ..core.refactor import Refactorer
    from ..io.container import write_refactored_stream

    delay, fail = fault
    if delay:
        time.sleep(delay)
    if fail:
        raise faults.InjectedFault("injected fault at sharded.encode.shard")
    shard = np.ascontiguousarray(block, dtype=np.float64)
    buf = io.BytesIO()
    if codec.tol is None:
        write_refactored_stream(buf, Refactorer(shard.shape).refactor(shard))
    else:
        comp = MgardCompressor(
            hierarchy_for(shard.shape), codec.tol, mode=codec.mode,
            backend=codec.backend, executor="serial",
        )
        save_compressed(buf, comp.compress(shard))
    return buf.getvalue()


def encode_shards(
    field: np.ndarray, plan: BlockPlan, codec: ShardCodec, executor=None
) -> list[bytes]:
    """Encode every shard of ``field``; returns one container per shard.

    ``executor`` (spec string, instance, or ``None`` for the ambient
    default) schedules the fan-out; every backend returns
    byte-identical payloads.
    """
    if tuple(field.shape) != plan.shape:
        raise ValueError(f"expected shape {plan.shape}, got {field.shape}")
    n = plan.n_blocks
    blocks = [field[a:b] for a, b in zip(plan.starts, plan.stops)]
    return get_executor(executor).map(_encode_shard, blocks, [codec] * n, _draw_faults(n))


def decode_shard(payload: bytes, payload_mode: str) -> np.ndarray:
    """Decode one shard container back to its (full-rank) field block.

    The one step decoder's job (``repro.io.container._decode``, shared
    with the stream reader): every way a corrupt shard fails to decode
    is a :class:`~repro.errors.ContainerError`, and the payload's own
    magic says which layout it holds — ``payload_mode`` is only validated.
    """
    from ..io.container import _decode

    if payload_mode not in ("refactored", "compressed"):
        raise ValueError(f"unknown shard payload mode {payload_mode!r}")
    return _decode(payload, executor="serial")
