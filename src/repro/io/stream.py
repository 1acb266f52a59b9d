"""Streaming producer→consumer coupling over refactored time steps.

The paper's Figure 1 shows a *running* simulation sharing data with
analysis routines; in practice that means appending one refactored time
step after another while consumers read — possibly behind the producer,
possibly at reduced accuracy.  This module provides that coupling on a
directory:

* :class:`StepStreamWriter` — appends steps; each step is one
  refactored-data container plus a manifest entry (atomic rename, so a
  concurrent reader never sees a half-written step).  ``append``
  encodes a step into memory, then :meth:`StepStreamWriter.commit_step`
  publishes its file and manifest entry; compressed and sharded
  writers also expose their encode halves (``predict_step`` →
  ``encode_predicted``, ``shard_step`` → ``encode_sharded``) so each
  can be timed on its own;
* :class:`StepStreamReader` — lists/loads steps, reading only the class
  prefix a consumer's accuracy needs (via the s-norm hint recorded by
  the producer), and :meth:`StepStreamReader.refresh`-ing its manifest
  to follow a producer that is still appending (a torn manifest read —
  non-atomic filesystems — is ignored, keeping the last good snapshot).

The manifest stores per-step metadata (shape, class byte sizes, s-norm
truncation estimates) so a consumer can choose its prefix *before*
touching the heavy payload — the Figure-1 "hint" across time.

Two stream modes share the directory layout:

``refactored`` (default)
    Steps are stored as raw refactored-class containers supporting
    partial (class-prefix) reads.

``compressed`` (pass ``tol=``)
    Steps go through the error-bounded time-series compressor:
    closed-loop temporal prediction, key frames every ``key_interval``
    steps, and — with the ``huffman`` backend — cross-step code-book
    reuse through the writer's own code-book scratch (a step whose data
    a cached book still codes well ships a ``table_ref`` to it instead of
    a book; every other Huffman segment carries its packed book and sync
    offsets as payload bytes, under the step file's CRC).  Step files
    keep those references *on disk*; the reader caches the books shipped
    since the nearest key frame as it rolls forward, which is exactly the
    random-access granularity closed-loop prediction has anyway.

Either mode may additionally be **sharded** (pass ``shards=``): every
step splits along axis 0 into independent shard segments — the paper's
equal-partition-per-GPU model — encoded in parallel through the
executor backends and stored in one sharded container per step, so
:meth:`StepStreamReader.read_region` decodes only the shards covering a
requested sub-volume.  Sharded compressed steps are spatially
compressed per step (independent partitions carry no temporal chain),
keeping every step — and every shard — self-contained.
"""

from __future__ import annotations

import functools
import io
import json
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .. import faults
from ..cache import LRUCache
from ..compress.fileio import save_compressed
from ..compress.quantizer import checked_tol
from ..errors import ContainerError
from ..compress.timeseries import TimeSeriesCompressor
from ..core.grid import hierarchy_for
from ..core.refactor import Refactorer
from ..core.snorm import truncation_estimate
from ..parallel import executors
from .container import (
    ShardedFileReader,
    _decode,
    write_refactored_stream,
    write_sharded_stream,
)
from .publish import atomic_publish as _atomic_publish

__all__ = [
    "StepStreamWriter",
    "StepStreamReader",
    "StreamError",
    "PreparedStep",
    "PredictedStep",
    "RecoveryReport",
    "ShardedStep",
]

_MANIFEST = "manifest.json"

# a torn manifest read heals on the next poll; one that stays broken
# this many consecutive refreshes is a dead stream, not a race
_MAX_TORN_REFRESHES = 10

_DURABILITY_LEVELS = ("rename", "fsync")

# how a follower polls for a step not yet listed: the first pause,
# doubled per empty poll up to the second (StepStreamReader.wait_for_step
# and the service's wait both back off this way)
POLL_INTERVAL_S = 0.005
MAX_POLL_INTERVAL_S = 0.25


class StreamError(RuntimeError):
    """Malformed or inconsistent stream directory."""


# what a per-step decode raises on a corrupt/vanished step file: every
# way bytes fail to decode is a ContainerError (io.container._decode
# maps whatever the codecs throw), a missing/unreadable file is an
# OSError, and a container that decodes but describes the wrong stream
# is a StreamError from the shape checks.  Anything else is a bug, not
# corruption.
_DECODE_ERRORS = (ContainerError, StreamError, OSError)


def load_manifest(root: str | Path) -> dict:
    """Parse and validate ``<root>/manifest.json`` — the one loader.

    Returns the manifest with ``mode`` defaulted.  ``OSError`` and
    ``json.JSONDecodeError`` pass through: to a follower's ``refresh``
    they are a torn read that heals on the next poll.  JSON that parses
    but is no stream manifest (shape, mode, a shard layout tiling axis
    0, steps naming their files) is corruption: :class:`StreamError`.
    """
    root = Path(root)
    # undecodable bytes become U+FFFD: junk JSON, not a third error type
    doc = json.loads((root / _MANIFEST).read_text(errors="replace"))

    def ints(seq) -> bool:
        return isinstance(seq, list) and all(type(n) is int for n in seq)

    def malformed(problem: str) -> StreamError:
        return StreamError(f"malformed stream manifest at {root}: {problem}")

    if not isinstance(doc, dict):
        raise malformed("not a JSON object")
    shape = doc.get("shape")
    if not (ints(shape) and shape and min(shape) > 0):
        raise malformed(f"shape {shape!r}")
    if doc.setdefault("mode", "refactored") not in ("refactored", "compressed"):
        raise malformed(f"mode {doc['mode']!r}")
    shards = doc.get("shards")
    if shards is not None and not (
        isinstance(shards, list)
        and all(ints(ab) and len(ab) == 2 and ab[0] < ab[1] for ab in shards)
        # the shards tile axis 0: a region read leaves no row unwritten
        and [a for a, _ in shards] == [0] + [b for _, b in shards[:-1]]
        and shards[-1][1] == shape[0]
    ):
        raise malformed(f"shards {shards!r}")
    steps = doc.get("steps")
    if not (
        isinstance(steps, list)
        and all(isinstance(e, dict) and isinstance(e.get("file"), str) for e in steps)
    ):
        raise malformed("steps is not a list of entries naming their file")
    return doc


def _open_manifest(root: Path) -> dict:
    """:func:`load_manifest` for opening a stream, where there is no
    last good snapshot to keep: unparseable JSON is corruption too."""
    try:
        return load_manifest(root)
    except json.JSONDecodeError as e:
        raise StreamError(f"unparseable stream manifest at {root}: {e}") from e


@dataclass
class PreparedStep:
    """One fully-encoded step awaiting its directory commit.

    Produced by :meth:`StepStreamWriter.encode_predicted` or
    :meth:`StepStreamWriter.encode_sharded` and consumed by
    :meth:`StepStreamWriter.commit_step`, which lands steps on disk
    strictly in order.
    """

    index: int
    name: str
    payload: bytes = dataclass_field(repr=False)
    entry: dict

    @property
    def nbytes(self) -> int:
        return len(self.payload)


@dataclass
class PredictedStep:
    """One compressed-mode step through the prediction loop, unencoded.

    Produced by :meth:`StepStreamWriter.predict_step` (closed-loop
    prediction and the step-index claim) and consumed by
    :meth:`StepStreamWriter.encode_predicted` (entropy coding +
    container serialization).
    """

    index: int
    time: float | None
    plan: object = dataclass_field(repr=False)  # compress.timeseries.ResidualPlan


@dataclass
class RecoveryReport:
    """How a degraded read was served (see ``StepStreamReader``).

    Produced whenever :meth:`StepStreamReader.read_step` or
    :meth:`StepStreamReader.read_region` recovers from corruption
    instead of raising; exposed as ``reader.last_recovery`` (``None``
    after a clean, exact read).
    """

    requested: int
    #: the step whose state the returned field actually represents —
    #: earlier than ``requested`` when the chain rolled back
    served: int | None
    #: all steps this reader has quarantined so far (sorted)
    quarantined: list[int]
    degraded: bool
    #: axis-0 row ranges of a region read that no surviving shard
    #: covered (NaN-filled in the returned array)
    failed_extents: list[tuple[int, int]] = dataclass_field(default_factory=list)


@dataclass
class ShardedStep:
    """One sharded-stream step awaiting its shard-parallel encode.

    Produced by :meth:`StepStreamWriter.shard_step` (the step-index
    claim; it only holds a reference to the frame) and consumed by
    :meth:`StepStreamWriter.encode_sharded` (the per-shard
    refactor/compress fan-out plus container serialization).
    """

    index: int
    time: float | None
    field: np.ndarray = dataclass_field(repr=False)


class StepStreamWriter:
    """Producer side: append time steps to a directory.

    Parameters
    ----------
    root / shape:
        Stream directory and the per-step grid shape.
    tol:
        Selects the ``compressed`` mode: per-step absolute L∞ error
        bound.  ``None`` (default) keeps the raw ``refactored`` mode.
    backend / key_interval:
        Compressed-mode settings, passed to
        :class:`~repro.compress.timeseries.TimeSeriesCompressor`.
    executor:
        Executor spec or instance scheduling the encode fan-out (the
        shard fan-out, for sharded streams).
    durability:
        What :meth:`commit_step` guarantees once it returns.
        ``"rename"`` (default): the step file and manifest were
        published by atomic rename — a concurrent reader never sees a
        partial step, and a killed *process* loses nothing committed,
        but a crashed machine may lose or truncate files still in the
        page cache.  ``"fsync"``: additionally fsync every published
        file and its directory entry, so committed steps survive power
        loss (measurably slower per commit; ``repro-bench chaos``
        quantifies the cost).
    shards:
        Split every step along axis 0 into this many shard segments
        (``None``/``1`` keeps steps monolithic).  Sharded steps are
        encoded shard-by-shard through the executor backends and stored
        as sharded containers, so
        :meth:`StepStreamReader.read_region` decodes only the shards a
        sub-volume needs.  Sharded *compressed* steps follow the
        paper's independent-partition model: each step is spatially
        compressed on its own (no temporal prediction, no cross-step
        code-book chain — every shard container is self-contained), so
        the per-step L∞ bound still holds and any step decodes without
        replaying a chain.
    """

    def __init__(
        self,
        root: str | Path,
        shape: tuple[int, ...],
        *,
        tol: float | None = None,
        backend: str = "huffman",
        key_interval: int = 16,
        executor=None,
        shards: int | None = None,
        durability: str = "rename",
    ):
        if tol is not None:
            tol = checked_tol(tol)
        if durability not in _DURABILITY_LEVELS:
            raise ValueError(
                f"unknown durability {durability!r}; choose from {_DURABILITY_LEVELS}"
            )
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be None or >= 1, got {shards}")
        self.durability = durability
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # sweep a crashed predecessor's half-written temp files: no
        # manifest ever references a .tmp, and live commits use unique
        # names, so anything matching here is dead weight
        for stale in self.root.glob("*.tmp"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing sweeper
                pass
        self.refactorer = Refactorer(tuple(shape))
        self.stream_mode = "refactored" if tol is None else "compressed"
        self._backend = backend
        self._tol = tol
        self._key_interval = int(key_interval)
        self._executor = executor
        self._shard_plan = None
        self._shard_codec = None
        if shards is not None and shards > 1:
            from ..cluster.sharded import ShardCodec, plan_shards, shard_tolerance

            self._shard_plan = plan_shards(tuple(shape), int(shards))
            self._shard_codec = ShardCodec(
                tol=None
                if tol is None
                else shard_tolerance(tol, self._shard_plan.n_blocks),
                backend=backend,
            )
        self._compressor: TimeSeriesCompressor | None = None
        if tol is not None and self._shard_plan is None:
            self._compressor = TimeSeriesCompressor(
                hierarchy_for(tuple(shape)),
                tol,
                key_interval=key_interval,
                backend=backend,
                executor=executor,
            )
        self._manifest_path = self.root / _MANIFEST
        self._steps: list = []
        if self._manifest_path.exists():
            # steps already on disk were encoded under the manifest's
            # settings; rewriting those would misdescribe every one
            manifest, mine = _open_manifest(self.root), self._manifest_doc()
            for key in ("shape", "mode", "shards", "tol", "backend", "key_interval"):
                have, want = manifest.get(key), mine.get(key)
                # a manifest that never recorded a codec setting leaves it free
                if have != want and (have is not None or key == "shards"):
                    raise StreamError(
                        f"stream at {root} was written with {key}={have!r}, "
                        f"writer asked for {want!r}"
                    )
            self._steps = manifest["steps"]
        else:
            self._flush_manifest()
        self._next_index = len(self._steps)

    def _manifest_doc(self) -> dict:
        """The manifest this writer's settings and steps make."""
        doc = {
            "shape": list(self.refactorer.shape),
            "mode": self.stream_mode,
            "steps": self._steps,
        }
        if self._shard_plan is not None:
            doc["shards"] = [
                [int(a), int(b)]
                for a, b in zip(self._shard_plan.starts, self._shard_plan.stops)
            ]
        if self.stream_mode == "compressed":
            doc["tol"] = self._tol
            doc["backend"] = self._backend
            if self._compressor is not None:
                doc["key_interval"] = self._compressor.key_interval
        return doc

    def _flush_manifest(self) -> None:
        faults.crash_point("stream.manifest.pre_flush")
        payload = json.dumps(self._manifest_doc(), indent=1)
        _atomic_publish(
            self._manifest_path, payload.encode(), self.durability, "stream.manifest"
        )

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def append(self, field: np.ndarray, time: float | None = None) -> int:
        """Persist one step (refactor or compress); returns its index.

        A step that fails anywhere — a non-finite frame, a full disk —
        leaves the writer ready for the next one: its index is released
        and a compressed writer restarts its prediction loop, so the
        next step is a key frame that references nothing the failed
        step shipped.
        """
        try:
            return self.commit_step(self._encode_step(field, time))
        except BaseException:
            self._release_pending()
            raise

    def _encode_step(self, field: np.ndarray, time: float | None) -> PreparedStep:
        """Refactor/compress one step into memory, without committing."""
        if self._shard_plan is not None:
            return self.encode_sharded(self.shard_step(field, time=time))
        if self._compressor is not None:
            return self.encode_predicted(self.predict_step(field, time=time))
        cc = self.refactorer.refactor(field)
        idx = self._claim_index()
        buf = io.BytesIO()
        write_refactored_stream(buf, cc, attrs={"step": idx, "time": time})
        hints = [truncation_estimate(cc, k) for k in range(1, cc.n_classes + 1)]
        return PreparedStep(
            index=idx,
            name=f"step_{idx:06d}.rprc",
            payload=buf.getvalue(),
            entry={
                "time": time,
                "class_bytes": [int(c.nbytes) for c in cc.classes],
                "truncation_estimates": hints,
            },
        )

    def shard_step(self, field: np.ndarray, time: float | None = None) -> ShardedStep:
        """Claim the next step index for a sharded stream, unencoded.

        Sharded streams only: the index claim plus a shape check (the
        frame travels by reference).  The per-shard encode is
        :meth:`encode_sharded`.
        """
        if self._shard_plan is None:
            raise StreamError(
                "shard_step needs a sharded stream; this writer is "
                "unsharded (use append)"
            )
        if tuple(field.shape) != self._shard_plan.shape:
            raise ValueError(
                f"frame has shape {field.shape}, expected {self._shard_plan.shape}"
            )
        return ShardedStep(index=self._claim_index(), time=time, field=field)

    def encode_sharded(self, ss: ShardedStep) -> PreparedStep:
        """Encode a sharded step's shards and serialize its container.

        The per-shard refactor/compress fan-out runs through the
        writer's executor (:func:`repro.cluster.sharded.encode_shards`);
        the shard containers are byte-identical across
        serial/thread/process.
        """
        if self._shard_plan is None:
            raise StreamError(
                "encode_sharded needs a sharded stream; this writer is "
                "unsharded (use append)"
            )
        from ..cluster.sharded import encode_shards

        plan = self._shard_plan
        payloads = encode_shards(
            np.ascontiguousarray(ss.field), plan, self._shard_codec, self._executor
        )
        bounds = list(zip(plan.starts, plan.stops))
        buf = io.BytesIO()
        nbytes = write_sharded_stream(
            buf,
            plan.shape,
            self._shard_codec.payload_mode,
            bounds,
            payloads,
            attrs={"step": ss.index, "time": ss.time},
        )
        return PreparedStep(
            index=ss.index,
            name=f"step_{ss.index:06d}.rpsh",
            payload=buf.getvalue(),
            entry={
                "time": ss.time,
                "nbytes": int(nbytes),
                "shards": [
                    {"start": int(a), "stop": int(b), "nbytes": len(p)}
                    for (a, b), p in zip(bounds, payloads)
                ],
            },
        )

    def predict_step(self, field: np.ndarray, time: float | None = None) -> PredictedStep:
        """Run one step through the closed prediction loop, unencoded.

        Compressed streams only: temporal prediction, refactor,
        quantization and the step-index claim (the stateful parts).  The
        entropy coding of the returned :class:`PredictedStep` is
        :meth:`encode_predicted`; steps are predicted in stream order.
        """
        if self._compressor is None:
            raise StreamError(
                "predict_step needs an unsharded 'compressed' stream; use "
                "shard_step/encode_sharded on sharded streams, or append "
                "on 'refactored' ones"
            )
        plan = self._compressor.predict_residual(field)
        return PredictedStep(index=self._claim_index(), time=time, plan=plan)

    def encode_predicted(self, pred: PredictedStep) -> PreparedStep:
        """Entropy-code a predicted step and serialize its container.

        Steps sharing the writer's code-book chain must be encoded in
        stream order; the prediction of later steps never waits on this
        call.
        """
        if self._compressor is None:
            raise StreamError(
                "encode_predicted needs an unsharded 'compressed' stream; "
                "use encode_sharded on sharded streams, or append on "
                "'refactored' ones"
            )
        blob, is_key = self._compressor.encode_residual(pred.plan)
        buf = io.BytesIO()
        # keep code-book references as written: the stream directory
        # is the unit of self-containment, not the individual step
        nbytes = save_compressed(buf, blob, materialize=False)
        return PreparedStep(
            index=pred.index,
            name=f"step_{pred.index:06d}.mgz",
            payload=buf.getvalue(),
            entry={
                "time": pred.time,
                "is_key": bool(is_key),
                "nbytes": int(nbytes),
            },
        )

    def _claim_index(self) -> int:
        idx = self._next_index
        self._next_index += 1
        return idx

    def _release_pending(self) -> None:
        """Forget claimed-but-uncommitted indices after a failed append."""
        self._next_index = len(self._steps)
        if self._compressor is not None:
            # the prediction loop and code-book chain may hold the failed
            # step: re-base on a key frame that rebuilds its books
            self._compressor.reset()

    def commit_step(self, prep: PreparedStep) -> int:
        """Write a prepared step's file and publish its manifest entry.

        Commits must arrive in encode order — the manifest records a
        contiguous prefix, and a concurrent reader may only ever see
        fully-written steps (unique temp file + atomic rename).  A
        writer killed anywhere inside this call leaves the stream
        reopenable: either the step is fully in the manifest, or it is
        invisible (at worst a swept-on-open temp file or an orphan step
        file the resumed writer republishes under the same name).
        """
        if prep.index != len(self._steps):
            raise StreamError(
                f"step {prep.index} committed out of order; the manifest "
                f"has {len(self._steps)} steps"
            )
        _atomic_publish(
            self.root / prep.name, prep.payload, self.durability, "stream.step"
        )
        faults.crash_point("stream.commit.post_rename")
        self._steps.append({"file": prep.name, **prep.entry})
        try:
            self._flush_manifest()
        except BaseException:
            # unpublished: the step file is an orphan the next commit of
            # this index overwrites
            self._steps.pop()
            raise
        return prep.index


class StepStreamReader:
    """Consumer side: read steps (or prefixes of them) from a stream.

    ``cache_steps`` bounds a decoded-step LRU cache (entries; ``0``
    disables it): repeated random access into a compressed stream no
    longer re-rolls the key-frame chain for steps decoded recently
    (sharded steps are not held here — see :meth:`read_step`).
    Entries are keyed by ``(step, generation)`` where :attr:`generation`
    bumps — invalidating every cached decode — whenever
    :meth:`refresh` adopts a manifest whose already-known entries
    *changed* (a rewritten stream).  Plain appends from a live producer
    keep the generation: committed steps are immutable, so their cached
    decodes stay valid while a follower polls.  Only clean, exact reads
    are cached (never degraded/recovered ones, so a repaired file still
    heals on retry).

    The reader is **thread-safe**: reads of an unsharded stream and
    :meth:`refresh` serialize on an internal lock (the compressed-mode
    chain replay is stateful), so concurrent callers — a server's
    decode pool, follower threads — compose without torn chain state.
    A sharded stream has no chain: :meth:`read_shard`, and the
    :meth:`read_region` / :meth:`read_step` that open a step once and
    decode its covering shards together on the host's thread pool, take
    the lock only to snapshot the manifest entry and to touch
    ``quarantined`` — never across file I/O or a decode — so they
    overlap each other and :meth:`refresh`.
    """

    def __init__(self, root: str | Path, *, cache_steps: int = 4):
        self.root = Path(root)
        if not (self.root / _MANIFEST).exists():
            raise StreamError(f"no stream manifest at {self.root}")
        manifest = _open_manifest(self.root)
        self.shape = tuple(manifest["shape"])
        self.stream_mode = manifest["mode"]
        self.tol = manifest.get("tol")
        shards = manifest.get("shards")
        self.shard_bounds = (
            None
            if shards is None
            else [(int(a), int(b)) for a, b in shards]
        )
        self.steps = manifest["steps"]
        self.hier = hierarchy_for(self.shape)
        # compressed-mode incremental decode state
        self._pos: int | None = None
        self._prev: np.ndarray | None = None
        self._scratch: dict = {}
        self._refresh_failures = 0
        self._lock = threading.RLock()
        #: bumped when refresh() adopts a manifest whose known entries
        #: changed; part of every step-cache key
        self.generation = 0
        if cache_steps < 0:
            raise ValueError(f"cache_steps must be >= 0, got {cache_steps}")
        self._step_cache = LRUCache(
            max_bytes=(1 << 62) if cache_steps else 0, max_entries=cache_steps
        )
        #: steps whose files failed CRC/parse checks, step -> reason.
        #: Quarantined steps are skipped by chain recovery (a delta
        #: chain cannot cross them) but retried on direct access, so a
        #: repaired file heals without reopening the reader.
        self.quarantined: dict[int, str] = {}
        self._recovery = threading.local()

    @property
    def last_recovery(self) -> RecoveryReport | None:
        """Recovery report of the calling thread's most recent read
        (``None`` = clean/exact) — per thread, so no other thread's read
        can reset it between a read and the caller's look at it."""
        return getattr(self._recovery, "report", None)

    @last_recovery.setter
    def last_recovery(self, report: RecoveryReport | None) -> None:
        self._recovery.report = report

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def refresh(self) -> int:
        """Re-read the manifest to pick up steps appended since open.

        Thread-safe; see :meth:`_refresh_impl` for the full contract.
        """
        with self._lock:
            return self._refresh_impl()

    def wait_for_step(self, step: int, *, timeout: float | None = None) -> bool:
        """Block until the stream lists a step ``> step``-indexed (i.e.
        ``n_steps > step``), refreshing with exponential backoff.

        The follower primitive: instead of busy-polling ``refresh()`` in
        a tight loop, the poll interval starts at :data:`POLL_INTERVAL_S`
        and doubles up to :data:`MAX_POLL_INTERVAL_S` while the producer
        is quiet, so an idle follower costs microseconds of CPU per
        second instead of a core.  Returns ``True`` as soon as the step
        is visible, ``False`` on ``timeout`` (``None`` waits forever).
        A dead stream still surfaces as :class:`StreamError` through
        ``refresh``'s torn-manifest cap.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        interval = POLL_INTERVAL_S
        while True:
            if self.n_steps > step:
                return True
            self.refresh()
            if self.n_steps > step:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            pause = interval
            if deadline is not None:
                pause = min(pause, max(deadline - time.monotonic(), 0.0))
            time.sleep(pause)
            interval = min(interval * 2, MAX_POLL_INTERVAL_S)

    def _refresh_impl(self) -> int:
        """Re-read the manifest to pick up steps appended since open.

        The producer replaces the manifest atomically, so on POSIX a
        reader polling behind a live simulation always sees a
        consistent prefix.  Filesystems without atomic replace (network
        mounts, some object-store shims) can expose a *torn* manifest —
        half-written JSON, or a file that is momentarily absent mid
        replace.  A torn read is not an error, just a poll that landed
        inside the producer's write: the reader keeps its last good
        snapshot and picks the new steps up on the next call (after
        :data:`_MAX_TORN_REFRESHES` consecutive failures the stream is
        considered dead and :class:`StreamError` is raised).  A
        snapshot that parses but lists *fewer* steps than this reader
        already holds is treated the same way: steps are append-only,
        so a shrunken manifest is a stale read mid-replace, and
        adopting it would make :meth:`read_step` reject — instead of
        rolling forward from the nearest key frame — steps it served a
        poll ago.  Returns the current step count.  Already-decoded
        state is kept — existing steps are immutable.
        """
        try:
            manifest = load_manifest(self.root)
        except (OSError, json.JSONDecodeError) as e:
            # torn read from a live producer; keep the previous
            # snapshot.  A *persistently* unreadable manifest (stream
            # directory deleted, mount gone) is not a torn read — after
            # enough consecutive failures, surface it instead of
            # letting a polling consumer spin on stale data forever.
            self._refresh_failures += 1
            if self._refresh_failures >= _MAX_TORN_REFRESHES:
                raise StreamError(
                    f"manifest at {self.root} unreadable for "
                    f"{self._refresh_failures} consecutive refreshes"
                ) from e
            return len(self.steps)
        # (wrong-schema JSON is corruption, not a torn read: load_manifest
        # raised StreamError rather than let this poll stall on it forever)
        steps = manifest["steps"]
        if tuple(manifest["shape"]) != self.shape:
            raise StreamError(f"stream at {self.root} changed shape underneath us")
        if len(steps) < len(self.steps):
            # a manifest can never lose steps (the producer only appends
            # and replaces atomically), so a shorter snapshot is another
            # face of the torn read: a non-atomic filesystem exposing a
            # half-propagated replace.  Adopting it would invalidate
            # step indices this reader already served — random access
            # via read_step would suddenly reject steps it decoded a
            # poll ago — so keep the longer snapshot and let the next
            # poll catch up (counted like any other torn read, so a
            # stream that *stays* shrunken still surfaces as dead).
            self._refresh_failures += 1
            if self._refresh_failures >= _MAX_TORN_REFRESHES:
                raise StreamError(
                    f"manifest at {self.root} stuck {len(steps)} steps behind "
                    f"this reader's snapshot of {len(self.steps)} (torn or "
                    "rewritten stream?)"
                )
            return len(self.steps)
        self._refresh_failures = 0
        if steps[: len(self.steps)] != self.steps:
            # an entry this reader already described changed — the
            # stream was rewritten underneath us, so every cached
            # decode (keyed by the old generation) is now unreachable,
            # and the chain-replay state (_pos/_prev) describes fields
            # that no longer exist.  Plain appends keep the generation:
            # committed steps are immutable, and nuking the cache on
            # every follower poll would defeat its purpose.
            self.generation += 1
            self._step_cache.clear()
            self._reset_chain()
        self.steps = steps
        return len(self.steps)

    def classes_needed(self, step: int, tol: float) -> int:
        """Prefix length meeting ``tol`` — decided from the manifest only."""
        if self.stream_mode != "refactored" or self.shard_bounds is not None:
            raise StreamError(
                "class-prefix hints need an unsharded 'refactored' stream; "
                f"this one is {self.stream_mode!r}"
                f"{' (sharded — use read_region)' if self.shard_bounds else ''}"
            )
        with self._lock:
            meta = self._meta(step)
        for k, est in enumerate(meta["truncation_estimates"], start=1):
            if est <= tol:
                return k
        return len(meta["truncation_estimates"])

    def read(self, step: int, k: int | None = None, tol: float | None = None):
        """Reconstruct a step from its first ``k`` classes.

        Pass ``tol`` instead of ``k`` to let the manifest hint choose.
        Returns ``(field, bytes_read)``.  Refactored-mode streams only;
        compressed streams decode whole steps via :meth:`read_step`.
        """
        if self.stream_mode != "refactored" or self.shard_bounds is not None:
            raise StreamError(
                "partial class reads need an unsharded 'refactored' stream; "
                f"this one is {self.stream_mode!r}"
                f"{' (sharded — use read_region)' if self.shard_bounds else ''}"
            )
        if (k is None) == (tol is None):
            raise ValueError("pass exactly one of k or tol")
        with self._lock:
            meta = self._meta(step)
        if tol is not None:
            k = self.classes_needed(step, tol)
        n = len(meta["class_bytes"])
        if not 1 <= k <= n:
            raise StreamError(f"k must be in [1, {n}], got {k}")
        return self._decode_step(step, meta, k=k), sum(meta["class_bytes"][:k])

    # ------------------------------------------------------------------
    # sharded-mode region decode

    def read_region(self, step: int, region=None, on_error: str = "recover") -> np.ndarray:
        """Reconstruct a sub-volume of one step, decoding only its shards.

        ``region`` is a tuple of slices into the full step grid (fewer
        slices than dimensions are padded with ``slice(None)``; steps
        other than 1 are not supported); ``None`` reads the whole step.
        On a sharded stream only the shard segments whose axis-0 row
        ranges intersect ``region`` are read and decoded — the partial-
        read capability along *space*, complementing the class-prefix
        partial read along *accuracy*.  Works for both payload modes
        (refactored shards reconstruct losslessly; compressed shards
        honour the stream's L∞ bound).  Unsharded streams fall back to
        a whole-step decode and slice.

        The step file is opened, and its shard table parsed, once per
        read; the covering shards then decode together on the host's
        shared thread pool (``thread:N``, N its cores), the way the
        service fans its per-shard units out.  With one covering shard or
        one core the same loop runs inline.  A shard the pool has not
        started when the caller needs it runs on the caller's thread, so
        a read issued from inside one of that pool's own jobs cannot
        deadlock.

        Shards are independent failure domains, and ``on_error``
        (default ``"recover"``) exploits that: see :meth:`shard_pieces`,
        which still decides every shard in row order on the calling
        thread.  ``on_error="raise"`` restores fail-stop behaviour.
        """
        if on_error not in ("recover", "raise"):
            raise ValueError(f"on_error must be 'recover' or 'raise', got {on_error!r}")
        if self.shard_bounds is not None:
            region = self._normalize_region(region)
            covering = self.shards_covering(region)
            cores = executors.available_workers() if len(covering) > 1 else 1
            pool = executors.get_executor(f"thread:{cores}") if cores > 1 else None
            jobs: dict[int, tuple] = {}

            def load(i: int) -> np.ndarray:
                # the first shard asked for opens the step, once per read; a
                # failed open fails that shard, and the next one retries it
                if not jobs:
                    opened = self._open_sharded(step)
                    for j in covering:
                        job = functools.partial(self._shard_block, step, opened, j)
                        jobs[j] = (job, None if pool is None else pool.submit(job))
                job, fut = jobs[i]
                return job() if fut is None or fut.cancel() else fut.result()

            out = np.empty(tuple(sl.stop - sl.start for sl in region))
            row = 0
            try:
                for piece in self.shard_pieces(step, region, load, on_error):
                    out[row : row + len(piece)] = piece
                    row += len(piece)
            finally:
                for _, fut in jobs.values():
                    if fut is not None:
                        fut.cancel()  # a raising read leaves no queued work
            return out
        with self._lock:
            meta = self._meta(step)
            region = self._normalize_region(region)
            if self.stream_mode == "compressed":
                return self.read_step(step, on_error=on_error)[region].copy()
            self.last_recovery = None
            try:
                # a refactored step has no chain to roll back along and
                # no shards to lose one of: it decodes or it does not
                return self._decode_step(step, meta)[region].copy()
            except _DECODE_ERRORS as e:
                if on_error == "raise":
                    raise
                self.quarantined.setdefault(step, str(e))
                raise StreamError(f"step {step}: container unreadable ({e})") from e

    def shards_covering(self, region=None) -> list[int]:
        """Indices of the shards (manifest layout) ``region``'s rows touch."""
        bounds = self._sharded("shards_covering")
        rows = self._normalize_region(region)[0]
        return [i for i, (a, b) in enumerate(bounds) if a < rows.stop and b > rows.start]

    def read_shard(self, step: int, i: int) -> np.ndarray:
        """Decode shard ``i`` of a sharded step — the unit a sharded read
        decodes (and the service caches and coalesces on).

        Stateless: sharded steps carry no chain, so the lock is held only
        to snapshot the manifest entry, never across file I/O or decode.
        A table row or decoded shape that disagrees with the manifest's
        layout fails the shard like a bad CRC does (``_DECODE_ERRORS``);
        what a failure *means* is :meth:`shard_pieces`' business.  An
        unsharded stream or an ``i`` outside the layout is the caller's
        error: :class:`StreamError`, before any file is opened.
        """
        bounds = self._sharded("read_shard")
        if not 0 <= i < len(bounds):
            raise StreamError(f"shard {i} out of range [0, {len(bounds)})")
        return self._shard_block(step, self._open_sharded(step), i)

    def _open_sharded(self, step: int) -> tuple[ShardedFileReader, list[tuple[int, int]]]:
        """Open a sharded step file: its reader and its shard table's rows."""
        with self._lock:
            meta = self._meta(step)
        reader = ShardedFileReader(self.root / meta["file"])
        return reader, reader.shard_bounds()

    def _shard_block(self, step: int, opened, i: int) -> np.ndarray:
        """Shard ``i`` of an :meth:`_open_sharded` step, its table row and
        decoded shape checked against the manifest's layout."""
        reader, rows = opened
        a, b = self.shard_bounds[i]
        if len(rows) != len(self.shard_bounds) or rows[i] != (a, b):
            raise ContainerError(
                f"step {step}: the shard table's rows {rows} disagree with "
                f"the stream's layout at shard {i}, [{a}, {b})"
            )
        block = self._decode_shard(reader, i)
        if block.shape != (b - a,) + self.shape[1:]:
            raise ContainerError(
                f"step {step}: shard {i} decoded to shape {block.shape} "
                f"for rows [{a}, {b})"
            )
        return block

    def shard_pieces(self, step: int, region, load, on_error: str = "recover"):
        """Yield ``region`` of a sharded step as one array per covering
        shard, in row order (their concatenation is the region).

        ``load(i)`` returns shard ``i``'s decoded block or raises as
        :meth:`read_shard` does; what a failed shard means is decided
        here alone, for the local read and the service alike.  Rows are
        placed by the manifest's layout (validated to tile the domain).
        A failed shard is *skipped*: its rows come back NaN-filled and
        ``self.last_recovery`` records the lost axis-0 extents, while
        every surviving shard is served exactly.  Only when **no**
        covering shard decodes is the step quarantined and
        :class:`StreamError` raised; ``on_error="raise"`` lets the first
        failure through instead.
        """
        self._sharded("shard_pieces")
        with self._lock:
            self._meta(step)  # range check
        region = self._normalize_region(region)
        lo, hi = region[0].start, region[0].stop
        rest = region[1:]
        covering = self.shards_covering(region)
        failed: list[tuple[int, int]] = []
        self.last_recovery = None
        for i in covering:
            a, b = self.shard_bounds[i]
            cut_lo, cut_hi = max(lo, a), min(hi, b)
            try:
                piece = load(i)[(slice(cut_lo - a, cut_hi - a),) + rest]
            except _DECODE_ERRORS:
                if on_error == "raise":
                    raise
                failed.append((cut_lo, cut_hi))
                shape = (cut_hi - cut_lo,) + tuple(sl.stop - sl.start for sl in rest)
                piece = np.full(shape, np.nan)
            yield piece
        if failed:
            with self._lock:  # ``quarantined`` is shared between threads
                if len(failed) == len(covering):
                    self.quarantined.setdefault(step, "every covering shard corrupt")
                    raise StreamError(
                        f"step {step}: all {len(covering)} shards covering rows "
                        f"[{lo}, {hi}) failed to decode"
                    )
                self.last_recovery = RecoveryReport(
                    requested=step,
                    served=step,
                    quarantined=sorted(self.quarantined),
                    degraded=True,
                    failed_extents=failed,
                )

    def _sharded(self, what: str) -> list[tuple[int, int]]:
        """The manifest's shard layout; :class:`StreamError` when there is none."""
        if self.shard_bounds is None:
            raise StreamError(f"{what} needs a sharded stream; this one is unsharded")
        return self.shard_bounds

    def _decode_shard(self, reader: ShardedFileReader, i: int) -> np.ndarray:
        """Decode one shard segment to its field block (the region-read
        work unit — tests spy on it to assert read selectivity)."""
        return _decode(reader.read_shard(i), executor="serial")

    def _decode_step(self, step: int, meta: dict, **kw) -> np.ndarray:
        """One unsharded step file through the one decoder, checked
        against the stream's shape."""
        out = _decode(self.root / meta["file"], **kw)
        if out.shape != self.shape:
            raise StreamError(f"step {step} holds a field of shape {out.shape}")
        return out

    def _normalize_region(self, region) -> tuple[slice, ...]:
        if region is None:
            region = ()
        if not isinstance(region, tuple):
            region = (region,)
        if len(region) > len(self.shape):
            raise ValueError(
                f"region has {len(region)} slices for a {len(self.shape)}-d grid"
            )
        region = tuple(region) + tuple(
            slice(None) for _ in range(len(self.shape) - len(region))
        )
        out = []
        for sl, n in zip(region, self.shape):
            if not isinstance(sl, slice):
                raise ValueError("region entries must be slices")
            lo, hi, stride = sl.indices(n)
            if stride != 1:
                raise ValueError("region slices must have step 1")
            if hi <= lo:
                raise ValueError(f"empty region slice {sl} on an axis of {n}")
            out.append(slice(lo, hi))
        return tuple(out)

    # ------------------------------------------------------------------
    # compressed-mode decode

    def read_step(self, step: int, on_error: str = "recover") -> np.ndarray:
        """Reconstruct one full step (cached; see :meth:`_read_step_impl`).

        Clean decodes land in the reader's decoded-step LRU keyed by
        ``(step, generation)``, so repeated random access stops
        re-rolling the key-frame chain; a hit costs one ``memcpy``.  The
        cached snapshot is the chain's own read-only state (never written
        in place: the next step replaces it), so a miss costs one copy
        too — the caller's.  Degraded (recovered) reads are never cached
        — a repaired file heals on the next direct access, exactly as
        without the cache.

        A sharded step (independent partitions: no chain, no lock) is
        the all-shards :meth:`read_region` and is not cached here — the
        unit worth caching is the shard, and the service holds those.
        """
        if on_error not in ("recover", "raise"):
            raise ValueError(f"on_error must be 'recover' or 'raise', got {on_error!r}")
        if self.shard_bounds is not None:
            return self.read_region(step, on_error=on_error)
        with self._lock:
            key = (step, self.generation)
            cached = self._step_cache.get(key)
            if cached is not None:
                self.last_recovery = None
                return cached.copy()
            state = self._read_step_impl(step, on_error)
            if self.last_recovery is None:
                self._step_cache.put(key, state)
            return state.copy()

    def _read_step_impl(self, step: int, on_error: str = "recover") -> np.ndarray:
        """Reconstruct one full step of an unsharded compressed stream.

        Compressed streams honour ``tol``; sequential reads cost one
        blob decode each and random access rolls forward from the
        nearest key frame at or before ``step``, replaying the
        code-book chain along the way.

        With ``on_error="recover"`` (the default) a step whose file
        fails its CRC or parse is **quarantined** instead of poisoning
        the stream: the read serves the nearest decodable state at or
        before ``step`` — rolling the delta chain back to the last good
        step, or to an earlier key-frame chain when the corruption sits
        at a chain head — and ``self.last_recovery`` reports which step
        was actually served.  Only when no decodable key-frame chain
        exists at all does the read raise :class:`StreamError`.
        ``on_error="raise"`` restores fail-stop behaviour (the first
        corrupt file in the replay chain raises).  Returns the chain's
        read-only state; :meth:`read_step` hands the caller a copy.
        """
        if self.stream_mode != "compressed":
            raise StreamError(
                f"read_step needs a 'compressed' stream; this one is "
                f"{self.stream_mode!r} (use read)"
            )
        self._meta(step)  # range check
        self.last_recovery = None
        if self._pos is not None and step == self._pos:
            return self._prev
        if self._pos is not None and step == self._pos + 1:
            start = step
        else:
            start = self._latest_key_at_or_before(step)
            self._reset_chain()
        for s in range(start, step + 1):
            try:
                self._decode_forward(s)
            except _DECODE_ERRORS as e:
                if on_error == "raise":
                    raise
                self.quarantined.setdefault(s, str(e))
                return self._recover_read(step)
        return self._prev

    def _reset_chain(self) -> None:
        self._pos, self._prev = None, None
        self._scratch = {}

    def _recover_read(self, step: int) -> np.ndarray:
        """Serve the nearest decodable state at or before ``step``.

        Called after a chain decode hit a quarantined step.  If the
        chain had already produced state (the corrupt step was
        mid-chain), that pre-failure state *is* the nearest decodable
        one.  Otherwise the chain head itself was undecodable: walk
        earlier key frames, replaying each candidate chain up to the
        first corrupt step, until one yields any state.  Raises
        :class:`StreamError` when no chain does — a stream with every
        key frame poisoned has nothing safe to serve.
        """
        if self._pos is None:
            for k in range(step - 1, -1, -1):
                if not self.steps[k].get("is_key") or k in self.quarantined:
                    continue
                self._reset_chain()
                try:
                    for s in range(k, step + 1):
                        if s in self.quarantined:
                            break  # a delta chain cannot cross a hole
                        self._decode_forward(s)
                except _DECODE_ERRORS as e:
                    self.quarantined.setdefault(s, str(e))
                if self._pos is not None:
                    break
        if self._pos is None:
            raise StreamError(
                f"step {step}: no decodable key-frame chain at or before it "
                f"(quarantined steps: {sorted(self.quarantined)})"
            )
        self.last_recovery = RecoveryReport(
            requested=step,
            served=self._pos,
            quarantined=sorted(self.quarantined),
            degraded=self._pos != step,
        )
        return self._prev

    def _latest_key_at_or_before(self, step: int) -> int:
        for s in range(step, -1, -1):
            if self.steps[s].get("is_key"):
                return s
        raise StreamError(f"no key frame at or before step {step}")

    def _decode_forward(self, s: int) -> None:
        meta = self.steps[s]
        delta = self._decode_step(s, meta, scratch=self._scratch)
        # delta is freshly decoded: accumulate the chain into it, not into a third array
        self._prev = delta if meta.get("is_key") else np.add(self._prev, delta, out=delta)
        self._prev.setflags(write=False)  # read_step caches it as is
        self._pos = s

    def _meta(self, step: int) -> dict:
        if not 0 <= step < len(self.steps):
            raise StreamError(f"step {step} out of range [0, {len(self.steps)})")
        return self.steps[step]
