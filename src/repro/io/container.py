"""Refactored-data containers (the ADIOS stand-in) and the step decoder.

The paper stores refactored data through ADIOS so consumers can read a
*prefix* of coefficient classes.  The two single-file equivalents here
are instances of the one frame of :mod:`repro.frame` (DESIGN.md,
"On-disk formats"), which owns framing, bounds and per-extent CRC32s:

``RPRC`` — one extent per coefficient class, coarse-to-fine, so
    ``RefactoredFileReader.read_classes(k)`` reads only the first ``k``
    — the partial-read capability the whole showcase is about.

``RPSH`` — a sharded step: one extent per axis-0 shard, each itself an
    ``RPRC`` or ``RPMG`` container, so a region read touches only the
    shards covering it.

What the extents *mean* lives here: ``_decode`` is the one function
that turns container bytes into a field (the stream reader and
:func:`repro.cluster.sharded.decode_shard` both call it), ``_verify``
its decode-free twin for ``repro-verify``; both go by the embedded magic.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .. import frame
from ..compress.fileio import load_compressed
from ..compress.mgard import MgardCompressor
from ..core.classes import (
    CoefficientClasses,
    class_sizes,
    reconstruct_from_classes,
)
from ..core.grid import TensorHierarchy, hierarchy_for
from ..errors import ContainerError
from .publish import atomic_publish

__all__ = [
    "RefactoredFileReader",
    "ShardedFileReader",
    "write_refactored",
    "write_refactored_stream",
    "write_sharded_stream",
    "ContainerError",
]

# ContainerError itself lives in repro.errors (re-exported here) so
# repro.compress.fileio can subclass it without an import cycle.


def _class(fr: frame.Frame, l: int, verify: bool = True) -> np.ndarray:
    """Class ``l`` of a parsed ``RPRC`` frame.

    Reading a class out of a *file* is the ``container.read.class <l>``
    fault site; classes of an in-memory container are not.
    """
    site = None if fr.path is None else f"container.read.class {l}"
    raw = fr.extent(l, verify, site)
    if len(raw) % 8:
        raise ContainerError(
            f"class {l} in {fr.name} is {len(raw)} bytes, not whole float64s"
        )
    return np.frombuffer(raw, dtype=np.float64).copy()


def _classes(fr: frame.Frame, k: int | None = None, verify: bool = True) -> list[np.ndarray]:
    """The first ``k`` classes (all when ``None``) of an ``RPRC`` frame."""
    n = len(fr.rows)
    k = n if k is None else k
    if not 1 <= k <= n:
        raise ContainerError(f"k must be in [1, {n}], got {k}")
    return [_class(fr, l, verify) for l in range(k)]


def _decode(source, k: int | None = None, scratch: dict | None = None, executor=None) -> np.ndarray:
    """Container bytes (path, stream, bytes-like) → the field they hold.

    An ``RPRC`` container reconstructs from its first ``k`` classes, an
    ``RPMG`` blob decompresses (``scratch`` replays a stream's code-book
    chain).  Bytes that pass the frame checks can still be junk to the
    codecs — a flipped header field reaches ``zlib``, ``np.dtype`` or a
    dict lookup — and whatever they throw is re-raised as a chained
    :class:`ContainerError`: "this step is poison" is one condition to
    every recovery path.  ``OSError`` (the file is gone), ``MemoryError``
    and every ``BaseException`` pass through.
    """
    fr = frame.parse(source)
    try:
        if fr.magic == frame.RPMG:
            blob, hier = load_compressed(fr)
            comp = MgardCompressor(hier, blob.tol, mode=blob.mode, executor=executor)
            return comp.decompress(blob, scratch=scratch)
        if fr.magic == frame.RPRC:
            hier = hierarchy_for(tuple(fr.header["shape"]))
            return reconstruct_from_classes(_classes(fr, k), hier)
        raise ContainerError(f"{fr.name} is a sharded step; decode its shards")
    except (ContainerError, OSError, MemoryError):
        raise
    except Exception as e:
        raise ContainerError(
            f"{fr.name} undecodable ({type(e).__name__}: {e})"
        ) from e


def _verify(source) -> frame.Frame:
    """Read every extent of a container against its CRC, header schema
    included, recursing into the containers a sharded step embeds."""
    fr = frame.parse(source)
    if fr.magic == frame.RPSH:
        for i in range(len(fr.rows)):
            _verify(fr.extent(i))
    elif fr.magic == frame.RPMG:
        load_compressed(fr)
    else:
        _classes(fr)
    return fr


def write_refactored_stream(f, cc: CoefficientClasses, attrs: dict | None = None) -> int:
    """Serialize a container into an open binary stream; returns bytes.

    The streaming form lets the stream writer *encode* a step into
    memory (``io.BytesIO``) before its commit owns the disk write.
    """
    blobs = [np.ascontiguousarray(v, dtype=np.float64).tobytes() for v in cc.classes]
    header = {
        "shape": list(cc.hier.shape),
        "dtype": "<f8",
        "n_classes": cc.n_classes,
        "classes": [
            {**row, "count": int(v.size)}
            for row, v in zip(frame.table(blobs), cc.classes)
        ],
        "attrs": attrs or {},
    }
    return frame.emit(f, frame.RPRC, header, blobs)


class RefactoredFileReader:
    """Read class prefixes (or single classes) out of a container file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._frame = frame.parse(self.path, want=frame.RPRC)
        self.header = self._frame.header

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.header["shape"])

    @property
    def n_classes(self) -> int:
        return len(self._frame.rows)

    @property
    def attrs(self) -> dict:
        return dict(self.header["attrs"])

    def class_nbytes(self) -> list[int]:
        return [int(c["nbytes"]) for c in self._frame.rows]

    def read_class(self, l: int, verify: bool = True) -> np.ndarray:
        """Read a single coefficient class."""
        return _class(self._frame, l, verify)

    def read_classes(self, k: int | None = None, verify: bool = True) -> list[np.ndarray]:
        """Read the first ``k`` classes (all when ``None``) — a prefix read.

        A ``k`` outside ``[1, n_classes]`` is the caller's error
        (``ValueError``), raised before any extent is read.
        """
        if k is not None and not 1 <= k <= self.n_classes:
            raise ValueError(f"k must be in [1, {self.n_classes}], got {k}")
        return _classes(self._frame, k, verify)

    def to_coefficient_classes(
        self, hier: TensorHierarchy | None = None
    ) -> CoefficientClasses:
        """Reassemble a full :class:`CoefficientClasses` (all classes)."""
        hier = hier if hier is not None else hierarchy_for(self.shape)
        if hier.shape != self.shape:
            raise ContainerError(
                f"hierarchy shape {hier.shape} does not match file {self.shape}"
            )
        classes = self.read_classes()
        expected = class_sizes(hier)
        if [c.size for c in classes] != expected:
            raise ContainerError("class sizes in file do not match the hierarchy")
        return CoefficientClasses(hier, classes)


def write_refactored(path: str | Path, cc: CoefficientClasses, attrs: dict | None = None) -> int:
    """Write all classes into a container file; returns total bytes written.

    Encodes into memory, then publishes atomically (unique temp +
    ``os.replace``) so a reader racing the write — or a crash mid-write
    — never sees a torn container under the final name.  Fault sites:
    ``container.write.{pre_tmp,post_tmp,file}``.
    """
    buf = io.BytesIO()
    nbytes = write_refactored_stream(buf, cc, attrs=attrs)
    atomic_publish(Path(path), buf.getvalue(), "rename", "container.write")
    return nbytes


# ----------------------------------------------------------------------
# sharded step containers: one step = a table of shard segments


def write_sharded_stream(
    f,
    shape: tuple[int, ...],
    payload_mode: str,
    bounds,
    payloads,
    attrs: dict | None = None,
) -> int:
    """Serialize shard segments into one sharded step container.

    ``bounds`` is the per-shard ``(start, stop)`` row range along axis
    0 and ``payloads`` the matching self-contained shard containers
    (``.rprc`` bytes for ``payload_mode="refactored"``, ``.mgz`` bytes
    for ``"compressed"``).  The header's shard table records offsets,
    sizes, row ranges, and CRC32s, so a region read seeks straight to
    the shards covering a sub-volume and never touches the rest.
    """
    if len(bounds) != len(payloads):
        raise ValueError("one payload per shard bound required")
    header = {
        "shape": list(shape),
        "axis": 0,
        "mode": payload_mode,
        "shards": [
            {"start": int(start), "stop": int(stop), **row}
            for (start, stop), row in zip(bounds, frame.table(payloads))
        ],
        "attrs": attrs or {},
    }
    return frame.emit(f, frame.RPSH, header, payloads)


class ShardedFileReader:
    """Read shard segments (or the subset covering a region) of a step."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._frame = frame.parse(self.path, want=frame.RPSH)
        self.header = self._frame.header

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.header["shape"])

    @property
    def payload_mode(self) -> str:
        return str(self.header["mode"])

    @property
    def n_shards(self) -> int:
        return len(self._frame.rows)

    @property
    def attrs(self) -> dict:
        return dict(self.header["attrs"])

    def shard_bounds(self) -> list[tuple[int, int]]:
        """Per-shard ``(start, stop)`` row ranges along axis 0."""
        try:
            bounds = [(s["start"], s["stop"]) for s in self._frame.rows]
        except (KeyError, TypeError) as e:
            raise ContainerError(f"malformed shard table in {self.path}") from e
        if any(type(v) is not int for ab in bounds for v in ab):
            raise ContainerError(f"malformed shard table in {self.path}: {bounds}")
        return bounds

    def shards_covering(self, row_start: int, row_stop: int) -> list[int]:
        """Indices of the shards intersecting rows ``[row_start, row_stop)``."""
        return [
            i
            for i, (a, b) in enumerate(self.shard_bounds())
            if a < row_stop and b > row_start
        ]

    def read_shard(self, i: int, verify: bool = True) -> bytes:
        """One shard's self-contained container bytes (a ranged read)."""
        return self._frame.extent(i, verify, f"container.read.shard {i}")
