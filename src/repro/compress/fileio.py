"""On-disk format for compressed data (the ``.mgz`` files of repro-tool).

An ``RPMG`` instance of the one container frame (:mod:`repro.frame`;
DESIGN.md, "On-disk formats"): the JSON header carries shape,
tolerance, quantizer metadata and the entropy stage's headers, the
extent table (``extents``) one CRC32'd row per class payload.
Self-contained: decompression needs nothing but the file (the hierarchy
is rebuilt from the shape; non-uniform coordinates, when used, are
embedded in the header).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import frame
from ..core.grid import TensorHierarchy, hierarchy_for
from ..errors import ContainerError
from .lossless import materialize_classes_header
from .mgard import CompressedData

__all__ = ["save_compressed", "load_compressed", "CompressedFileError"]


class CompressedFileError(ContainerError):
    """Malformed compressed file.

    A :class:`~repro.errors.ContainerError`, so stream-level recovery
    (step quarantine, partial-shard region reads, the scrub CLI)
    handles corrupt ``.mgz`` steps and corrupt refactored containers
    through one ``except`` clause.
    """


def save_compressed(
    path: str | Path,
    blob: CompressedData,
    coords: tuple[np.ndarray, ...] | None = None,
    materialize: bool = True,
) -> int:
    """Write a :class:`CompressedData` to disk; returns bytes written.

    By default every segment header is *materialized* — made
    self-contained — so the file decodes on its own; a blob whose
    headers reference code books shipped by earlier steps has no chain
    to resolve them against here, and is refused with ``ValueError``.
    Stream containers that keep their own chain on disk pass
    ``materialize=False``.

    ``path`` may also be an open binary stream (e.g. ``io.BytesIO``),
    which is how the stream writer serializes a step in memory before
    its commit owns the disk write.
    """
    headers = blob.headers
    if materialize:
        headers = [materialize_classes_header(h) for h in headers]
    header = {
        "shape": list(blob.shape),
        "tol": blob.tol,
        "mode": blob.mode,
        "steps": blob.steps,
        "headers": headers,
        "extents": frame.table(blob.payloads),
        "coords": None if coords is None else [c.tolist() for c in coords],
    }
    if hasattr(path, "write"):
        return frame.emit(path, frame.RPMG, header, blob.payloads)
    with open(Path(path), "wb") as f:
        return frame.emit(f, frame.RPMG, header, blob.payloads)


def load_compressed(source) -> tuple[CompressedData, TensorHierarchy]:
    """Read a compressed container back into (blob, matching hierarchy).

    ``source`` may be a path, an open binary stream, or a bytes-like
    payload — the latter two are how shard segments embedded in a
    sharded step container decode without touching the filesystem.
    Every payload read is the ``fileio.read.payload`` fault site.
    """
    try:
        fr = frame.parse(source, want=frame.RPMG)
        payloads = [
            fr.extent(i, site="fileio.read.payload") for i in range(len(fr.rows))
        ]
    except ContainerError as e:
        raise CompressedFileError(str(e)) from e
    header = fr.header
    try:
        shape = tuple(header["shape"])
        coords = header.get("coords")
        hier = hierarchy_for(
            shape,
            None if coords is None else tuple(np.asarray(c) for c in coords),
        )
        blob = CompressedData(
            payloads=payloads,
            headers=header["headers"],
            steps=list(header["steps"]),
            shape=shape,
            tol=float(header["tol"]),
            mode=str(header["mode"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        # valid JSON, wrong schema: an overwritten or bit-flipped header
        raise CompressedFileError(f"malformed header in {fr.name}: {e}") from e
    return blob, hier
