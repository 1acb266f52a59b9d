"""The one durable-commit primitive of the I/O layer.

Every file this package publishes — stream step containers, the stream
manifest, standalone refactored containers — lands through
:func:`atomic_publish`: a collision-free temp write followed by an
atomic ``os.replace``, so a concurrent reader (or a crash at any
instruction) never observes a half-written file under the final name.  The ``atomic-publish`` repro-lint rule enforces that
no other function in ``repro/io`` creates or overwrites a file at all.

Extracted from ``repro.io.stream`` (which re-exports it) so
``repro.io.container`` can use the same primitive without importing the
stream layer — stream already imports container, and a cycle here would
be exactly the kind of edge the ``import-boundary`` rule exists to
keep out.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

from .. import faults

__all__ = ["atomic_publish", "fsync_dir", "unique_tmp"]

#: process-unique suffix counter for temp names (see :func:`unique_tmp`)
_TMP_COUNTER = itertools.count()


def unique_tmp(dst: Path) -> Path:
    """A collision-free temp path next to ``dst``.

    ``<name>.<pid>.<seq>.tmp``: unique across writer processes sharing
    a root (pid) and across commits within one process (seq), so a
    crashed predecessor's stale ``.tmp`` can never be half-overwritten
    by — or renamed under — a live commit.  Stale temps are swept on
    writer open.
    """
    return dst.parent / f"{dst.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_publish(dst: Path, payload: bytes, durability: str, site: str) -> None:
    """Publish ``payload`` at ``dst`` via unique-temp write + atomic rename.

    The one commit primitive of the I/O layer (stream step files, the
    manifest and standalone containers all go through it).
    ``durability="fsync"`` fsyncs the temp file before the rename and
    the parent directory after it, so a completed publish survives
    power loss; ``"rename"`` (the default) guarantees only atomicity —
    a crashed *machine* may lose or truncate the file, which is exactly
    what the ``{site}.file`` corruption fault simulates.  Crash points:
    ``{site}.pre_tmp`` (nothing on disk yet), ``{site}.post_tmp``
    (stale temp left behind).  A fault-injected crash leaves the same
    artifacts a real ``kill -9`` would.
    """
    # reprolint: site stream.step.pre_tmp stream.manifest.pre_tmp container.write.pre_tmp
    faults.crash_point(f"{site}.pre_tmp")
    tmp = unique_tmp(dst)
    with open(tmp, "wb") as f:
        f.write(payload)
        if durability == "fsync":
            f.flush()
            os.fsync(f.fileno())
    # reprolint: site stream.step.post_tmp stream.manifest.post_tmp container.write.post_tmp
    faults.crash_point(f"{site}.post_tmp")
    os.replace(tmp, dst)  # atomic on POSIX
    if durability == "fsync":
        fsync_dir(dst.parent)
    # reprolint: site stream.step.file stream.manifest.file container.write.file
    faults.corrupt_file(f"{site}.file", dst)
