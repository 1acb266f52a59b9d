"""Shared-memory transport for operands that cross a process boundary.

A :class:`ProcessExecutor` worker lives in another address space, so a
fan-out cannot hand it a live NumPy array or payload buffer by
reference the way the thread pool does.  Instead
:meth:`ProcessExecutor.map_shared` *stages* the operand once in a
``multiprocessing.shared_memory`` segment and ships each job a tiny
picklable **ref** (segment name, shape, dtype); the worker attaches,
computes, and returns only its (fresh) result.  Pickling traffic is
therefore proportional to the number of work units, not to the operand
size.  That method is this module's one client and the only staging
site in the tree: every segment is created and destroyed inside its
``try``/``finally``, and the entropy coders and the shard fan-out never
import this module.

Two staging helpers:

* :func:`share_array` — stage a NumPy array; the ref reopens it as an
  identically-shaped read-only view in the worker.
* :func:`share_bytes` — stage a bytes-like payload; the ref reopens it
  as a memoryview.

Both return ``(ref, block)``; the parent must keep ``block`` alive for
the duration of the fan-out and call :meth:`SharedBlock.destroy` in a
``finally`` once every worker has returned.  When the platform has no
usable shared memory (no ``/dev/shm``, exhausted segments), staging
raises :class:`ShmUnavailable` and the caller runs in-process.

CPython < 3.13 registers *attached* segments with the resource tracker
as if the worker owned them (gh-82300), which makes the tracker unlink
segments it never created and warn about "leaked" ones at shutdown.
:func:`attach` suppresses that registration — ownership stays with the
creating process, which is the only one that unlinks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShmUnavailable",
    "SharedBlock",
    "Lease",
    "ArrayRef",
    "BytesRef",
    "share_array",
    "share_bytes",
    "attach",
]


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be allocated on this platform/configuration."""


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


_attach_lock = threading.Lock()


def attach(name: str):
    """Attach to an existing segment without resource-tracker tracking.

    Attaching registers the segment with the worker's resource tracker
    on CPython < 3.13 (gh-82300), so a pool worker exiting would unlink
    a segment the parent still owns and the tracker would warn about
    phantom leaks.  Registration is suppressed for the duration of the
    attach; the creating process remains the sole owner.  The patch is
    serialized: concurrent attaches (a broken pool's inline fallback
    running on parent threads) must not capture each other's no-op as
    the original.
    """
    shared_memory = _shared_memory()
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - non-CPython
        return shared_memory.SharedMemory(name=name)
    with _attach_lock:
        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


class SharedBlock:
    """Parent-side handle of one staged segment (owns its lifetime)."""

    def __init__(self, shm):
        self._shm = shm

    @property
    def name(self) -> str:
        return self._shm.name

    def destroy(self) -> None:
        """Release the mapping and unlink the segment."""
        try:
            self._shm.close()
        finally:
            self._shm.unlink()


class Lease:
    """Worker-side attachment of one staged segment.

    Access the operand through :attr:`view` *without binding it to a
    local that outlives the lease*: pass ``lease.view`` (or a temporary
    slice of it) straight into the consuming call, then ``close()`` in
    a ``finally``.  The mmap refuses to unmap while buffer exports
    exist, so any surviving view or slice at close time is a bug — it
    raises ``BufferError`` rather than silently pinning the segment.
    """

    def __init__(self, shm, view):
        self._shm = shm
        self.view = view

    def close(self) -> None:
        view, self.view = self.view, None
        if isinstance(view, memoryview):
            view.release()
        del view
        self._shm.close()


@dataclass(frozen=True)
class ArrayRef:
    """Picklable descriptor of a staged NumPy array."""

    name: str
    shape: tuple
    dtype: str

    def open(self) -> Lease:
        """Attach in a worker; ``lease.view`` is the read-only array."""
        shm = attach(self.name)
        arr = np.frombuffer(
            shm.buf, dtype=np.dtype(self.dtype), count=int(np.prod(self.shape, dtype=np.int64))
        ).reshape(self.shape)
        arr.flags.writeable = False
        return Lease(shm, arr)


@dataclass(frozen=True)
class BytesRef:
    """Picklable descriptor of a staged bytes payload."""

    name: str
    nbytes: int

    def open(self) -> Lease:
        """Attach in a worker; ``lease.view`` is the payload memoryview."""
        shm = attach(self.name)
        return Lease(shm, shm.buf[: self.nbytes])


def _create(size: int):
    try:
        return _shared_memory().SharedMemory(create=True, size=max(int(size), 1))
    except (OSError, ValueError, ImportError) as e:
        raise ShmUnavailable(f"cannot allocate shared memory: {e}") from e


def share_array(arr: np.ndarray) -> tuple[ArrayRef, SharedBlock]:
    """Stage an array in shared memory; returns (worker ref, owner handle)."""
    arr = np.ascontiguousarray(arr)
    shm = _create(arr.nbytes)
    if arr.nbytes:
        dst = np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size).reshape(arr.shape)
        np.copyto(dst, arr)
        del dst
    return ArrayRef(shm.name, tuple(arr.shape), arr.dtype.str), SharedBlock(shm)


def share_bytes(payload) -> tuple[BytesRef, SharedBlock]:
    """Stage a bytes-like payload; returns (worker ref, owner handle)."""
    payload = memoryview(payload)
    shm = _create(payload.nbytes)
    if payload.nbytes:
        shm.buf[: payload.nbytes] = payload
    ref = BytesRef(shm.name, payload.nbytes)
    payload.release()
    return ref, SharedBlock(shm)

