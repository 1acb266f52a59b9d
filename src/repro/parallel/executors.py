"""The three interchangeable executor backends behind one interface.

The paper hides the refactoring cost behind concurrency (CUDA streams
on the device, pipelined I/O across the workflow); this package applies
the same treatment to every host-side fan-out — per-class entropy
segments, zlib sub-blocks, Huffman sync-block ranges, shards.  A fan-out point takes an *executor* and schedules through its
one primitive, ``map``, handing every job its own slice of the data as
an ndarray view (zero-copy inline and on threads, pickled as a copy of
just that slice across a process boundary); which backend runs the
units never changes the bytes they emit, and no call site asks which
backend it was handed:

``SerialExecutor``
    Runs work inline on the calling thread.  The default, and the
    byte-for-byte reference every other backend must match.

``ThreadExecutor``
    A shared :class:`concurrent.futures.ThreadPoolExecutor`.  Threads
    suit the encode path: the heavy kernels (zlib deflate, bulk
    NumPy ops) release the GIL, so work units genuinely overlap.

``ProcessExecutor``
    A :class:`concurrent.futures.ProcessPoolExecutor`-backed pool for
    the work the GIL never releases — the lockstep Huffman decode's
    small-vector loop above all.  Its workers live in another address
    space, so every job's arguments are pickled: a job carries its own
    slice, never the whole operand.  ``map`` degrades transparently:
    work that cannot cross a process boundary (closures, unpicklable
    state) runs inline instead, so the backend is always *safe* to
    select ambiently and accelerates the call sites that ship
    module-level work units.

Selection is explicit (pass an executor or a spec) or ambient:
:func:`get_executor` resolves ``None`` through
:func:`set_default_executor` and the ``REPRO_EXECUTOR`` environment
variable.  Specs: ``serial``, ``thread[:N]`` (alias ``parallel``),
``process[:N]``, ``auto``.

A field's refactoring walk recruits the shared ``thread`` pool's idle
workers (``core.native``), except on a pool worker (:func:`on_worker`):
a shard, an offloaded decode or a Fig. 9 rank runs alone.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import pickle
import threading
import time

from .. import faults

__all__ = [
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "set_default_executor",
    "default_spec",
    "available_workers",
]

_ENV_KNOB = "REPRO_EXECUTOR"
_worker = threading.local()  # .on: set by the pools' initializers


def _mark_worker() -> None:
    _worker.on = True


def on_worker() -> bool:
    """Whether the calling thread runs the jobs of a pool built here."""
    return getattr(_worker, "on", False)


def available_workers() -> int:
    """Worker count ``auto`` resolves to (the cores *this process* may
    use — CPU affinity / cgroup pinning respected where the platform
    exposes it, so containers don't oversubscribe)."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # platforms without sched_getaffinity
        return max(os.cpu_count() or 1, 1)


class SerialExecutor:
    """Inline executor: ``map`` runs on the calling thread, in order."""

    max_workers = 1

    def map(self, fn, *iterables) -> list:
        return [fn(*args) for args in zip(*iterables)]

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Run ``fn`` inline; returns an already-resolved future.

        Interface symmetry with the pooled backends so async callers
        (the service's decode offload wraps ``submit`` futures with
        ``asyncio.wrap_future``) can take any executor — under the
        serial backend the work simply runs on the calling thread.
        """
        fut: concurrent.futures.Future = concurrent.futures.Future()
        try:
            fut.set_result(fn(*args))
        except BaseException as e:  # noqa: BLE001 - mirrored to the future
            fut.set_exception(e)
        return fut

    def prime(self) -> None:
        """No pool to warm; kept for interface symmetry."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadExecutor:
    """Thread-pool executor for GIL-releasing encode/decode work units.

    The pool is created lazily on first use and shared by every call;
    ``map`` preserves submission order, so any fan-out scheduled through
    it reassembles deterministically regardless of completion order.
    """

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or available_workers()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            with self._lock:
                if self._pool is None:
                    self._pool = concurrent.futures.ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-encode",
                        initializer=_mark_worker,
                    )
        return self._pool

    def map(self, fn, *iterables) -> list:
        return list(self._ensure_pool().map(fn, *iterables))

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Schedule one call on the pool; returns its future.

        The service's event loop offloads blocking decodes here
        (``asyncio.wrap_future(executor.submit(...))``), keeping the
        loop responsive while NumPy-heavy work runs GIL-released.
        """
        return self._ensure_pool().submit(fn, *args)

    def prime(self) -> None:
        """Create the pool now instead of lazily on first ``map``."""
        self._ensure_pool()

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadExecutor(max_workers={self.max_workers})"


def _picklable(fn) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


class _KillMarked:
    """Picklable work-function wrapper carrying injected worker kills.

    The parent decides *which* job indices die
    (:func:`repro.faults.kill_indices` — deterministic, seeded) and
    ships one boolean per job; a marked job ``os._exit``\\ s its worker
    mid-batch, which is exactly what an OOM kill or a segfault looks
    like to the pool: :class:`BrokenProcessPool` on the whole batch.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, kill, *args):
        if kill:
            os._exit(113)
        return self.fn(*args)


def _exit_with_parent() -> None:
    """Pool-worker initializer: mark it (:func:`on_worker`); die when the parent does.

    A parent that is SIGKILLed runs no ``atexit`` hook and sends no
    shutdown message, and a pool worker blocks on its call queue for
    ever — with the pool primed at start-up, every killed service would
    leave its workers behind.  ``parent_process().sentinel`` becomes
    ready when the parent is gone, under every start method.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    _mark_worker()
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(
        target=lambda: (wait([sentinel]), os._exit(1)), daemon=True
    ).start()


class ProcessExecutor:
    """Process-pool executor for GIL-bound work units.

    Work functions must be picklable (module-level functions whose
    arguments are each job's own slice); anything else runs inline,
    preserving correctness at zero concurrency.  ``map`` preserves
    submission order.  The pool forks lazily on first real use
    (spawn where fork is unavailable) and is shared by every call.

    **Recovery policy:** a broken pool (a worker killed under it — OOM
    killer, segfault, injected fault) fails the whole in-flight batch
    with :class:`BrokenProcessPool`.  Work units scheduled here are
    pure functions of their arguments, so the batch is safely
    re-runnable: the pool is torn down and **rebuilt**, and the batch
    retried up to ``max_retries`` times with exponential backoff
    (``backoff_s`` doubling per attempt) before degrading to a single
    inline run — bounded persistence instead of the permanent
    serial-forever degradation a one-shot fallback would impose on a
    long-running service.  ``stats`` counts ``broken_pools``,
    ``rebuilds``, and ``inline_fallbacks`` so chaos benchmarks (and
    operators) can see the policy working.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        max_retries: int = 2,
        backoff_s: float = 0.05,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_workers = max_workers or available_workers()
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.stats = {"broken_pools": 0, "rebuilds": 0, "inline_fallbacks": 0}
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._atexit_registered = False

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            with self._lock:
                if self._pool is None:
                    import multiprocessing

                    # fork() is only safe while this process is still
                    # single-threaded: forking under sibling threads (a
                    # server's worker reaching its first codec fan-out)
                    # snapshots their locks in the locked state and can
                    # deadlock the children.  Single-threaded, fork is
                    # preferred — it needs no __main__ re-import, so
                    # REPL/stdin scripts work; otherwise fall back to
                    # fork-from-a-clean-server (or spawn).  The
                    # single-threaded check is only sound on >= 3.11,
                    # where a fork-context pool starts all its workers
                    # at its first submit (gh-90622) — which follows
                    # at once in map/submit/prime; 3.10 forks them one
                    # by one on later submits, when threads may exist.
                    import sys

                    methods = multiprocessing.get_all_start_methods()
                    if (
                        "fork" in methods
                        and sys.version_info >= (3, 11)
                        and threading.active_count() == 1
                    ):
                        method = "fork"
                    else:
                        for method in ("forkserver", "spawn"):
                            if method in methods:
                                break
                    ctx = multiprocessing.get_context(method)
                    self._pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=self.max_workers,
                        mp_context=ctx,
                        initializer=_exit_with_parent,
                    )
                    # join the workers before interpreter teardown; a
                    # pool reaped during module clearing spews weakref
                    # callbacks into a half-dismantled runtime.  One
                    # hook serves every pool this executor builds; one
                    # per rebuild would grow with a service's uptime.
                    if not self._atexit_registered:
                        atexit.register(self.shutdown)
                        self._atexit_registered = True
        return self._pool

    def map(self, fn, *iterables) -> list:
        jobs = list(zip(*iterables))
        if len(jobs) <= 1 or not _picklable(fn):
            return [fn(*args) for args in jobs]
        delay = self.backoff_s
        for attempt in range(self.max_retries + 1):
            # re-drawn per attempt: a count-limited kill fault exhausts
            # its budget and the retried batch goes through clean
            kills = faults.kill_indices("executor.process.map", len(jobs))
            try:
                pool = self._ensure_pool()
                if kills:
                    marked = _KillMarked(fn)
                    futs = [pool.submit(marked, i in kills, *a) for i, a in enumerate(jobs)]
                else:
                    futs = [pool.submit(fn, *a) for a in jobs]
                return [f.result() for f in futs]
            except concurrent.futures.process.BrokenProcessPool:
                # no future is cancelled (as Executor.map would): the broken
                # pool's manager thread fails each itself, and dies if one
                # was cancelled meanwhile; shutdown() joins it
                self.stats["broken_pools"] += 1
                self.shutdown()
                if attempt < self.max_retries:
                    self.stats["rebuilds"] += 1
                    time.sleep(delay)
                    delay *= 2
                    continue
                # retries exhausted: keep the caller alive at zero
                # concurrency (kill marks never apply inline — they
                # simulate *worker* deaths, not the coordinator's)
                self.stats["inline_fallbacks"] += 1
                return [fn(*args) for args in jobs]
            except RuntimeError:
                # a sibling thread observed the pool break and tore it
                # down between our _ensure_pool() and map() ("cannot
                # schedule new futures after shutdown"); work units are
                # pure, so rerun inline — a genuine RuntimeError from fn
                # re-raises here
                return [fn(*args) for args in jobs]

    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Schedule one call on the pool (inline future when ``fn``
        cannot cross a process boundary — same degradation as ``map``)."""
        if not _picklable(fn):
            fut: concurrent.futures.Future = concurrent.futures.Future()
            try:
                fut.set_result(fn(*args))
            except BaseException as e:  # noqa: BLE001 - mirrored to the future
                fut.set_exception(e)
            return fut
        return self._ensure_pool().submit(fn, *args)

    def prime(self) -> None:
        """Fork/spawn the worker pool *now*.

        The lazy first-use fork prefers plain ``fork()`` only while the
        process is single-threaded; a caller that encodes from worker
        threads (the service's ``put_step``) would therefore pay the
        slower forkserver/spawn path (plus its import replay) inside its
        first request.  Priming from the main thread — before any worker
        threads exist — keeps the fast fork and moves the pool start-up
        cost out of every request.

        Building the pool starts no process (the workers come up at its
        first submit), so one trivial job per worker is submitted and
        awaited: the workers exist when this returns.
        """
        pool = self._ensure_pool()
        for fut in [pool.submit(os.getpid) for _ in range(self.max_workers)]:
            fut.result()

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(max_workers={self.max_workers})"


_default_spec: str | None = None
_instances: dict[tuple[str, int | None], object] = {}
_instances_lock = threading.Lock()

_KINDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}

# a forked child has none of the cached pools' threads or workers: it builds its own
os.register_at_fork(before=_instances_lock.acquire, after_in_parent=_instances_lock.release,
                    after_in_child=lambda: (_instances.clear(), _instances_lock.release()))


def set_default_executor(spec: str | None) -> None:
    """Set the ambient executor spec (overrides ``REPRO_EXECUTOR``).

    Pass ``None`` to fall back to the environment variable again.
    """
    global _default_spec
    if spec is not None:
        _parse_spec(spec)  # validate eagerly
    _default_spec = spec


def _parse_spec(spec: str) -> tuple[str, int | None]:
    spec = spec.strip().lower()
    if spec in ("", "serial"):
        return "serial", None
    if spec == "auto":
        return ("thread", None) if available_workers() > 1 else ("serial", None)
    kind, sep, count = spec.partition(":")
    if kind == "parallel":  # pre-refactor alias for the thread backend
        kind = "thread"
    if kind in ("thread", "process"):
        if not sep:
            return kind, None
        try:
            n = int(count)
        except ValueError:
            raise ValueError(f"bad executor spec {spec!r}: worker count not an int")
        if n < 1:
            raise ValueError(f"bad executor spec {spec!r}: need >= 1 worker")
        return kind, n
    raise ValueError(
        f"unknown executor spec {spec!r}; use 'serial', 'thread[:N]' "
        "(alias 'parallel'), 'process[:N]', or 'auto'"
    )


def default_spec() -> str:
    """The ambient executor spec a ``None`` request resolves to."""
    if _default_spec is not None:
        return _default_spec
    return os.environ.get(_ENV_KNOB, "serial")


def get_executor(spec=None):
    """Resolve an executor spec to a (shared) executor instance.

    ``None`` falls through :func:`set_default_executor`, then the
    ``REPRO_EXECUTOR`` environment variable, then ``serial``.  Instances
    are cached per (kind, resolved worker count), so repeated resolution
    reuses one pool, and ``auto``, ``thread`` and ``thread:N`` with N =
    :func:`available_workers` are one instance.  An executor instance is
    returned as is, so every ``executor=`` argument takes a spec or an
    instance.
    """
    if spec is None:
        spec = default_spec()
    elif not isinstance(spec, str):
        return spec
    kind, workers = _parse_spec(spec)
    if kind != "serial":
        workers = workers or available_workers()
    with _instances_lock:
        inst = _instances.get((kind, workers))
        if inst is None:
            cls = _KINDS[kind]
            inst = cls() if kind == "serial" else cls(workers)
            _instances[kind, workers] = inst
        return inst
