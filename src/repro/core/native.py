"""The compiled kernel backend: policy, loader and the C calls (``native.c``).

The paper's contribution is hand-optimized kernels for the three
refactoring operations, launched back to back with no host round trip
between levels; on the host that is one C call per field and direction
(:func:`refactor`, taken inside ``decompose`` / ``recompose``), which walks
every level of the hierarchy from the table ``TensorHierarchy.refactor_walk``
builds once.  The class walks (:func:`class_walk`, with the quantizer fused
in, and the de-quantizer fused into a scatter or into the stream writer's
running sum of coefficients) take the same route.  Each of those functions
asks this module first: when the policy allows it, the library is loaded
and the operands are native-endian, aligned float32/float64 arrays, the
loop runs in C; otherwise (float16, longdouble, byte-swapped input, no
compiler) the function's own NumPy body runs.  Both give the same bits:
the C performs the same operations in the same order, with contraction off.

Once those are fast the entropy stage is what is left, so its integer
loops take the same route from inside :mod:`repro.compress`: the Huffman
decode walk (:func:`huff_decode`), a segment's whole encode — its
histogram, the reuse guard read off it, a book built from it where the
guard trips, and the codes, in one call (:func:`huff_segment`) — and the
code-length merge (:func:`huff_lengths`).
There is nothing to round in them, so equal results need no argument
beyond equal loops; what they need is bounds, and every pointer handed
over here is sized and range-checked first.

Policy (``REPRO_KERNEL_BACKEND`` / ``--kernel-backend`` /
:func:`set_kernel_backend`): ``reference`` — NumPy bodies only;
``native`` — C, with one ``RuntimeWarning`` per process and the NumPy
bodies when the library cannot be had; ``auto`` (default) — C whenever
available, silently NumPy otherwise.

``native.c`` ships as package data and is compiled once per
``sha256(source, flags, cc --version, machine)`` with ``cc -O3
-ffp-contract=off -shared`` into a private directory: beside the file
``$REPRO_TUNE_CACHE`` names when it is set, else under the user cache
directory.  The directory is created mode 0700 and must belong to the
caller before anything in it is ``dlopen``-ed; a build goes to a unique
temporary name, is sealed with a digest of its own bytes (checked before
``dlopen``, which faults on a truncated file) and is published with
``os.replace``.  A freshly loaded library is checked against the NumPy
bodies — decompositions and recompositions and the class walks on (5, 6)
and (3, 5, 6) grids, its Huffman entries against an eleven-symbol stream
and the NumPy body's books —
before it is used.  Nothing here raises out of a leaf except the
correction's ``ValueError`` on non-finite input, which the NumPy body
raises too; every failure resolves to the NumPy bodies.

This is the only module that imports :mod:`ctypes`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from contextlib import contextmanager, suppress
from importlib import resources
from pathlib import Path

import numpy as np

from ..parallel.executors import available_workers, get_executor, on_worker

__all__ = [
    "VALID_POLICIES",
    "active",
    "available",
    "class_walk",
    "dequantize",
    "forced",
    "huff_decode",
    "huff_lengths",
    "huff_segment",
    "kernel_backend_policy",
    "library_path",
    "quantize",
    "set_kernel_backend",
    "supports",
]

VALID_POLICIES = ("reference", "native", "auto")

#: no reassociation, no reciprocal, no contraction: the bit-identity argument
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILERS = ("cc", "gcc", "clang")
_MAX_OUTER = 16  # native.c's MAXD
_TEAM_MIN = 1 << 15  # fewer nodes split into too few items to pay for a helper

_SUFFIX = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_U64 = np.dtype(np.uint64)

#: :func:`huff_decode`'s and :func:`huff_segment`'s status words (``native.c``'s ``HUFF_*``)
HUFF_TRUNCATED, HUFF_NO_MATCH, HUFF_BUILT, HUFF_TRIPPED = 1, 2, 4, 5


# ----------------------------------------------------------------------
# policy

_override: str | None = None
_local = threading.local()  # .policy: forced() on this thread; .candidate: a library under test


def set_kernel_backend(policy: str | None) -> None:
    """Set the process-wide backend policy (``None`` = back to env/auto)."""
    global _override
    if policy is not None and policy not in VALID_POLICIES:
        raise ValueError(f"kernel backend must be one of {VALID_POLICIES}, got {policy!r}")
    _override = policy


def kernel_backend_policy() -> str:
    """Active policy: :func:`forced` > override > ``REPRO_KERNEL_BACKEND`` > ``auto``."""
    forced_policy = getattr(_local, "policy", None)
    if forced_policy is not None:
        return forced_policy
    if _override is not None:
        return _override
    env = os.environ.get("REPRO_KERNEL_BACKEND", "auto")
    if env not in VALID_POLICIES:
        raise ValueError(f"REPRO_KERNEL_BACKEND must be one of {VALID_POLICIES}, got {env!r}")
    return env


@contextmanager
def forced(policy: str):
    """Run the leaves called from this thread under ``policy`` (the launcher's
    per-backend handles, the loader's self-check)."""
    if policy not in VALID_POLICIES:
        raise ValueError(f"kernel backend must be one of {VALID_POLICIES}, got {policy!r}")
    previous = getattr(_local, "policy", None)
    _local.policy = policy
    try:
        yield
    finally:
        _local.policy = previous


# ----------------------------------------------------------------------
# loader


class _Unavailable(Exception):
    """Why there is no library; becomes the warning's text."""


_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_path: Path | None = None
_tried = False
_reason = ""
_warned = False


def _reset() -> None:
    """Forget the loaded library and the warning latch (tests)."""
    global _lib, _path, _tried, _reason, _warned
    with _lock:
        _lib, _path, _tried, _reason, _warned = None, None, False, "", False


def source() -> bytes:
    """The C source, as shipped in the package."""
    return resources.files(__package__).joinpath("native.c").read_bytes()


def _compiler() -> tuple[str, bytes]:
    for name in _COMPILERS:
        cc = shutil.which(name)
        if cc is None:
            continue
        try:
            probe = subprocess.run([cc, "--version"], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(f"{cc} --version failed: {exc}") from None
        if probe.returncode != 0:
            raise _Unavailable(f"{cc} --version exited with status {probe.returncode}")
        return cc, probe.stdout
    raise _Unavailable(f"no C compiler on PATH (looked for {', '.join(_COMPILERS)})")


def build_key(src: bytes, version: bytes) -> str:
    """Name of the build: everything that decides the library's bytes."""
    h = hashlib.sha256()
    for part in (src, " ".join(CFLAGS).encode(), version, platform.machine().encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:32]


def _private_dir() -> Path:
    """The cache directory — ``repro-native/`` beside ``$REPRO_TUNE_CACHE``, else
    in the user cache — created 0700 and verified to be the caller's alone."""
    env = os.environ.get("REPRO_TUNE_CACHE")
    base = Path(env).parent if env else Path(
        os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"))
    path = base / "repro-native"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError as exc:
        raise _Unavailable(f"cache directory {path}: {exc}") from None
    if st.st_uid != os.geteuid() or st.st_mode & 0o022:
        raise _Unavailable(f"cache directory {path} is not private to uid {os.geteuid()}")
    return path


def _build(cc: str, src: bytes, target: Path) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem + ".", suffix=".part")
    except OSError as exc:
        raise _Unavailable(f"cache directory {target.parent}: {exc}") from None
    os.close(fd)
    try:
        proc = subprocess.run([cc, *CFLAGS, "-x", "c", "-", "-o", tmp], input=src,
                              capture_output=True, timeout=300)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise _Unavailable(f"{cc} exited with status {proc.returncode}: {' '.join(tail)}")
        with open(tmp, "rb+") as f:  # seal: a digest of the library after its last byte
            f.write(hashlib.sha256(f.read()).digest())
        os.replace(tmp, target)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise _Unavailable(f"building {target.name}: {exc}") from None
    finally:
        with suppress(FileNotFoundError):  # published, or never written
            os.unlink(tmp)


_P, _N = ctypes.c_void_p, ctypes.c_int64
_WALK = (_P, _P, _P, _N, ctypes.c_double)
_PROTOTYPES = {
    "walk_doubles": (_P, _N, _N),
    **{f"{w}_{s}": (_P, _P, _P, _P, _P, _P, _N, _P) for w in ("decompose", "recompose")
       for s in _SUFFIX.values()},
    **{f"quantize_{s}": (_P, _P, _P, _N) for s in _SUFFIX.values()},
    "dequantize": (_P, _P, _P, _N),
    **{f"{w}_{s}": _WALK for w in ("gather", "scatter", "quantize_gather") for s in _SUFFIX.values()},
    "dequantize_scatter_f64": _WALK,
    "dequantize_add_f64": _WALK,
    "huff_decode": (_P, _N, _P, _N, _N, _N, _P, _N, _P, _P, _N, _P, _P, _P, _P, _P, _P, _N),
    "huff_segment": (_P, _N, _N, _N, _N, _N, _P, _N, _P, _P, _P, _N, ctypes.c_double, _N, _N,
                     _P, _N, _P, _P, _N, _P, _P),
    "huff_lengths": (_P, _N, _P, _P),
}


def _sealed(path: Path) -> bool:
    """Whether ``path`` is a whole library as :func:`_build` published it.
    Checked before every ``dlopen``, which does not fail on a truncated
    file: it faults."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def _open(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
        for name, argtypes in _PROTOTYPES.items():
            fn = getattr(lib, name)
            # the quantizer's passes return nothing; every other entry a status word or a count
            fn.argtypes, fn.restype = argtypes, None if "quantize" in name and argtypes is not _WALK else _N
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"loading {path}: {exc}") from None
    if not _self_check(lib):
        raise _Unavailable(f"{path} disagrees with the NumPy bodies")
    return lib


@contextmanager
def _under_test(lib: ctypes.CDLL):
    """The leaves called from this thread take the C route into ``lib``."""
    _local.candidate = lib
    try:
        with forced("native"):
            yield
    finally:
        _local.candidate = None


def _self_check(lib: ctypes.CDLL) -> bool:
    """Every entry of ``lib`` against the NumPy bodies: both level walks of
    both dtypes — each must be taken — on a (5, 6) and a (3, 5, 6) non-uniform
    grid (odd and even axes, tail nodes, axes that stop coarsening, a batch
    before the first coarsening axis); the quantizer's passes; the class
    walks; the Huffman entries."""
    from .decompose import decompose, recompose  # they import this module
    from .grid import TensorHierarchy

    def agree(fn, *args, native_fn=None) -> bool:
        with forced("reference"):
            want = fn(*args)
        with _under_test(lib):
            got = (native_fn or fn)(*args)
        return (got is not None and got.dtype == want.dtype and got.shape == want.shape
                and np.array_equal(got, want))

    x = np.array([0.0, 0.11, 0.37, 0.52, 0.81, 1.0])
    hiers = [TensorHierarchy.from_shape(shape, tuple(x[:n] for n in shape))
             for shape in ((5, 6), (3, 5, 6))]
    for hier in hiers:
        values = np.sin(np.arange(1.0, 1.0 + np.prod(hier.shape))).reshape(hier.shape) * 3.7
        for dtype in _SUFFIX:
            v = values.astype(dtype)
            if not (agree(decompose, v, hier, native_fn=refactor)  # the walk must be taken
                    and agree(recompose, v, hier, native_fn=lambda a, h: refactor(a, h, inverse=True))):
                return False
            flat = v.ravel() * 1e3
            if not (agree(quantize, flat, np.linspace(0.5, 2.5, flat.size))
                    and agree(dequantize, np.arange(-9, 9), np.linspace(0.5, 2.5, 18))):
                return False
    with _under_test(lib):
        return _walks_self_check(hiers) and _huffman_self_check()


def _walks_self_check(hiers) -> bool:
    """The five class walks — each must be taken — on the (5, 6) and (3, 5, 6)
    hierarchies (a tail node, rows of coarse nodes), both dtypes, against the
    NumPy bodies."""
    from .classes import assemble_from_classes, extract_classes

    for hier in hiers:
        shape = hier.shape
        factors = np.linspace(0.5, 2.5, hier.L + 1)
        for dtype in _SUFFIX:
            field = (np.sin(np.arange(1.0, 1.0 + np.prod(shape))) * 37.0).reshape(shape).astype(dtype)
            with forced("reference"):
                classes = extract_classes(field, hier)
                bins = [quantize(c, np.full(c.size, f)) for c, f in zip(classes, factors)]
                deq = [dequantize(b, np.full(b.size, f)) for b, f in zip(bins, factors)]
                scattered, dequantized = (assemble_from_classes(c, hier) for c in (classes, deq))
                want = [*classes, *bins, scattered, dequantized, scattered + dequantized]
            got, n = [np.empty_like(a) for a in want], len(classes)
            got[-1][...] = scattered
            if not (class_walk("gather", field, got[:n], hier)
                    and class_walk("quantize", field, got[n:-3], hier, factors)
                    and class_walk("scatter", got[-3], classes, hier)
                    and class_walk("dequantize", got[-2], bins, hier, factors)
                    and class_walk("dequantize_add", got[-1], bins, hier, factors)
                    and all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))):
                return False
    return True


def _huffman_self_check() -> bool:
    """The three Huffman entries on the book of twenty Fibonacci weights — code
    lengths 1..19, the length-``L`` symbol ``L`` coded ``2**L - 2``, ESCAPE the
    second 19-bit code — against Python's integers: eleven symbols, two escaped,
    coded in six blocks of two through the dense table and by search, the guard
    tripped by one bit and by a missing ESCAPE, and decoded four abreast, one
    more and a short tail behind a 4-bit prefix table (hits, misses resolved by
    the first-code search, an escape found only there); and the books the NumPy
    body builds of them — counted densely and by sorting, cut with ties and
    whole — with the bytes they code."""
    fib = [1, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    if not np.array_equal(huff_lengths(np.array(fib)), [19, *range(19, 0, -1)]):
        return False

    def packed(stream, book):
        """``(stream as one integer, its bits, where each symbol starts)`` of
        ``book``: symbol -> (code, length), ESCAPE under ``None``."""
        at, bits, total = [], 0, 0
        for v in stream:
            at.append(total)
            for c, ln in [book[v]] if v in book else [book[None], (v % 2**64, 64)]:
                bits, total = bits << ln | c, total + ln
        return bits, total, at

    def payload(bits, total):
        n_words = (total + 63) >> 6
        return (bits << 64 * n_words - total).to_bytes(8 * n_words, "big")

    stream = [1, 19, -7, 4, 18, 2, 1, 1, 3, 2**62 + 1, 5]  # -7 and 2**62 + 1 escape
    values = np.array(stream, dtype=_I64)
    L = np.arange(1, 20)
    first = (np.uint64(1) << L.astype(_U64)) - np.uint64(2)
    bits, total, at = packed(stream, {**{v: (2**v - 2, v) for v in range(1, 20)},
                                      None: (2**19 - 1, 19)})
    whole = payload(bits, total)
    codes, lens = np.append(first, np.uint64(2**19 - 1)), np.append(L, 19)
    for lut in (np.arange(19), None):  # the dense table over 1..19, the binary search
        book = (L, codes, lens, lut)
        coded = huff_segment(values, book, float(total), 0, 2**62, 4, 2)
        if (not coded or coded[0] is not None
                or [coded[1], coded[2], coded[3].tolist()]
                != [whole[: (total + 7) >> 3], total, at[2::2]]
                or huff_segment(values, book, total - 1.0, 0, 2**62, 4, 2) is not False
                or huff_segment(values, (L, codes, np.append(L, 0), lut), np.inf, 0, 2**62, 4, 2)
                is not False):
            return False
    # (symbols, slot lengths, slot codes) of huffman_book._build_code: the top
    # three of eleven (1, then the two smallest of the count-1 ties) and an
    # ESCAPE weighing 6; all nine symbols and no ESCAPE
    cut = ([-7, 1, 2], [3, 2, 3, 1], [6, 2, 7, 0])
    whole_book = ([-7, 1, 2, 3, 4, 5, 18, 19, 2**62 + 1], [4, 2, 4, 4, 4, 3, 3, 3, 3, 0],
                  [12, 0, 13, 14, 15, 2, 3, 4, 5, 0])
    for vals, max_table, want in ((stream, 4, cut), (stream[:-2], 4, cut),
                                  (stream, 16, whole_book)):
        got = huff_segment(np.array(vals, dtype=_I64), None, np.inf, max_table, 2**62, 4, 2)
        syms, slot_lens, slot_codes = want
        book = {s: (c, ln) for s, c, ln in zip(syms, slot_codes, slot_lens)}
        book[None] = (slot_codes[-1], slot_lens[-1])
        bits, total_b, at_b = packed(vals, book)
        if (not got or got[0] is None
                or [a.tolist() for a in got[0]] != [syms, slot_lens, slot_codes]
                or [got[1], got[2], got[3].tolist()]
                != [payload(bits, total_b)[: (total_b + 7) >> 3], total_b, at_b[2::2]]):
            return False
    words = np.frombuffer(whole + bytes(8), dtype=">u8").astype(_U64)  # and the spill word
    count = np.array([1] * 18 + [2], dtype=_U64)
    search = (L, first, count, L - 1, ((first + count) << (64 - L).astype(_U64))[:-1])
    prefix = (4, np.array([1] * 8 + [2] * 4 + [3, 3, 4, 255], dtype=np.uint8),
              np.array([1] * 8 + [2] * 4 + [3, 3, 4, 0]))
    tables = (prefix, search, np.append(L, 0), 19)
    status, out, ends = huff_decode(words, at[::2], 2, 1, total, *tables)
    return (status == 0 and out.tolist() == stream and ends.tolist() == [*at[2::2], total]
            and huff_decode(words, at[::2], 2, 1, total - 1, *tables)[0] == HUFF_TRUNCATED)


def _load() -> tuple[ctypes.CDLL, Path]:
    src = source()
    directory = _private_dir()
    cc, version = _compiler()
    path = directory / f"native-{build_key(src, version)}.so"
    if not _sealed(path):  # absent, truncated or corrupt
        _build(cc, src, path)
    return _open(path), path


def _library() -> ctypes.CDLL | None:
    """The verified library, or ``None``; loads on first use, never raises."""
    global _lib, _path, _tried, _reason
    candidate = getattr(_local, "candidate", None)
    if candidate is not None:
        return candidate
    if _tried:
        return _lib
    with _lock:
        if not _tried:
            try:
                _lib, _path = _load()
            except _Unavailable as exc:
                _reason = str(exc)
            _tried = True
    return _lib


def available() -> bool:
    """Whether the compiled library can be used on this host (loads it)."""
    return _library() is not None


def library_path() -> Path | None:
    """The loaded library's file, ``None`` when there is none."""
    return _path if available() else None


def supports(dtype) -> bool:
    """Whether arrays of ``dtype`` take the C route (native-endian f32/f64)."""
    return np.dtype(dtype) in _SUFFIX


def active() -> bool:
    """Whether the leaves take the C route under the active policy.  Warns,
    once per process, when ``native`` was asked for by name and cannot be had."""
    global _warned
    policy = kernel_backend_policy()
    if policy == "reference":
        return False
    if _library() is not None:
        return True
    if policy == "native" and not _warned:
        _warned = True
        warnings.warn(
            f"REPRO_KERNEL_BACKEND=native but the compiled kernels are unavailable "
            f"({_reason}); falling back to the reference backend",
            RuntimeWarning,
            stacklevel=2,
        )
    return False


def _library_for(*arrays: np.ndarray) -> ctypes.CDLL | None:
    """The library when the policy and these operands take the C route."""
    if not active():
        return None
    return _library() if all(map(_usable, arrays)) else None


# ----------------------------------------------------------------------
# the calls


def _usable(a: np.ndarray) -> bool:
    """An operand the C can address: aligned, non-empty, strides in whole elements."""
    return a.flags.aligned and a.size > 0 and not any(s % a.itemsize for s in a.strides)


def refactor(x: np.ndarray, hier, inverse: bool = False) -> np.ndarray | None:
    """``decompose`` (``recompose`` when ``inverse``) of ``x`` in one C call that
    walks every level of ``hier``, into a new C-ordered array of ``x``'s dtype;
    ``None`` for the NumPy driver.  Raises ``thomas_solve``'s ``ValueError``
    where the NumPy driver would, at the same level.  Off the executors' pools a
    field of ``_TEAM_MIN`` nodes or more is walked by this thread and
    ``available_workers() - 1`` helpers making the same call on the shared thread
    executor; those not started when the walk ends are cancelled."""
    suffix = _SUFFIX.get(x.dtype)
    lib = _library_for(x) if suffix and hier.L and hier.ndim <= _MAX_OUTER else None
    if lib is None:
        return None
    words, ops = hier.refactor_walk()
    slots = 3 if suffix == "f32" and not inverse else 2  # float32 coefficients go through a slot
    members = 1 if x.size < _TEAM_MIN or on_worker() else available_workers()
    need = hier._memoized(("walk_doubles", slots, members), lambda: lib.walk_doubles(words, slots, members))
    out, work = np.empty(x.shape, x.dtype), np.empty(max(need, 1))
    team = np.zeros(32, dtype=_I64)  # native.c's TEAM_WORDS
    team[0] = members
    walk = getattr(lib, ("recompose_" if inverse else "decompose_") + suffix)
    args = (words, ops.ctypes.data, x.ctypes.data, (_N * x.ndim)(*(s // x.itemsize for s in x.strides)),
            out.ctypes.data, work.ctypes.data, need, team.ctypes.data)
    helpers = [get_executor("thread").submit(walk, *args) for _ in range(members - 1)]
    try:
        status = walk(*args)
    finally:
        for h in helpers:
            h.cancel() or h.result()
    if status > 0:
        raise ValueError("array must not contain infs or NaNs")
    return out if status == 0 else None


def _flat(a: np.ndarray, dtype: np.dtype) -> bool:
    """A contiguous 1D operand of ``dtype``."""
    return a.dtype == dtype and a.ndim == 1 and a.flags.c_contiguous


def _flat_pair(a: np.ndarray, b: np.ndarray) -> bool:
    """Two contiguous 1D operands of one length, the second float64."""
    return _flat(a, a.dtype) and _flat(b, _F64) and a.shape == b.shape


def quantize(flat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``np.round(flat * inv).astype(int64)`` (round half to even), one C pass
    where the library takes ``flat``."""
    suffix = _SUFFIX.get(flat.dtype)
    lib = _library_for(flat, inv) if suffix and _flat_pair(flat, inv) else None
    if lib is None:
        return np.round(flat * inv).astype(np.int64)
    out = np.empty(flat.shape, dtype=_I64)
    getattr(lib, "quantize_" + suffix)(flat.ctypes.data, inv.ctypes.data, out.ctypes.data, flat.size)
    return out


def dequantize(bins: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``bins.astype(float64) * scale``, one C pass where the library takes ``bins``."""
    lib = _library_for(bins, scale) if bins.dtype == _I64 and _flat_pair(bins, scale) else None
    if lib is None:
        return bins.astype(np.float64) * scale
    out = np.empty(bins.shape, dtype=_F64)
    lib.dequantize(bins.ctypes.data, scale.ctypes.data, out.ctypes.data, bins.size)
    return out


# ----------------------------------------------------------------------
# the coefficient class walks (repro.core.classes, repro.compress.quantizer)

#: per walk: its C entry, less the float side's suffix, and whether it writes ``field``
_WALKS = {"gather": ("gather_", False), "scatter": ("scatter_", True),
          "quantize": ("quantize_gather_", False), "dequantize": ("dequantize_scatter_", True),
          "dequantize_add": ("dequantize_add_", True)}


def class_walk(kind: str, field: np.ndarray, flats: list, hier, factors=None) -> bool:
    """Move classes between ``field``, the refactored layout of ``hier``, and
    ``flats`` (class ``l`` or ``None``), one C walk each: ``gather`` (flat ←
    field), ``scatter`` (float64 field ← flat), ``quantize`` (int64 flat ←
    round-half-even(field · factors[l])), ``dequantize`` (float64 field ←
    flat · factors[l]), ``dequantize_add`` (float64 field += flat ·
    factors[l]).  False, the written side undefined (and the NumPy bodies
    write all of it), when the NumPy body must run."""
    entry, writes = _WALKS[kind]
    if not (0 < len(flats) <= hier.L + 1 and field.ndim <= _MAX_OUTER and field.shape == hier.shape
            and field.flags.c_contiguous and field.flags.aligned
            and (not writes or field.dtype == _F64 and field.flags.writeable) and active()):
        return False
    lib, at = _library(), field.ctypes.data
    for l, flat in reversed(list(enumerate(flats))):  # finest first: it leaves the lines cached
        if flat is None:
            continue
        words, size, last = hier.class_walk(l)
        floats = flat if kind == "scatter" else field  # names the variant
        flat_dtype = field.dtype if kind == "gather" else flat.dtype if kind == "scatter" else _I64
        if not (floats.dtype in _SUFFIX and _flat(flat, flat_dtype) and flat.flags.aligned
                and (writes or flat.flags.writeable) and flat.size == size and last < field.size
                and getattr(lib, entry + _SUFFIX[floats.dtype])(
                    at, flat.ctypes.data, words, size,
                    0.0 if factors is None else factors[l]) == size):
            return False
    return True


# ----------------------------------------------------------------------
# the entropy stage's integer loops (repro.compress.huffman_*)


def huff_decode(words, starts, block, rem, total, prefix, search, flat_syms, esc_flat):
    """Walk one cursor per block of ``block`` symbols (the last: ``rem``)
    through the MSB-first payload ``words`` of ``total`` bits.

    ``prefix`` is ``(K, lengths, symbols)`` indexed by a window's top K
    bits, ``search`` the first-code tables ``(lens, first, count, base,
    limits)`` a table miss classifies through.  Returns ``None`` for the
    NumPy body, else ``(status, symbols, cursors)``: status 0, or
    :data:`HUFF_TRUNCATED` / :data:`HUFF_NO_MATCH` with the other two
    undefined; ``cursors`` is the bit behind each block's last symbol.
    The C reads ``words`` only below bit ``total`` plus one spill word,
    which is why the starts and the buffer's size are checked here.
    """
    K, lut_len, lut_sym = prefix
    lens, first, count, base, limits = search
    n_blocks = len(starts)
    lib = _library_for(words, lut_len, flat_syms)
    if lib is None or not (
        n_blocks > 0 and 1 <= rem <= block and 1 <= K <= 16
        and _flat(words, _U64) and words.size > (total + 63) >> 6
        and _flat(lut_len, np.dtype(np.uint8)) and _flat(lut_sym, _I64)
        and lut_len.size == lut_sym.size == 1 << K
        and _flat(lens, _I64) and lens.size > 0 and 1 <= lens.min() and lens.max() <= 64
        and _flat(first, _U64) and _flat(count, _U64) and _flat(base, _I64) and _flat(limits, _U64)
        and first.size == count.size == base.size == limits.size + 1 == lens.size
        and _flat(flat_syms, _I64) and flat_syms.size == int(base[-1]) + int(count[-1])
    ):
        return None
    pos = np.array(starts, dtype=_I64)
    if int(pos.min()) < 0 or int(pos.max()) > total:
        return None  # the NumPy body names the error
    out = np.empty((n_blocks - 1) * block + rem, dtype=_I64)
    status = lib.huff_decode(
        words.ctypes.data, total, pos.ctypes.data, n_blocks, block, rem, out.ctypes.data, K,
        lut_len.ctypes.data, lut_sym.ctypes.data, lens.size,
        *(a.ctypes.data for a in search), flat_syms.ctypes.data, esc_flat)
    return status, out, pos


def huff_segment(values: np.ndarray, book, limit: float, max_table: int, reserve_from: int,
                 span_factor: int, block: int):
    """One Huffman segment's encode in one C call (``native.c``'s ``huff_segment``).

    The non-empty int64 ``values`` are coded with ``book`` — ``(symbols,
    slot_codes, slot_lens, lut)`` of a :class:`~repro.compress.huffman_book.HuffmanCode`,
    ``lut`` its dense value table or ``None`` — unless their bits pass
    ``limit`` or a value needs the ESCAPE it lacks; then, or with no ``book``,
    with a book built from their histogram (the ``max_table`` cut, an ESCAPE
    reserved from ``reserve_from`` distinct values) when ``max_table`` is
    given.  The values' min and max (NumPy's) size the scratch: their span
    is counted densely below ``span_factor`` times the values, else sorted.
    Returns ``None`` for the NumPy bodies, ``False`` when the guard trips
    and nothing may be built, else ``(built, payload, total, sync)``:
    ``built`` the new book's ``(symbols, slot_lens, slot_codes)``, ``None``
    when ``book`` coded the values."""
    n = values.size
    ok = (_flat(values, _I64) and 0 < n < 2**31 and block > 0 and span_factor >= 2
          and (max_table == 0 or 2 <= max_table < 2**31))
    operands = [values]
    if book is not None:
        symbols, codes, lens, lut = book
        ok = ok and (_flat(symbols, _I64) and 0 < symbols.size < 2**31
                     and _flat(codes, _U64) and _flat(lens, _I64)
                     and codes.size == lens.size == symbols.size + 1
                     and (lut is None or _flat(lut, _I64)
                          and lut.size == int(symbols[-1]) - int(symbols[0]) + 1))
        operands += [symbols, codes, lens] + ([] if lut is None else [lut])
    lib = _library_for(*operands) if ok else None
    if lib is None or book is None and not max_table:
        return None
    if book is None:
        symbols = codes = lens = lut = None
    lo, hi = int(values.min()), int(values.max())
    count = hi - lo + 1 if hi - lo < span_factor * n else 2 * n
    n_sync = -(-n // block) - 1
    kb = min(max_table, n)  # a built book's symbols at most
    # one buffer: info[2], the built book (3 kb + 2), sync, then the scratch
    at_sync = 3 * kb + 4
    at_scratch = at_sync + n_sync
    buf = np.empty(at_scratch + count + 3 * min(n, count) + (7 * (kb + 1) if max_table else 0),
                   dtype=_I64)
    words = np.empty(2 * n + 1, dtype=_U64)  # a value costs at most 64 + 64 bits
    base = buf.ctypes.data
    status = lib.huff_segment(
        values.ctypes.data, n, lo, hi, block, span_factor,
        *((None, 0, None, None) if book is None else
          (symbols.ctypes.data, symbols.size, codes.ctypes.data, lens.ctypes.data)),
        None if lut is None else lut.ctypes.data, 0 if lut is None else lut.size,
        limit, max_table, reserve_from, base + 8 * at_scratch, buf.size - at_scratch, base + 16,
        words.ctypes.data, words.size, base + 8 * at_sync, base)
    if status == HUFF_TRIPPED:
        return False
    if status not in (0, HUFF_BUILT):
        return None
    total, m = buf[:2].tolist()
    payload = words.view(np.uint8)[: (total + 7) >> 3].tobytes()
    sync = buf[at_sync:at_scratch].copy()
    if status == 0:
        return None, payload, total, sync
    built = buf[2:at_sync]
    return ((built[:m].copy(), built[kb : kb + m + 1].copy(),
             built[2 * kb + 1 : 2 * kb + m + 2].view(_U64).copy()),
            payload, total, sync)


def huff_lengths(leaf: np.ndarray) -> np.ndarray | None:
    """Huffman code lengths of the ascending leaf weights ``leaf`` (two or
    more, ties broken as ``huffman_book._code_lengths`` documents), or ``None``
    for the Python heap — which also takes weights whose sum could leave
    int64, where Python's integers grow."""
    ok = _flat(leaf, _I64) and leaf.size >= 2 and leaf[0] >= 0 and float(leaf.sum(dtype=_F64)) < 2.0**62
    lib = _library_for(leaf) if ok else None
    if lib is None:
        return None
    depth = np.empty(leaf.size, dtype=_I64)
    scratch = np.empty(3 * leaf.size, dtype=_I64)
    lib.huff_lengths(leaf.ctypes.data, leaf.size, depth.ctypes.data, scratch.ctypes.data)
    return depth
