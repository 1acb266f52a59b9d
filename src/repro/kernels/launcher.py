"""Kernel backend registry: compile-once, cache per signature, dispatch hot.

The paper's premise is hand-tuned kernels selected per configuration
(§III-A); this module is the host-side seam that makes the backend a
*configuration axis* instead of a hard-coded implementation.  A
:class:`KernelLauncher` exposes ``compile(op, signature) -> handle``
and ``launch(handle, *arrays)``; compiled handles are cached per
``(op, signature)`` on the launcher, so JIT cost is paid once and the
hot path is a dict hit plus a call (the gstaichi ``KernelLauncher`` /
template-mapper shape).

Two backends are registered:

* ``reference`` — the existing NumPy kernels, always available, and
  the bit-identity oracle every other backend is checked against;
* ``numba`` — ``@njit(cache=True)`` twins of the hot loops
  (:mod:`repro.kernels.backend_numba`), available only when the
  optional ``jit`` extra is installed.

Selection policy (``REPRO_KERNEL_BACKEND`` / ``--kernel-backend`` /
:func:`set_kernel_backend`):

* ``reference`` — always the NumPy path;
* ``numba`` — the compiled path, with a single warning + fallback when
  numba is missing;
* ``auto`` (default) — *measured* per-(op, shape, dtype) selection via
  :func:`repro.kernels.autotune.select_backend`; resolves silently to
  ``reference`` when numba is not installed.

Every op's ABI is plain arrays (plus ints), so backends are trivially
interchangeable and the identity contract — compiled output equals
reference output bit for bit — is assertable array-by-array, exactly
as the scalar Huffman oracle in ``tests/`` cross-checks the array coder.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.mass import mass_apply
from ..core.solver import thomas_sweep
from .jit import HAVE_NUMBA

__all__ = [
    "KernelLauncher",
    "NumbaLauncher",
    "OpSpec",
    "OP_SPECS",
    "ReferenceLauncher",
    "Signature",
    "available_backends",
    "get_launcher",
    "kernel_backend_policy",
    "maybe_launch",
    "resolve",
    "run_op",
    "set_kernel_backend",
    "signature_of",
]

VALID_POLICIES = ("reference", "numba", "auto")


@dataclass(frozen=True)
class Signature:
    """Compile-cache key of one kernel specialization."""

    dtype: str
    ndim: int


def signature_of(*args) -> Signature:
    """Signature derived from the first array argument."""
    for a in args:
        if isinstance(a, np.ndarray):
            return Signature(str(a.dtype), a.ndim)
    return Signature("object", 0)


# ----------------------------------------------------------------------
# op specs: reference implementations + synthetic input builders
#
# The reference callables below are the production paths themselves
# (mass, solve) or whole-axis NumPy twins of them (same per-element
# arithmetic and operand order, so bit-identical); the input builders
# synthesize representative operands for autotune measurement, backend
# warm-up, and the benchmark sweep.


def _batch_shape(shape: tuple[int, ...]) -> tuple[int, int]:
    """Interpret an op shape as a (batch, m) block."""
    if len(shape) >= 2:
        m = int(shape[-1])
        b = 1
        for s in shape[:-1]:
            b *= int(s)
        return max(b, 1), max(m, 2)
    return 1, max(int(shape[0]) if shape else 2, 2)


def _ref_mass(v2, h):
    return mass_apply(v2, h, axis=1)


def _make_mass(shape, dtype, rng):
    b, m = _batch_shape(shape)
    v = rng.standard_normal((b, m)).astype(dtype, copy=False)
    h = rng.uniform(0.8, 1.2, m - 1)
    return v, h


def _ref_transfer(f2, coarse_pos, interval_detail, w_left, w_right, m_detail):
    acc = f2[:, coarse_pos].copy()
    if m_detail:
        dv = f2[:, interval_detail]
        acc[:, :-1] += w_left * dv
        acc[:, 1:] += w_right * dv
    return acc


def _make_transfer(shape, dtype, rng):
    b, m = _batch_shape(shape)
    m |= 1  # dyadic layout below assumes an odd fine length
    if m < 3:
        m = 3
    f = rng.standard_normal((b, m)).astype(dtype, copy=False)
    coarse_pos = np.arange(0, m, 2, dtype=np.int64)
    interval_detail = np.arange(1, m, 2, dtype=np.int64)
    w = rng.uniform(0.3, 0.7, interval_detail.size)
    return f, coarse_pos, interval_detail, w, 1.0 - w, interval_detail.size


def _ref_solve(f2, lower, cp, denom):
    return thomas_sweep(f2, lower, cp, denom, axis=1)


def _make_solve(shape, dtype, rng):
    b, m = _batch_shape(shape)
    f = rng.standard_normal((b, m)).astype(dtype, copy=False)
    lower = rng.uniform(0.5, 1.0, m - 1)
    cp = rng.uniform(0.1, 0.4, m - 1)
    denom = rng.uniform(2.5, 3.5, m)
    return f, lower, cp, denom


def _ref_quantize(flat, inv):
    return np.round(flat * inv).astype(np.int64)


def _make_quantize(shape, dtype, rng):
    n = max(int(np.prod(shape)) if shape else 1, 1)
    flat = (rng.standard_normal(n) * 40.0).astype(dtype, copy=False)
    inv = np.repeat(1.0 / rng.uniform(0.005, 0.05, 4), -(-n // 4))[:n]
    return flat, np.ascontiguousarray(inv)


def _ref_dequantize(bins, scale):
    return bins.astype(np.float64) * scale


def _make_dequantize(shape, dtype, rng):
    n = max(int(np.prod(shape)) if shape else 1, 1)
    bins = rng.integers(-2000, 2000, n, dtype=np.int64)
    scale = np.repeat(rng.uniform(0.005, 0.05, 4), -(-n // 4))[:n]
    return bins, np.ascontiguousarray(scale)


def _ref_huff_pack(c_codes, c_lens, offsets):
    from ..compress.huffman import _pack_chunks_words_numpy

    return _pack_chunks_words_numpy(c_codes, c_lens, offsets)


def _make_huff_pack(shape, dtype, rng):
    n = max(int(np.prod(shape)) if shape else 1, 1)
    c_lens = rng.integers(1, 24, n).astype(np.int64)
    raw = rng.integers(0, 1 << 62, n, dtype=np.int64).astype(np.uint64)
    c_codes = raw & ((np.uint64(1) << c_lens.astype(np.uint64)) - np.uint64(1))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(c_lens, out=offsets[1:])
    return c_codes, c_lens, offsets


def _ref_huff_decode(
    words,
    starts,
    ends,
    rem,
    total,
    lens_arr,
    first_arr,
    count_arr,
    base_arr,
    limits,
    flat_syms,
    esc_flat,
    esc_len,
    sync_block,
):
    from ..compress import huffman as _H

    t = _H._DecodeTables(
        lens_arr, first_arr, count_arr, base_arr, limits, flat_syms,
        esc_flat, int(esc_len) if esc_len else None,
    )
    return _H._decode_sync_range_numpy(words, starts, ends, rem, total, t)


def _make_huff_decode(shape, dtype, rng):
    from ..compress import huffman as _H

    n = max(int(np.prod(shape)) if shape else 1, 16)
    values = np.rint(rng.standard_normal(n) * 3.0).astype(np.int64)
    payload, header = _H.huffman_encode(values)
    t = _H.decode_tables(_H.code_from_table(header["table"]))
    total = int(header["bits"])
    sync = header.get("sync", [])
    starts = np.concatenate([[0], sync]).astype(np.int64)
    ends = np.concatenate([sync, [total]]).astype(np.int64)
    rem = n - (starts.size - 1) * _H._SYNC_BLOCK
    words = _H._payload_words(payload, total)
    return (
        words,
        starts,
        ends,
        int(rem),
        total,
        t.lens_arr,
        t.first_arr,
        t.count_arr,
        t.base_arr,
        t.limits,
        t.flat_syms,
        int(t.esc_flat),
        int(t.esc_len or 0),
        _H._SYNC_BLOCK,
    )


@dataclass(frozen=True)
class OpSpec:
    """One dispatchable hot-loop op: reference impl + operand builder."""

    name: str
    reference: Callable
    make_inputs: Callable


#: Registry of dispatchable ops, shared by every backend.
OP_SPECS: dict[str, OpSpec] = {
    "mass": OpSpec("mass", _ref_mass, _make_mass),
    "transfer": OpSpec("transfer", _ref_transfer, _make_transfer),
    "solve": OpSpec("solve", _ref_solve, _make_solve),
    "quantize": OpSpec("quantize", _ref_quantize, _make_quantize),
    "dequantize": OpSpec("dequantize", _ref_dequantize, _make_dequantize),
    "huff_pack": OpSpec("huff_pack", _ref_huff_pack, _make_huff_pack),
    "huff_decode": OpSpec("huff_decode", _ref_huff_decode, _make_huff_decode),
}

#: Minimal shapes used to warm a backend's JIT inside ``compile``.
_WARM_SHAPES = {
    "mass": (2, 5),
    "transfer": (2, 5),
    "solve": (2, 5),
    "quantize": (8,),
    "dequantize": (8,),
    "huff_pack": (8,),
    "huff_decode": (64,),
}


# ----------------------------------------------------------------------
# launchers


class KernelLauncher:
    """Backend interface: compile per signature once, launch many times."""

    name = "abstract"

    def __init__(self):
        self._handles: dict[tuple[str, Signature], Callable] = {}
        self.stats = {"compiles": 0, "cache_hits": 0}

    def available(self) -> bool:
        """Whether this backend can run on the current host."""
        return True

    def compile(self, op: str, signature: Signature) -> Callable:
        """Build (and for JIT backends, warm) the handle for one op."""
        raise NotImplementedError

    def launch(self, handle: Callable, *arrays):
        """Run a compiled handle on its operands."""
        return handle(*arrays)

    def compiled(self, op: str, signature: Signature) -> Callable:
        """Cached :meth:`compile` — the per-(op, signature) hot path."""
        key = (op, signature)
        handle = self._handles.get(key)
        if handle is None:
            handle = self.compile(op, signature)
            self._handles[key] = handle
            self.stats["compiles"] += 1
        else:
            self.stats["cache_hits"] += 1
        return handle

    def cache_info(self) -> dict:
        """Compile-cache accounting (entries / compiles / hits)."""
        return {"entries": len(self._handles), **self.stats}


class ReferenceLauncher(KernelLauncher):
    """The always-available NumPy backend — the identity oracle."""

    name = "reference"

    def compile(self, op: str, signature: Signature) -> Callable:
        return OP_SPECS[op].reference


class NumbaLauncher(KernelLauncher):
    """JIT backend over :mod:`repro.kernels.backend_numba`."""

    name = "numba"

    def available(self) -> bool:
        return HAVE_NUMBA

    def compile(self, op: str, signature: Signature) -> Callable:
        from . import backend_numba

        fn = backend_numba.NUMBA_OPS[op]
        # run once on a minimal same-dtype input so the numba dispatch
        # compiles here, inside compile(), not on the first hot launch
        try:
            dtype = np.dtype(signature.dtype)
        except TypeError:
            dtype = np.dtype(np.float64)
        args = OP_SPECS[op].make_inputs(
            _WARM_SHAPES[op], dtype, np.random.default_rng(0)
        )
        fn(*args)
        return fn


_LAUNCHERS: dict[str, KernelLauncher] = {
    "reference": ReferenceLauncher(),
    "numba": NumbaLauncher(),
}


def get_launcher(name: str) -> KernelLauncher:
    """The registered launcher named ``name`` (available or not)."""
    try:
        return _LAUNCHERS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {sorted(_LAUNCHERS)}"
        ) from None


def available_backends() -> list[str]:
    """Names of the backends that can run on this host."""
    return [n for n, lau in _LAUNCHERS.items() if lau.available()]


# ----------------------------------------------------------------------
# selection policy

_POLICY_OVERRIDE: str | None = None
_WARNED_NO_NUMBA = False


def set_kernel_backend(policy: str | None) -> None:
    """Set the process-wide backend policy (``None`` = back to env/auto)."""
    global _POLICY_OVERRIDE
    if policy is not None and policy not in VALID_POLICIES:
        raise ValueError(
            f"kernel backend must be one of {VALID_POLICIES}, got {policy!r}"
        )
    _POLICY_OVERRIDE = policy


def kernel_backend_policy() -> str:
    """Active policy: override > ``REPRO_KERNEL_BACKEND`` > ``auto``."""
    if _POLICY_OVERRIDE is not None:
        return _POLICY_OVERRIDE
    env = os.environ.get("REPRO_KERNEL_BACKEND", "auto")
    if env not in VALID_POLICIES:
        raise ValueError(
            f"REPRO_KERNEL_BACKEND must be one of {VALID_POLICIES}, got {env!r}"
        )
    return env


def resolve(
    op: str, shape: tuple[int, ...], dtype, policy: str | None = None
) -> KernelLauncher:
    """Pick the launcher for one (op, shape, dtype) under the policy.

    ``reference`` and ``numba`` are direct requests (the latter warns
    once and falls back when numba is missing); ``auto`` asks the
    autotuner for its *measured* per-shape choice and resolves silently
    to ``reference`` when numba is not installed.
    """
    global _WARNED_NO_NUMBA
    if op not in OP_SPECS:
        raise ValueError(f"unknown kernel op {op!r}; registered: {sorted(OP_SPECS)}")
    p = policy if policy is not None else kernel_backend_policy()
    if p not in VALID_POLICIES:
        raise ValueError(f"kernel backend must be one of {VALID_POLICIES}, got {p!r}")
    reference = _LAUNCHERS["reference"]
    if p == "reference":
        return reference
    numba = _LAUNCHERS["numba"]
    if not numba.available():
        if p == "numba" and not _WARNED_NO_NUMBA:
            warnings.warn(
                "REPRO_KERNEL_BACKEND=numba but numba is not installed "
                "(pip install repro[jit]); falling back to the reference "
                "backend",
                RuntimeWarning,
                stacklevel=2,
            )
            _WARNED_NO_NUMBA = True
        return reference
    if p == "numba":
        return numba
    from . import autotune

    if autotune.select_backend(op, shape, dtype) == "numba":
        return numba
    return reference


def maybe_launch(
    op: str, shape: tuple[int, ...], dtype, *args, policy: str | None = None
):
    """Hot-path dispatch: ``(True, result)`` if a compiled backend ran.

    Returns ``(False, None)`` when policy resolution lands on the
    reference backend, so call sites keep their existing (already
    optimal-NumPy) code path with zero extra work.
    """
    lau = resolve(op, shape, dtype, policy)
    if lau.name == "reference":
        return False, None
    handle = lau.compiled(op, Signature(str(np.dtype(dtype)), len(shape)))
    return True, lau.launch(handle, *args)


def run_op(backend: str, op: str, *args):
    """Run one op on one backend directly (tests / benchmarks)."""
    lau = get_launcher(backend)
    if not lau.available():
        raise ValueError(f"kernel backend {backend!r} is not available on this host")
    handle = lau.compiled(op, signature_of(*args))
    return lau.launch(handle, *args)
