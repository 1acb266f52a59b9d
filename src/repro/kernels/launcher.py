"""Kernel backend registry: one op table, two backends, one policy.

The paper's premise is hand-tuned kernels selected per configuration
(§III-A); this module makes the backend a *configuration axis* for
tests, benchmarks and the record a benchmark stamps.  An op **is** the
production leaf (:data:`OP_SPECS`): ``decompose`` / ``recompose`` (one
C walk over every level each way), the quantizer's
two passes, the de-quantizer added into a running sum of coefficients
(``dequantize_add``, the stream writer's closed loop), the class split and
assembly (``extract`` / ``assemble``), and the entropy
stage's three integer entries (``huff_lengths`` /
``huff_encode`` / ``huff_decode``: the code-length merge, the segment
encode — map, guard, pack — and the sync-block decode walk of
:mod:`repro.compress.huffman`).
Each leaf holds its NumPy body and takes the C route of
:mod:`repro.core.native` itself, so the two backends are the same
function run under a forced policy (:func:`run_op`): ``reference`` (the
NumPy bodies, always available, the bit-identity oracle) and ``native``
(``native.c`` through ``cc`` + :mod:`ctypes`, where a C compiler is).

The policy (``REPRO_KERNEL_BACKEND`` / ``--kernel-backend`` /
:func:`set_kernel_backend`: ``reference | native | auto``) is owned by
:mod:`repro.core.native`; production never goes through this module.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

from ..compress import huffman, huffman_book, huffman_pack, huffman_unpack
from ..compress.quantizer import Quantizer
from ..core import native
from ..core.classes import assemble_from_classes, extract_classes
from ..core.decompose import decompose, recompose
from ..core.grid import hierarchy_for
from ..core.native import kernel_backend_policy, set_kernel_backend

__all__ = [
    "OpSpec",
    "OP_SPECS",
    "available_backends",
    "kernel_backend_policy",
    "measure_backend_times",
    "resolve",
    "run_op",
    "set_kernel_backend",
]


# op table: the production leaves + builders of representative operands


def _field(shape, dtype, rng):
    shape = tuple(max(int(s), 3) for s in shape) or (3,)  # every axis coarsens
    return rng.standard_normal(shape).astype(dtype, copy=False), hierarchy_for(shape)


def _make_assemble(shape, dtype, rng):
    v, hier = _field(shape, dtype, rng)
    return extract_classes(v, hier), hier


def _steps(n, rng):  # four quantizer steps, each over a quarter of the operand
    return np.ascontiguousarray(np.repeat(rng.uniform(0.005, 0.05, 4), -(-n // 4))[:n])


def _make_quantize(shape, dtype, rng):
    n = max(int(np.prod(shape)), 1)
    return (rng.standard_normal(n) * 40.0).astype(dtype, copy=False), 1.0 / _steps(n, rng)


def _make_dequantize(shape, dtype, rng):
    n = max(int(np.prod(shape)), 1)
    return rng.integers(-2000, 2000, n, dtype=np.int64), _steps(n, rng)


def _make_dequantize_add(shape, dtype, rng):  # a float64 refactored array and its bins
    v, hier = _field(shape, np.float64, rng)
    return v, *Quantizer(1e-3).quantize_refactored(v, hier), hier


def _dequantize_add(total, bins, sizes, steps, hier):  # into a copy: every run sees the same sum
    return Quantizer.dequantize_refactored(bins, sizes, steps, hier, add_to=total.copy())


def _bins(shape, rng):  # a high-entropy segment: a few hundred distinct symbols
    return np.round(rng.standard_normal(max(int(np.prod(shape)), 1)) * 40.0).astype(np.int64)


def _make_huff_lengths(shape, dtype, rng):
    return (np.unique(_bins(shape, rng), return_counts=True)[1],)


def _make_huff_encode(shape, dtype, rng):
    bins = _bins(shape, rng)
    return bins, huffman_book.build_code(bins)


def _make_huff_decode(shape, dtype, rng):
    bins = _bins(shape, rng)
    code = huffman_book.build_code(bins)
    payload, total, sync = huffman._encode_payload(bins, code)
    words = huffman_unpack._payload_words(payload, 0, total)
    starts, ends = huffman_unpack._block_bounds(sync, total)
    rem = bins.size - sync.size * huffman_pack._SYNC_BLOCK
    return words, starts, ends, rem, total, huffman_unpack.decode_tables(code)


class OpSpec(NamedTuple):
    """One dispatchable op: the leaf both backends run + an operand builder."""

    name: str
    fn: Callable
    make_inputs: Callable


#: Registry of dispatchable ops, shared by every backend.
OP_SPECS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("decompose", decompose, _field),
        OpSpec("recompose", recompose, _field),  # any array is some field's refactored one
        OpSpec("quantize", native.quantize, _make_quantize),
        OpSpec("dequantize", native.dequantize, _make_dequantize),
        OpSpec("dequantize_add", _dequantize_add, _make_dequantize_add),
        OpSpec("extract", extract_classes, _field),
        OpSpec("assemble", assemble_from_classes, _make_assemble),
        OpSpec("huff_lengths", huffman_book._code_lengths, _make_huff_lengths),
        OpSpec("huff_encode", huffman._encode_payload, _make_huff_encode),
        OpSpec("huff_decode", huffman_unpack._decode_blocks, _make_huff_decode),
    )
}


_BACKENDS = ("reference", "native")

#: what :func:`resolve` answers: the name of the backend that runs
Resolved = NamedTuple("Resolved", [("name", str)])


def available_backends() -> list[str]:
    """Names of the backends that can run on this host."""
    return [b for b in _BACKENDS if b == "reference" or native.available()]


def _check_op(op: str) -> None:
    if op not in OP_SPECS:
        raise ValueError(f"unknown kernel op {op!r}; registered: {sorted(OP_SPECS)}")


def resolve(op: str, shape: tuple[int, ...], dtype, policy: str | None = None) -> Resolved:
    """The backend that runs ``op`` on a ``dtype`` operand under the policy.

    ``native`` where the policy is ``native`` or ``auto``, the library is
    available and ``dtype`` takes the C route (native-endian float32 /
    float64; int64 bins for the two ``dequantize*`` ops; the ``huff_*`` ops
    are integer loops whatever field they serve); ``reference`` otherwise —
    after one ``RuntimeWarning`` per process when ``native`` was asked for
    by name and cannot be had.  ``shape`` does not enter: the C route is
    faster at every size.
    """
    _check_op(op)
    dtype = np.dtype(dtype)
    takes_c = op.startswith("huff_") or (
        dtype == np.int64 if op.startswith("dequantize") else native.supports(dtype))
    with native.forced(policy if policy is not None else kernel_backend_policy()):
        return Resolved("native" if takes_c and native.active() else "reference")


def run_op(backend: str, op: str, *args):
    """Run one op on one backend directly (tests / benchmarks)."""
    if backend not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {backend!r}; registered: {sorted(_BACKENDS)}")
    _check_op(op)
    if backend not in available_backends():
        raise ValueError(f"kernel backend {backend!r} is not available on this host")
    with native.forced(backend):
        return OP_SPECS[op].fn(*args)


def measure_backend_times(op: str, shape: tuple[int, ...], dtype, repeats: int = 3) -> dict[str, float]:
    """Warm best-of-``repeats`` seconds of one op per available backend
    (operands from the op's ``make_inputs``; the untimed first run takes the
    library load).  The backends take turns, one repeat each, so a spell of
    the host's — a neighbour's load, a clock change — reaches them alike."""
    args = OP_SPECS[op].make_inputs(tuple(shape), np.dtype(dtype), np.random.default_rng(0xC0FFEE))
    names = available_backends()
    times = dict.fromkeys(names, float("inf"))
    for turn in range(max(repeats, 1) + 1):  # turn 0 is the untimed one
        for name in names:
            t0 = time.perf_counter()
            run_op(name, op, *args)
            if turn:
                times[name] = min(times[name], time.perf_counter() - t0)
    return times
