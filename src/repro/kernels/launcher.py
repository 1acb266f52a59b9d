"""Kernel backend registry: one op table, two backends, one policy.

The paper's premise is hand-tuned kernels selected per configuration
(§III-A); this module is the host-side seam that makes the backend a
*configuration axis*.  A :class:`KernelLauncher` exposes
``compile(op, signature) -> handle`` and ``launch(handle, *arrays)``;
handles are cached per ``(op, signature)`` on the launcher.

An op **is** the production leaf (:data:`OP_SPECS`): the functions of
:mod:`repro.core` that ``decompose``/``recompose`` call, and the
quantizer's two elementwise passes.  There are no wrapper twins — each
leaf holds its NumPy body and takes the C route of
:mod:`repro.core.native` itself — so the two registered backends are the
same function run under a forced policy:

* ``reference`` — the NumPy bodies, always available, the bit-identity
  oracle;
* ``native`` — ``native.c`` through ``cc`` + :mod:`ctypes`, available
  when a C compiler is.

The policy (``REPRO_KERNEL_BACKEND`` / ``--kernel-backend`` /
:func:`set_kernel_backend`: ``reference | native | auto``) is owned by
:mod:`repro.core.native` and imported here; production never goes
through this module, which serves tests, benchmarks and the record a
benchmark stamps (:func:`resolve`).  The identity contract — native
output equals reference output bit for bit — is assertable op by op
with :func:`run_op`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import native
from ..core.coefficients import compute_coefficients, restore_from_coefficients
from ..core.decompose import restrict_all
from ..core.grid import hierarchy_for
from ..core.native import VALID_POLICIES, kernel_backend_policy, set_kernel_backend
from ..core.solver import thomas_sweep
from ..core.transfer import mass_transfer_apply

__all__ = [
    "KernelLauncher",
    "NativeLauncher",
    "OpSpec",
    "OP_SPECS",
    "ReferenceLauncher",
    "Signature",
    "available_backends",
    "get_launcher",
    "kernel_backend_policy",
    "resolve",
    "run_op",
    "set_kernel_backend",
    "signature_of",
]


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
# op table: the production leaves + builders of representative operands


def _field(shape, dtype, rng):
    shape = tuple(max(int(s), 3) for s in shape) or (3,)  # every axis coarsens
    return rng.standard_normal(shape).astype(dtype, copy=False), hierarchy_for(shape)


def _make_coefficients(shape, dtype, rng):
    v, hier = _field(shape, dtype, rng)
    return v, hier, hier.L


def _make_restore(shape, dtype, rng):
    v, hier = _field(shape, dtype, rng)
    return compute_coefficients(v, hier, hier.L), restrict_all(v, hier, hier.L).copy(), hier, hier.L


def _make_mass_transfer(shape, dtype, rng):
    v, hier = _field(shape, dtype, rng)
    return v, hier.level_ops(hier.L, v.ndim - 1), v.ndim - 1


def _make_solve(shape, dtype, rng):
    v, hier = _field(shape, dtype, rng)
    ops = hier.level_ops(hier.L, v.ndim - 1)
    f = restrict_all(v, hier, hier.L).copy()
    return f, ops.mass_bands_coarse[0, 1:], ops.thomas_cp, ops.thomas_denom, v.ndim - 1


def _make_quantize(shape, dtype, rng):
    n = max(int(np.prod(shape)) if shape else 1, 1)
    flat = (rng.standard_normal(n) * 40.0).astype(dtype, copy=False)
    inv = np.repeat(1.0 / rng.uniform(0.005, 0.05, 4), -(-n // 4))[:n]
    return flat, np.ascontiguousarray(inv)


def _make_dequantize(shape, dtype, rng):
    n = max(int(np.prod(shape)) if shape else 1, 1)
    bins = rng.integers(-2000, 2000, n, dtype=np.int64)
    scale = np.repeat(rng.uniform(0.005, 0.05, 4), -(-n // 4))[:n]
    return bins, np.ascontiguousarray(scale)


@dataclass(frozen=True)
class OpSpec:
    """One dispatchable op: the leaf both backends run + an operand builder."""

    name: str
    fn: Callable
    make_inputs: Callable


#: Registry of dispatchable ops, shared by every backend.
OP_SPECS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("coefficients", compute_coefficients, _make_coefficients),
        OpSpec("restore", restore_from_coefficients, _make_restore),
        OpSpec("mass_transfer", mass_transfer_apply, _make_mass_transfer),
        OpSpec("solve", thomas_sweep, _make_solve),
        OpSpec("quantize", native.quantize, _make_quantize),
        OpSpec("dequantize", native.dequantize, _make_dequantize),
    )
}


# ----------------------------------------------------------------------
# launchers


class KernelLauncher:
    """Backend interface: compile per signature once, launch many times.

    A handle is the op's leaf run under this backend's policy, whatever
    the process-wide policy says.
    """

    name = "abstract"

    def __init__(self):
        self._handles: dict[tuple[str, Signature], Callable] = {}
        self.stats = {"compiles": 0, "cache_hits": 0}

    def available(self) -> bool:
        """Whether this backend can run on the current host."""
        return True

    def compile(self, op: str, signature: Signature) -> Callable:
        """Build the handle for one op."""
        fn, policy = OP_SPECS[op].fn, self.name

        def handle(*args):
            with native.forced(policy):
                return fn(*args)

        return handle

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


class NativeLauncher(KernelLauncher):
    """The C backend of :mod:`repro.core.native`."""

    name = "native"

    def available(self) -> bool:
        return native.available()


_LAUNCHERS: dict[str, KernelLauncher] = {
    "reference": ReferenceLauncher(),
    "native": NativeLauncher(),
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


def resolve(
    op: str, shape: tuple[int, ...], dtype, policy: str | None = None
) -> KernelLauncher:
    """The launcher that runs ``op`` on a ``dtype`` operand under the policy.

    ``native`` where the policy is ``native`` or ``auto``, the library is
    available and ``dtype`` takes the C route (native-endian float32 /
    float64; int64 bins for ``dequantize``); ``reference`` otherwise —
    after one ``RuntimeWarning`` per process when ``native`` was asked for
    by name and cannot be had.  ``shape`` does not enter: the C route is
    faster at every size.
    """
    if op not in OP_SPECS:
        raise ValueError(f"unknown kernel op {op!r}; registered: {sorted(OP_SPECS)}")
    p = policy if policy is not None else kernel_backend_policy()
    if p not in VALID_POLICIES:
        raise ValueError(f"kernel backend must be one of {VALID_POLICIES}, got {p!r}")
    dtype = np.dtype(dtype)
    takes_c = dtype == np.int64 if op == "dequantize" else native.supports(dtype)
    with native.forced(p):
        return _LAUNCHERS["native" if takes_c and native.active() else "reference"]


def run_op(backend: str, op: str, *args):
    """Run one op on one backend directly (tests / benchmarks)."""
    lau = get_launcher(backend)
    if not lau.available():
        raise ValueError(f"kernel backend {backend!r} is not available on this host")
    handle = lau.compiled(op, signature_of(*args))
    return lau.launch(handle, *args)
