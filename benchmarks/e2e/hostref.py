"""How fast the host is running, measured beside the program.

On a shared host the same call runs 20-50 % slower for seconds to minutes
at a time (README.md, "Why best-of and why a reference pass").  A pass
of work that is none of the program's — interpreter, cache-resident and
memory-streaming NumPy, zlib, a LAPACK banded solve, a strided copy: the
kinds of work the program is made of — is timed every few hundred
milliseconds all along a run.  The best pass of a run, over the best pass
the builder's host has shown (``NOMINAL_PASS_S``), is how much slower than
that the host ran while the run's best times were taken, and the
end-to-end timings are divided by it.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
from scipy.linalg import solve_banded

__all__ = ["HostReference", "NOMINAL_PASS_S"]


def _sqrt_sq_plus_1(x: np.ndarray, out: np.ndarray) -> None:
    np.multiply(x, x, out=out)
    np.add(out, 1.0, out=out)
    np.sqrt(out, out=out)


#: best pass seen on the builder's host (2 vCPUs, Xeon 2.1 GHz); a constant
#: of the benchmark, so that a result is in the units of a quiet run there
NOMINAL_PASS_S = 0.0146


class HostReference:
    def __init__(self, every_s: float = 0.2):
        rng = np.random.default_rng(0)
        self.every_s = every_s
        # every output is preallocated: a pass that allocates is faster or
        # slower with the state the program has left the allocator in
        self.small = rng.random(1 << 15)  # 256 KiB: stays in L2
        self.small_out = np.empty_like(self.small)
        self.big = rng.random(1 << 20)  # 8 MiB: streams through the caches
        self.big_out = np.empty_like(self.big)
        self.cube = rng.random((32, 129, 129))
        self.cube_out = np.empty((129, 129, 32))
        self.blob = rng.integers(0, 8, 1 << 15, dtype=np.uint8).tobytes()
        self.bands = np.array([[-1.0] * 129, [4.0] * 129, [-1.0] * 129])
        self.rhs = np.asfortranarray(rng.random((129, 2048)))
        self.rhs_out = np.empty_like(self.rhs)
        self.passes: list[float] = []
        self._last = 0.0

    def run_pass(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        np.copyto(self.small_out, self.small)
        for _ in range(30):
            _sqrt_sq_plus_1(self.small_out, self.small_out)
        _sqrt_sq_plus_1(self.big, self.big_out)
        zlib.compress(self.blob, 6)
        np.copyto(self.rhs_out, self.rhs)
        solve_banded((1, 1), self.bands, self.rhs_out, overwrite_b=True, check_finite=False)
        np.copyto(self.cube_out, np.moveaxis(self.cube, 0, -1))
        self._last = time.perf_counter()
        self.passes.append(self._last - t0)

    def tick(self, every_s: float | None = None) -> None:
        """Run a pass if the last one is ``every_s`` old; the workloads call
        this between operations."""
        if time.perf_counter() - self._last >= (self.every_s if every_s is None else every_s):
            self.run_pass()
