"""Configuration tuning: the modeled launch sweep, and measured op times.

The paper tunes its launch configurations by hand ("Although choosing
large block sizes can reduce thread divergence, it may cause the total
number of threads to exceed the maximum allowed on a streaming
multiprocessor or make the SM underutilized", §III-A).  With the cost
model in hand, that search can be automated: :func:`autotune` sweeps
the discrete design space (stream count, linear-framework thread-block
rows) and returns the configuration with the lowest modeled end-to-end
time for a given (shape, device, operation).

This is the simulated-substrate analogue of the autotuning literature
the paper cites ([14], Basu et al.), applied to *its* design space.

The host's two kernel backends need no tuner: the C route of
:mod:`repro.core.native` is faster than the NumPy bodies at every size
measured (5² to 129³), so ``auto`` means "native whenever available" and
there is no size threshold and no persisted timing table.
:func:`measure_backend_times` remains as the one way to time an op of
the launcher's table on every available backend (the micro-benchmark's
rows).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..core.grid import hierarchy_for
from ..gpu.analytic import model_pass
from ..gpu.device import DeviceSpec, V100
from .launches import EngineOptions

__all__ = ["TuneResult", "autotune", "measure_backend_times"]


@dataclass
class TuneResult:
    """Outcome of one autotuning sweep.

    ``why`` records the evidence class — ``"modeled"``: the static cost
    model ranked the candidates — and ``backend`` the kernel backend the
    sweep ran on (the launch-configuration sweep never leaves
    ``reference``).
    """

    best: EngineOptions
    best_seconds: float
    baseline_seconds: float
    evaluated: int
    table: list[tuple[EngineOptions, float]]
    backend: str = "reference"
    why: str = "modeled"

    @property
    def gain(self) -> float:
        """Speedup of the tuned configuration over the defaults."""
        return self.baseline_seconds / self.best_seconds


def autotune(
    shape: tuple[int, ...],
    device: DeviceSpec = V100,
    operation: str = "decompose",
    stream_choices: tuple[int, ...] = (1, 2, 4, 8, 16),
    tpv_choices: tuple[int, ...] = (4, 8, 16, 32),
) -> TuneResult:
    """Exhaustively search the launch-configuration space via the model.

    The space is tiny (tens of points) and each evaluation is a
    shape-only walk, so the sweep costs milliseconds — which is exactly
    the advantage of having a calibrated model over empirical tuning.
    """
    hier = hierarchy_for(shape)
    baseline = model_pass(hier, device, EngineOptions(), operation).total_seconds
    table = []
    for streams in stream_choices:
        for tpv in tpv_choices:
            opts = EngineOptions(n_streams=streams, lpf_threads_per_vector=tpv)
            t = model_pass(hier, device, opts, operation).total_seconds
            table.append((opts, t))
    table.sort(key=lambda item: item[1])
    best, best_t = table[0]
    return TuneResult(
        best=best,
        best_seconds=best_t,
        baseline_seconds=baseline,
        evaluated=len(table),
        table=table,
        backend="reference",
        why="modeled",
    )


def measure_backend_times(
    op: str, shape: tuple[int, ...], dtype, repeats: int = 3
) -> dict[str, float]:
    """Warm best-of-``repeats`` seconds of one launcher op per available backend.

    Operands come from the op's ``make_inputs``; each backend runs once
    before it is timed, so the numbers are steady-state launch costs, not
    the first call's library load.
    """
    from . import launcher as L

    spec = L.OP_SPECS[op]
    args = spec.make_inputs(tuple(shape), np.dtype(dtype), np.random.default_rng(0xC0FFEE))
    sig = L.signature_of(*args)
    times: dict[str, float] = {}
    for name in L.available_backends():
        lau = L.get_launcher(name)
        handle = lau.compiled(op, sig)
        lau.launch(handle, *args)
        best = math.inf
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            lau.launch(handle, *args)
            best = min(best, time.perf_counter() - t0)
        times[name] = best
    return times
