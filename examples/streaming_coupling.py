#!/usr/bin/env python
"""Streaming producer→consumer coupling over refactored time steps.

The long-running-workflow version of the paper's Figure 1: a simulation
appends refactored snapshots to a stream directory while an analysis
consumer — possibly lagging, possibly coarse — reads only the class
prefixes its accuracy requires, using the s-norm hints the producer
recorded in the manifest (never touching payload it doesn't need).

Run:  python examples/streaming_coupling.py
"""

import tempfile

import numpy as np

from repro.io.stream import StepStreamReader, StepStreamWriter
from repro.workloads.grayscott import simulate


def main() -> None:
    shape = (65, 65)
    snapshots = simulate(shape, steps=1200, snapshot_every=300, params="maze")
    print(f"producer: {len(snapshots)} Gray-Scott snapshots on {shape}")

    with tempfile.TemporaryDirectory() as tmp:
        # -- producer: refactor + append, recording accuracy hints ------
        writer = StepStreamWriter(tmp, shape)
        for t, snap in enumerate(snapshots):
            writer.append(snap, time=300.0 * (t + 1))
        print(f"stream holds {writer.n_steps} steps\n")

        # -- consumers at different accuracy requirements ----------------
        reader = StepStreamReader(tmp)
        step = reader.n_steps - 1
        exact = snapshots[-1]
        print(f"{'consumer tol':>12} {'classes':>8} {'bytes read':>11} {'actual Linf':>12}")
        for tol in (1e-1, 1e-2, 1e-3, 1e-5):
            k = reader.classes_needed(step, tol)
            field, nbytes = reader.read(step, k=k)
            err = float(np.abs(field - exact).max())
            print(f"{tol:>12.0e} {k:>8} {nbytes:>11} {err:>12.3e}")


if __name__ == "__main__":
    main()
