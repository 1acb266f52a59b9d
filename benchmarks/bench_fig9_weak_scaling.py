#!/usr/bin/env python
"""Fig. 9 weak scaling: measured executors next to the analytic model.

Each partition is refactored (decompose + recompose) independently —
the paper's per-GPU workload: equal partitions, no halo exchange — so
total work grows with the partition count while per-partition work
stays constant.  The sweep pushes the same partition function through
``get_executor(spec).map`` on both pooled executors:

* ``thread`` — one address space; Python-level refactor loops
  serialize on the GIL, so aggregate throughput plateaus;
* ``process`` — the worker pool shard encode and Huffman decode run
  on; aggregate throughput scales with cores.

Results land in ``benchmarks/results/BENCH_weak_scaling.json`` with
``cpu_count`` stamped (a 1-core host honestly records ~1x); the
analytic 4096-GPU model (``fig9_weak_scaling``) is regenerated next to
the measurements, preserving ``results/fig9_weak_scaling.txt``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_fig9_weak_scaling.py

``REPRO_BENCH_SCALE=ci`` (or ``--smoke``) shrinks partitions and the
sweep.  ``--executor process --ranks 8 --assert-speedup`` is the CI
gate: it fails (exit 1) unless the process executor clears 2x aggregate
refactor throughput over the thread executor at 8 partitions on a
>= 4-core host (relaxed to 1.2x on 2-3 cores, skipped with a notice on 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.refactor import Refactorer
from repro.experiments import fig9_weak_scaling, format_fig9
from repro.parallel import available_workers, get_executor

RESULTS = Path(__file__).parent / "results"

CI_SCALE = os.environ.get("REPRO_BENCH_SCALE") == "ci"


def refactor_partition(index: int, side: int, iters: int):
    """Refactor partition ``index`` (seeded by it, so every executor sees
    the same data); returns (max round-trip error, busy seconds)."""
    chunk = np.random.default_rng(1000 + index).standard_normal((side, side))
    r = Refactorer(chunk.shape)
    t0 = time.perf_counter()
    err = 0.0
    for _ in range(iters):
        err = max(err, float(np.abs(r.recompose(r.decompose(chunk)) - chunk).max()))
    return err, time.perf_counter() - t0


def measure_point(spec: str, n_ranks: int, side: int, iters: int, repeats: int) -> dict:
    """Best-of-``repeats`` weak-scaling point for one (executor, n_ranks)."""
    per_rank_bytes = side * side * 8 * iters
    executor = get_executor(spec)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = executor.map(
            refactor_partition, range(n_ranks), [side] * n_ranks, [iters] * n_ranks
        )
        wall = time.perf_counter() - t0
        errs = [e for e, _ in results]
        assert max(errs) < 1e-9, f"refactor round-trip broke: {max(errs)}"
        point = {
            "executor": spec,
            "n_ranks": n_ranks,
            "wall_s": wall,
            "rank_busy_s": max(b for _, b in results),
            "aggregate_bytes_per_s": n_ranks * per_rank_bytes / wall,
        }
        if best is None or point["wall_s"] < best["wall_s"]:
            best = point
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(RESULTS / "BENCH_weak_scaling.json"))
    parser.add_argument(
        "--executor",
        choices=("both", "process", "thread"),
        default="both",
        help="measured executor(s); 'process' still measures the thread "
        "baseline at each rank count for the speedup ratio",
    )
    parser.add_argument(
        "--ranks",
        default=None,
        help="comma-separated partition counts (default 8,16,32,64; ci/smoke 4,8)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny run (CI smoke)")
    parser.add_argument(
        "--assert-speedup",
        nargs="?",
        const=2.0,
        type=float,
        default=None,
        metavar="FACTOR",
        help="exit 1 unless process/thread aggregate throughput at the "
        "smallest rank count clears FACTOR (default 2.0 on >=4 cores, "
        "1.2 on 2-3, skipped on 1)",
    )
    args = parser.parse_args(argv)
    small = CI_SCALE or args.smoke

    if args.ranks is not None:
        rank_counts = [int(r) for r in str(args.ranks).split(",") if r]
    else:
        rank_counts = [4, 8] if small else [8, 16, 32, 64]
    side = 65 if small else 129
    iters = 2 if small else 4
    repeats = 1 if small else 2
    cpu_count = available_workers()

    specs = ["thread"] if args.executor == "thread" else ["thread", "process"]

    # steady state is what scales: one round trip fills the hierarchy cache
    # the workers then fork with, and the pools are up before anything
    # is timed — as they are when production work arrives
    refactor_partition(0, side, 1)
    for spec in specs:
        get_executor(spec).prime()

    measured = []
    for n in rank_counts:
        for spec in specs:
            point = measure_point(spec, n, side, iters, repeats)
            measured.append(point)
            print(
                f"  {spec:8s} {n:3d} ranks: wall {point['wall_s'] * 1e3:8.1f} ms  "
                f"aggregate {point['aggregate_bytes_per_s'] / 1e6:8.1f} MB/s"
            )

    speedups = {}
    if "process" in specs:
        for n in rank_counts:
            t = next(p for p in measured if p["executor"] == "thread" and p["n_ranks"] == n)
            p = next(p for p in measured if p["executor"] == "process" and p["n_ranks"] == n)
            speedups[str(n)] = p["aggregate_bytes_per_s"] / t["aggregate_bytes_per_s"]
            print(f"  process/thread at {n:3d} ranks: {speedups[str(n)]:.2f}x")

    # the analytic model at paper scale, regenerated next to the numbers
    curves = fig9_weak_scaling()
    fig9_text = format_fig9(curves)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "fig9_weak_scaling.txt").write_text(fig9_text + "\n")

    report = {
        "benchmark": "weak_scaling",
        "scale": "ci" if small else "full",
        "cpu_count": cpu_count,
        "per_rank_shape": [side, side],
        "iters_per_rank": iters,
        "rank_counts": rank_counts,
        "measured": measured,
        "process_over_thread_speedup": speedups,
        "model_4096_gpus_tbps": {
            name: points[-1].aggregate_tbps for name, points in curves.items()
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {out}]")

    if args.assert_speedup is not None:
        if cpu_count < 2:
            print(
                f"speedup gate skipped: host has {cpu_count} core(s); the "
                "process executor cannot beat the thread executor without "
                "parallel hardware (cpu_count is recorded in the JSON)"
            )
            return 0
        factor = args.assert_speedup if cpu_count >= 4 else min(args.assert_speedup, 1.2)
        n0 = str(min(rank_counts))
        got = speedups.get(n0, 0.0)
        if got < factor:
            print(
                f"process-executor aggregate throughput {got:.2f}x thread at "
                f"{n0} ranks, below the {factor}x bar "
                f"(host has {cpu_count} cores)",
                file=sys.stderr,
            )
            return 1
        print(f"speedup gate passed: {got:.2f}x >= {factor}x at {n0} ranks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
