#!/usr/bin/env python
"""Shard-parallel compression scaling: serial vs thread vs process.

PR 5's sharded path splits a frame along axis 0 into independent
partitions (the paper's per-GPU decomposition model) and fans the
per-shard refactor→quantize→encode out through the executor backends,
each job carrying only its own shard's rows.  This
benchmark measures that fan-out and writes
``benchmarks/results/BENCH_shards.json`` so the perf trajectory stays
machine-readable:

1. **sharded encode** — one Gray–Scott frame compressed shard-by-shard
   through all three backends (containers asserted byte-identical);
2. **region read** — a sharded stream step read back through
   :meth:`~repro.io.stream.StepStreamReader.read_region`, recording the
   fraction of shard bytes a sub-volume read actually touches.

On a single-core host the parallel backends measure only their
scheduling/IPC overhead — ``cpu_count`` is recorded alongside so CI
numbers are interpreted correctly.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_shards.py

``REPRO_BENCH_SCALE=ci`` shrinks the workload for smoke runs.  Pass
``--assert-speedup`` to fail (exit 1) unless the process backend clears
1.5x on the sharded encode — intended for >= 4-core hosts, not CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cluster.sharded import ShardCodec, encode_shards, plan_shards
from repro.io.stream import StepStreamReader, StepStreamWriter
from repro.parallel import available_workers, get_executor
from repro.workloads.grayscott import simulate

RESULTS = Path(__file__).parent / "results"

CI_SCALE = os.environ.get("REPRO_BENCH_SCALE") == "ci"


def _best_of(fn, repeats: int):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_encode(data, n_shards: int, backend: str, workers: int, repeats: int) -> dict:
    plan = plan_shards(data.shape, n_shards)
    tol = 1e-3 * float(data.max() - data.min())
    codec = ShardCodec(tol=tol, backend=backend)
    executors = {
        "serial": get_executor("serial"),
        "thread": get_executor(f"thread:{workers}"),
        "process": get_executor(f"process:{workers}"),
    }
    out = {"n_shards": n_shards, "backend": backend}
    reference = None
    for tag, ex in executors.items():
        t, payloads = _best_of(lambda: encode_shards(data, plan, codec, ex), repeats)
        if reference is None:
            reference = payloads
            out["payload_bytes"] = int(sum(len(p) for p in payloads))
        assert payloads == reference, f"{tag}: shard containers differ from serial"
        out[f"encode_{tag}_s"] = t
    for tag in ("thread", "process"):
        out[f"{tag}_speedup"] = out["encode_serial_s"] / out[f"encode_{tag}_s"]
    return out


def bench_region(data, n_shards: int, backend: str) -> dict:
    """Write one sharded step, read a 1-shard region, record selectivity."""
    tol = 1e-3 * float(data.max() - data.min())
    with tempfile.TemporaryDirectory() as d:
        writer = StepStreamWriter(
            Path(d) / "stream", data.shape, tol=tol, backend=backend,
            shards=n_shards,
        )
        writer.append(data)
        reader = StepStreamReader(Path(d) / "stream")
        rows = reader.shard_bounds[0][1]  # exactly the first shard
        decoded = []
        orig = StepStreamReader._decode_shard
        try:
            StepStreamReader._decode_shard = (
                lambda self, rd, i: decoded.append(i) or orig(self, rd, i)
            )
            t0 = time.perf_counter()
            region = reader.read_region(0, (slice(0, rows),))
            dt = time.perf_counter() - t0
        finally:
            StepStreamReader._decode_shard = orig
        assert float(np.abs(region - data[:rows]).max()) <= tol
        shard_bytes = [s["nbytes"] for s in reader.steps[0]["shards"]]
        return {
            "n_shards": n_shards,
            "region_rows": int(rows),
            "shards_decoded": len(decoded),
            "read_seconds": dt,
            "bytes_touched": int(sum(shard_bytes[i] for i in decoded)),
            "bytes_total": int(sum(shard_bytes)),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(RESULTS / "BENCH_shards.json"))
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help="exit 1 unless process-backend sharded encode clears 1.5x "
        "(>=4-core hosts)",
    )
    args = parser.parse_args(argv)

    side = 17 if CI_SCALE else 33
    repeats = 2 if CI_SCALE else 3
    workers = 2 if CI_SCALE else max(available_workers(), 4)
    n_shards = 4 if CI_SCALE else 8
    data = simulate((side, side, side), steps=40 if CI_SCALE else 80, params="spots")

    report = {
        "benchmark": "shards",
        "scale": "ci" if CI_SCALE else "full",
        "cpu_count": available_workers(),
        "workers": workers,
        "shape": list(data.shape),
        "encode": {
            backend: bench_encode(data, n_shards, backend, workers, repeats)
            for backend in ("zlib", "huffman")
        },
        "region_read": bench_region(data, n_shards, "zlib"),
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"sharded encode ({report['cpu_count']} cores, {workers} workers, "
          f"{n_shards} shards on {side}^3):")
    for backend in ("zlib", "huffman"):
        b = report["encode"][backend]
        print(
            f"  {backend:8s} serial {b['encode_serial_s'] * 1e3:7.1f} ms   "
            f"thread {b['encode_thread_s'] * 1e3:7.1f} ms "
            f"({b['thread_speedup']:.2f}x)   "
            f"process {b['encode_process_s'] * 1e3:7.1f} ms "
            f"({b['process_speedup']:.2f}x)   [byte-identical]"
        )
    r = report["region_read"]
    print(
        f"  region read: {r['shards_decoded']}/{r['n_shards']} shards decoded, "
        f"{r['bytes_touched']}/{r['bytes_total']} bytes touched"
    )
    print(f"[written to {out}]")

    if args.assert_speedup:
        sp = report["encode"]["huffman"]["process_speedup"]
        if sp < 1.5:
            print(
                f"process-backend sharded encode speedup {sp:.2f}x below the "
                f"1.5x bar (host has {report['cpu_count']} cores)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
