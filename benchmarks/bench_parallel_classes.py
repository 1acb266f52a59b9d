#!/usr/bin/env python
"""Parallel class encoding + cross-step code-book reuse benchmark.

Two measurements, written to
``benchmarks/results/BENCH_parallel_classes.json`` so the repo's perf
trajectory stays machine-readable:

1. **parallel vs serial encode** — the segmented entropy stage on a
   65^3 multi-class workload, scheduled through the serial executor and
   a thread-pool executor (class segments, and the zlib sub-blocks of
   a large class, are the jobs of one fan-out).  The two payloads are
   asserted byte-identical.  The speedup scales with physical cores:
   zlib/NumPy release the GIL, so on a single-core host the parallel
   path measures only its (small) scheduling overhead — ``cpu_count``
   is recorded alongside so CI numbers are interpreted correctly.

2. **cold vs reused code books** — a 16-step slowly-varying stream
   through the time-series compressor with per-step code-book rebuild
   vs cross-step reuse (``table_ref`` rows, no book shipped), with
   total bytes, end-to-end wall time, and entropy-stage wall time.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_parallel_classes.py

``REPRO_BENCH_SCALE=ci`` shrinks the workload for smoke runs.  Pass
``--assert-speedup`` to fail (exit 1) unless parallel encode clears 2x
— intended for >= 4-core hosts, not CI smoke.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.parallel.executors import available_workers, get_executor
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.quantizer import Quantizer
from repro.compress.timeseries import TimeSeriesCompressor
from repro.core.grid import hierarchy_for
from repro.core.refactor import Refactorer

RESULTS = Path(__file__).parent / "results"

CI_SCALE = os.environ.get("REPRO_BENCH_SCALE") == "ci"


def _best_of(fn, repeats: int):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_parallel_encode(side: int, repeats: int, workers: int) -> dict:
    """Serial vs parallel segmented encode/decode on one 3D field."""
    shape = (side, side, side)
    rng = np.random.default_rng(2021)
    data = rng.standard_normal(shape).cumsum(0).cumsum(1).cumsum(2)
    cc = Refactorer(shape).refactor(data)
    bins, sizes, _ = Quantizer(1e-2).quantize_flat(cc)
    serial = get_executor("serial")
    parallel = get_executor(f"parallel:{workers}")
    out: dict = {
        "shape": list(shape),
        "n_classes": len(sizes),
        "n_symbols": int(bins.size),
        "workers": workers,
    }
    for backend in ("zlib", "huffman"):
        t_s, (p_s, h_s) = _best_of(
            lambda: encode_classes(bins, sizes, backend=backend, executor=serial),
            repeats,
        )
        t_p, (p_p, h_p) = _best_of(
            lambda: encode_classes(bins, sizes, backend=backend, executor=parallel),
            repeats,
        )
        assert p_s == p_p and h_s == h_p, f"{backend}: parallel not bit-identical"
        t_ds, (flat, _) = _best_of(lambda: decode_classes(p_s, h_s), repeats)
        t_dp, (flat_p, _) = _best_of(
            lambda: decode_classes(p_p, h_p, executor=parallel), repeats
        )
        assert np.array_equal(flat, bins) and np.array_equal(flat_p, bins)
        out[backend] = {
            "encode_serial_s": t_s,
            "encode_parallel_s": t_p,
            "encode_speedup": t_s / t_p,
            "decode_serial_s": t_ds,
            "decode_parallel_s": t_dp,
            "decode_speedup": t_ds / t_dp,
            "payload_bytes": len(p_s),
        }
    return out


def bench_codebook_reuse(side: int, n_steps: int) -> dict:
    """Cold (rebuild per step) vs reused code books on a slow stream."""
    shape = (side, side) if CI_SCALE else (side, side, side)
    rng = np.random.default_rng(7)
    base = rng.standard_normal(shape)
    for ax in range(len(shape)):
        base = base.cumsum(ax)
    drift = rng.standard_normal(shape).cumsum(0) * 0.01
    frames = [base + t * drift for t in range(n_steps)]
    tol = 1e-3 * float(base.max() - base.min())
    hier = hierarchy_for(shape)
    out: dict = {"shape": list(shape), "n_steps": n_steps, "tol": tol}
    repeats = 1 if CI_SCALE else 2
    for tag, reuse in (("cold", False), ("reused", True)):
        wall = entropy = float("inf")
        series = None
        for _ in range(repeats):
            tsc = TimeSeriesCompressor(
                hier, tol, backend="huffman", reuse_codebooks=reuse
            )
            t0 = time.perf_counter()
            series = tsc.compress(frames)
            wall = min(wall, time.perf_counter() - t0)
            entropy = min(
                entropy, sum(f.times.entropy_wall for f in series.frames)
            )
        rec = TimeSeriesCompressor(
            hier, tol, backend="huffman", reuse_codebooks=reuse
        ).decompress(series)
        assert all(
            np.abs(a - b).max() <= tol for a, b in zip(frames, rec)
        ), "stream round trip violated the bound"
        refs = sum(
            1
            for f in series.frames
            for s in f.headers[0].get("segments", [])
            if "table_ref" in s
        )
        out[tag] = {
            "wall_s": wall,
            "entropy_wall_s": entropy,
            "total_bytes": series.nbytes,
            "table_ref_segments": refs,
        }
    out["bytes_saved_fraction"] = 1.0 - out["reused"]["total_bytes"] / out["cold"][
        "total_bytes"
    ]
    out["entropy_speedup"] = (
        out["cold"]["entropy_wall_s"] / out["reused"]["entropy_wall_s"]
    )
    out["wall_speedup"] = out["cold"]["wall_s"] / out["reused"]["wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(RESULTS / "BENCH_parallel_classes.json"))
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help="exit 1 unless huffman parallel encode clears 2x (>=4-core hosts)",
    )
    args = parser.parse_args(argv)

    side = 33 if CI_SCALE else 65
    repeats = 2 if CI_SCALE else 3
    n_steps = 6 if CI_SCALE else 16
    workers = max(available_workers(), 4)

    report = {
        "benchmark": "parallel_classes",
        "scale": "ci" if CI_SCALE else "full",
        "cpu_count": available_workers(),
        "parallel_encode": bench_parallel_encode(side, repeats, workers),
        "codebook_reuse": bench_codebook_reuse(side, n_steps),
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    pe = report["parallel_encode"]
    cr = report["codebook_reuse"]
    print(f"parallel class encoding on {pe['shape']} ({report['cpu_count']} cores, "
          f"{pe['workers']} workers):")
    for backend in ("zlib", "huffman"):
        b = pe[backend]
        print(
            f"  {backend:8s} encode {b['encode_serial_s'] * 1e3:7.1f} ms -> "
            f"{b['encode_parallel_s'] * 1e3:7.1f} ms ({b['encode_speedup']:.2f}x)   "
            f"decode {b['decode_serial_s'] * 1e3:7.1f} ms -> "
            f"{b['decode_parallel_s'] * 1e3:7.1f} ms ({b['decode_speedup']:.2f}x)"
        )
    print(f"code-book reuse over {cr['n_steps']} steps on {cr['shape']}:")
    print(
        f"  cold   {cr['cold']['wall_s']:6.2f} s  "
        f"(entropy {cr['cold']['entropy_wall_s'] * 1e3:6.0f} ms)  "
        f"{cr['cold']['total_bytes']} bytes"
    )
    print(
        f"  reused {cr['reused']['wall_s']:6.2f} s  "
        f"(entropy {cr['reused']['entropy_wall_s'] * 1e3:6.0f} ms)  "
        f"{cr['reused']['total_bytes']} bytes  "
        f"({cr['entropy_speedup']:.2f}x entropy, "
        f"{cr['bytes_saved_fraction'] * 100:.1f}% smaller, "
        f"{cr['reused']['table_ref_segments']} ref segments)"
    )
    print(f"[written to {out}]")

    if args.assert_speedup:
        sp = pe["huffman"]["encode_speedup"]
        if sp < 2.0:
            print(
                f"huffman parallel encode speedup {sp:.2f}x below the 2x bar "
                f"(host has {report['cpu_count']} cores)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
