#!/usr/bin/env python
"""Measured Fig. 10 streaming-write pipeline, both stream modes.

The paper's workflow argument is that refactor, encode, and write
*overlap*, so the pipeline runs at the bottleneck stage's speed.  PR 3
measured that for the refactored mode; PR 4 split the compressed mode's
closed-loop prediction (``predict_residual`` / ``encode_residual``) so
its three stages overlap too.  This benchmark runs
:func:`repro.io.workflow.run_streaming_pipeline` in both modes through
the one mode-agnostic spine and writes
``benchmarks/results/BENCH_pipeline.json`` so the repo's perf
trajectory stays machine-readable: each mode records its calibrated
per-stage seconds, the measured serial/pipelined walls, and the
analytic :meth:`PipelineModel.makespan
<repro.cluster.pipeline.PipelineModel.makespan>` of the calibrated
model next to them.

On a single-core host the pipelined run measures only its scheduling
overhead (the thread pool cannot actually overlap stages) —
``cpu_count`` is recorded alongside so CI numbers are interpreted
correctly; the *modeled* overlap gain is hardware-independent.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_fig10_pipeline.py

``REPRO_BENCH_SCALE=ci`` shrinks the workload for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.parallel.executors import default_spec
from repro.experiments import fig10_measured_pipeline
from repro.parallel import available_workers

RESULTS = Path(__file__).parent / "results"

CI_SCALE = os.environ.get("REPRO_BENCH_SCALE") == "ci"


def bench_mode(mode: str, executor: str, codec_executor: str) -> dict:
    codec = codec_executor if mode == "compressed" else None
    t0 = time.perf_counter()
    m = fig10_measured_pipeline(
        executor=executor, mode=mode, codec_executor=codec
    )
    rec = m.record()
    rec["codec_executor"] = codec
    rec["bench_wall_s"] = time.perf_counter() - t0
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(RESULTS / "BENCH_pipeline.json"))
    parser.add_argument(
        "--executor",
        default="thread:4",
        help="pipeline stage pool (width only; default thread:4)",
    )
    parser.add_argument(
        "--codec-executor",
        default=None,
        help="entropy-stage fan-out inside the compressed writer "
        "(default: the ambient REPRO_EXECUTOR spec)",
    )
    args = parser.parse_args(argv)
    codec = args.codec_executor or default_spec()

    report = {
        "benchmark": "fig10_pipeline",
        "scale": "ci" if CI_SCALE else "full",
        "cpu_count": available_workers(),
        "modes": {
            mode: bench_mode(mode, args.executor, codec)
            for mode in ("refactored", "compressed")
        },
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    n_steps = report["modes"]["refactored"]["n_steps"]
    print(f"fig10 pipeline ({report['cpu_count']} cores, {n_steps} steps):")
    for mode, r in report["modes"].items():
        stages = ", ".join(
            f"{n}={s * 1e3:.1f}ms"
            for n, s in zip(r["stage_names"], r["stage_seconds"])
        )
        print(
            f"  {mode:10s} [{stages}]\n"
            f"             serial {r['serial_wall_s'] * 1e3:7.1f} ms   "
            f"pipelined {r['pipelined_wall_s'] * 1e3:7.1f} ms "
            f"({r['measured_overlap_gain']:.2f}x measured, "
            f"{r['modeled_overlap_gain']:.2f}x modeled, "
            f"bottleneck {r['bottleneck']})"
        )
    print(f"[written to {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
