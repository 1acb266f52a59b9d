#!/usr/bin/env python
"""Kernel-backend sweep: the NumPy bodies against the C backend.

Times whole ``decompose`` / ``recompose`` at the end-to-end benchmark's
two shapes (129^3, 1025^2), then at 5^3, 17^3 and a (32, 65, 65)
``serve_sharded`` shard — where a call's fixed cost (policy, table and
workspace, the ctypes call) is most of it — and every other op of the launcher's table
(:mod:`repro.kernels.launcher`) on every backend available on this host,
times one ``stream_huffman`` key group through ``encode_classes`` with its
code-book chain (the ``huff_segment`` row: the whole segment encode — the
histogram, the reuse guard, the book build and the codes — per step, where
``huff_encode`` times the codes of a prebuilt book; recorded, not gated),
asserts bit identity between backends on every row *and* byte identity
of an end-to-end compressed container, measures what two threads make of
four 129^3 frames on each backend (``ctypes`` calls drop the GIL; NumPy's
short ufunc calls mostly do not overlap), times each C walk alone on a
worker of the thread executor against the same walk shared with the
pool's idle workers (at 129^3, 1025^2, 65^3 and (32, 65, 65)), and writes
the numbers to ``benchmarks/results/BENCH_kernels.json``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_micro_kernels.py

``REPRO_BENCH_SCALE=ci`` shrinks the workload for smoke runs.  Pass
``--assert-speedup`` to fail (exit 1) unless the native backend runs the
129^3 ``decompose`` and ``recompose`` at least 1.5x as fast as the reference, the assembly
of its classes into the refactored layout and the Huffman encode and
decode of a 65^3 high-entropy segment at least 3x, and — where
``available_workers() >= 2`` — the shared 129^3 ``decompose`` at least
1.3x as fast as the lone one; without a C compiler the gates are skipped
(there is nothing to gate) and the sweep records reference times only.
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

from repro.compress.mgard import MgardCompressor
from repro.core import native
from repro.core.decompose import decompose, recompose
from repro.core.grid import hierarchy_for
from repro.kernels.launcher import (OP_SPECS, available_backends, measure_backend_times, run_op,
                                    set_kernel_backend)
from repro.parallel import available_workers, get_executor
from repro.workloads.synthetic import multiscale

RESULTS = Path(__file__).parent / "results"

CI_SCALE = os.environ.get("REPRO_BENCH_SCALE") == "ci"

#: the end-to-end ``refactor`` workload's ladder; the gate reads the first
DRIVER_SHAPES = [(33, 33, 33), (129, 129)] if CI_SCALE else [(129, 129, 129), (1025, 1025)]
#: the per-call fixed cost: shapes whose whole walk takes well under a millisecond
FIXED_COST_SHAPES = [(5, 5, 5), (17, 17, 17), (32, 65, 65)]
OP_SHAPES = {
    **{op: (1 << 14,) if CI_SCALE else (1 << 20,) for op in ("quantize", "dequantize")},
    # the end-to-end ``stream_huffman`` workload's closed loop: one 65^3 step into its sum
    "dequantize_add": (17, 17, 17) if CI_SCALE else (65, 65, 65),
    # the end-to-end ``refactor`` workload's access: a 129^3 frame's classes
    **{op: (33, 33, 33) if CI_SCALE else (129, 129, 129) for op in ("extract", "assemble")},
    # the end-to-end ``stream_huffman`` workload's step: one 65^3 segment
    **{op: (33, 33, 33) if CI_SCALE else (65, 65, 65)
       for op in ("huff_lengths", "huff_encode", "huff_decode")},
}

#: minimum native-over-reference ratio per gated row
GATES = {"decompose": 1.5, "recompose": 1.5, "assemble": 3.0, "huff_encode": 3.0,
         "huff_decode": 3.0}

#: the lone and the shared walk: the refactor workload's ladder, the stream
#: workloads' step, a serve_sharded shard; the gate reads the first
TEAM_SHAPES = ([(65, 65, 65), (257, 257)] if CI_SCALE
               else [(129, 129, 129), (1025, 1025), (65, 65, 65), (32, 65, 65)])
#: minimum shared-over-lone ratio of its decompose, on two or more cores
TEAM_GATE = 1.3


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _identical(a, b) -> bool:
    """Bitwise equality of two results (arrays compare by buffer, tuples and
    lists item by item — the segment encode's ``(payload, bits, sync)``, the
    class split's classes)."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, (bytes, int)):
        return type(a) is type(b) and a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _speedup(row: dict) -> dict:
    if "native" in row["backends"]:
        row["speedup"] = row["backends"]["reference"] / row["backends"]["native"]
    return row


def sweep_driver(shape: tuple[int, ...], repeats: int) -> list[dict]:
    """Whole ``decompose`` and ``recompose`` of one frame per backend."""
    x = np.random.default_rng(0xBEEF).standard_normal(shape)
    hier = hierarchy_for(shape)
    rows = {name: {"op": name, "shape": list(shape), "dtype": "float64", "backends": {}}
            for name in ("decompose", "recompose")}
    outputs = {}
    for backend in available_backends():
        with native.forced(backend):
            coeffs = decompose(x, hier)  # warm: hierarchy operators, the library
            rows["decompose"]["backends"][backend], coeffs = _best_of(lambda: decompose(x, hier), repeats)
            rows["recompose"]["backends"][backend], back = _best_of(lambda: recompose(coeffs, hier), repeats)
        outputs[backend] = (coeffs, back)
    for coeffs, back in outputs.values():
        if not (_identical(coeffs, outputs["reference"][0]) and _identical(back, outputs["reference"][1])):
            raise AssertionError(f"backends diverge on decompose/recompose at {shape}")
    return [_speedup(row) for row in rows.values()]


def sweep_op(op: str, shape: tuple[int, ...], repeats: int) -> dict:
    """One op of the launcher's table per backend; assert bit identity."""
    args = OP_SPECS[op].make_inputs(shape, np.dtype(np.float64), np.random.default_rng(0xC0FFEE))
    reference = run_op("reference", op, *args)
    for name in available_backends():
        if not _identical(run_op(name, op, *args), reference):
            raise AssertionError(f"backend {name!r} diverges from reference on {op}")
    return _speedup({"op": op, "shape": list(shape), "dtype": "float64",
                     "backends": measure_backend_times(op, shape, np.float64, repeats)})


def huffman_key_group(shape: tuple[int, ...], repeats: int) -> dict:
    """One key group of the ``stream_huffman`` workload — float32 steps of a
    drifting field under 1e-3 noise at ``tol`` 1e-5, ``key_interval`` 8 —
    through ``encode_classes`` with its code-book chain, per backend: the
    steps' ``encode_classes`` calls are recorded from a stream writer once and
    replayed with a fresh chain per repeat; time per step, bit identity of
    every payload and header."""
    from repro.compress import mgard
    from repro.io.stream import StepStreamWriter

    base = multiscale(shape, seed=7)
    base = (base - base.min()) / (base.max() - base.min())
    drift = np.cos(np.pi * np.linspace(0.0, 1.0, shape[0])).reshape(-1, *[1] * (len(shape) - 1))
    noise = np.random.default_rng(7)
    calls = []
    encode = mgard.encode_classes

    def record(bins, sizes, **kw):
        calls.append((np.array(bins), list(sizes), kw["refresh"], kw["context"]))
        return encode(bins, sizes, **kw)

    mgard.encode_classes = record
    try:
        with tempfile.TemporaryDirectory() as root:
            writer = StepStreamWriter(Path(root) / "s", shape, tol=1e-5, backend="huffman",
                                      key_interval=8)
            for t in range(8):
                frame = base + 0.02 * t * drift + 1e-3 * noise.standard_normal(shape)
                writer.append(frame.astype(np.float32), time=float(t))
    finally:
        mgard.encode_classes = encode

    def replay():
        scratch = {}
        return [encode(bins, sizes, backend="huffman", scratch=scratch, refresh=refresh,
                       context=context) for bins, sizes, refresh, context in calls]

    row = {"op": "huff_segment", "shape": list(shape), "dtype": "float32", "steps": len(calls),
           "backends": {}}
    outputs = {}
    for backend in available_backends():
        with native.forced(backend):
            seconds, outputs[backend] = _best_of(replay, repeats)
        row["backends"][backend] = seconds / len(calls)
    for out in outputs.values():
        if [(p, json.dumps(h)) for p, h in out] != [(p, json.dumps(h)) for p, h in outputs["reference"]]:
            raise AssertionError("backends diverge on the huffman key group")
    return _speedup(row)


def thread_scaling(shape: tuple[int, ...], repeats: int) -> dict:
    """Four frames decomposed one after another and on two threads, per
    backend, every walk alone: on a worker of a pool (the serial side on a
    one-worker pool)."""
    frames = [np.random.default_rng(i).standard_normal(shape) for i in range(4)]
    hier = hierarchy_for(shape)

    def one(backend, frame):
        with native.forced(backend):
            return decompose(frame, hier)

    out = {"shape": list(shape), "frames": len(frames), "threads": 2, "backends": {}}
    alone, pool = get_executor("thread:1"), get_executor("thread:2")
    for backend in available_backends():
        serial, _ = _best_of(lambda: alone.map(lambda f: one(backend, f), frames), repeats)
        threaded, _ = _best_of(lambda: pool.map(lambda f: one(backend, f), frames), repeats)
        out["backends"][backend] = {"serial_s": serial, "two_threads_s": threaded,
                                    "speedup_over_serial": serial / threaded}
    return out


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def team_walks(shape: tuple[int, ...], repeats: int) -> list[dict]:
    """The C walk alone — on a worker of the thread executor — and shared by
    the calling thread with the pool's idle workers, taking turns; asserts
    their bit identity."""
    x = np.random.default_rng(0xBEEF).standard_normal(shape)
    hier = hierarchy_for(shape)
    pool = get_executor("thread")
    rows = []
    set_kernel_backend("native")  # process-wide: the lone walks run on pool workers
    try:
        for name, fn, arg in (("decompose", decompose, x), ("recompose", recompose, decompose(x, hier))):
            lone = shared = float("inf")
            for _ in range(repeats):
                t, alone = pool.submit(_timed, fn, arg, hier).result()
                lone = min(lone, t)
                t, team = _timed(fn, arg, hier)
                shared = min(shared, t)
                if not _identical(alone, team):
                    raise AssertionError(f"the shared {name} diverges from the lone one at {shape}")
            rows.append({"op": name, "shape": list(shape), "dtype": "float64",
                         "members": available_workers(), "lone_s": lone, "shared_s": shared,
                         "speedup": lone / shared})
    finally:
        set_kernel_backend(None)
    return rows


def container_identity() -> dict:
    """End-to-end compressed containers must not depend on the backend."""
    side = 17 if CI_SCALE else 33
    shape = (side, side, side)
    data = multiscale(shape, seed=7)
    tol = 1e-3 * float(data.max() - data.min())
    payloads = {}
    try:
        for name in available_backends():
            set_kernel_backend(name)
            comp = MgardCompressor(hierarchy_for(shape), tol, backend="huffman")
            frame = comp.compress(data)
            payloads[name] = (b"".join(frame.payloads), json.dumps(frame.headers))
    finally:
        set_kernel_backend(None)
    ref = payloads["reference"]
    identical = all(p == ref for p in payloads.values())
    if not identical:
        raise AssertionError("compressed containers differ across kernel backends")
    return {
        "shape": list(shape),
        "backends": sorted(payloads),
        "container_bytes": len(ref[0]),
        "byte_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(RESULTS / "BENCH_kernels.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--repeats", type=int, default=3 if CI_SCALE else 7, help="best-of repeats"
    )
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help=f"fail unless native runs the {'x'.join(map(str, DRIVER_SHAPES[0]))} decompose "
        f">= {GATES['decompose']}x, the recompose >= {GATES['recompose']}x, the class assembly >= {GATES['assemble']}x, the Huffman "
        f"encode >= {GATES['huff_encode']}x and decode >= {GATES['huff_decode']}x as fast as "
        f"reference, and the shared {'x'.join(map(str, TEAM_SHAPES[0]))} decompose >= {TEAM_GATE}x "
        f"the lone one on >= 2 cores (skipped with no C compiler)",
    )
    args = parser.parse_args(argv)

    rows = [row for shape in DRIVER_SHAPES for row in sweep_driver(shape, args.repeats)]
    rows += [row for shape in FIXED_COST_SHAPES for row in sweep_driver(shape, 30 * args.repeats)]
    rows += [sweep_op(op, OP_SHAPES[op], args.repeats) for op in OP_SPECS if op in OP_SHAPES]
    rows.append(huffman_key_group(OP_SHAPES["huff_encode"], args.repeats))
    scaling = thread_scaling(DRIVER_SHAPES[0], max(args.repeats // 2, 2))
    team = ([row for shape in TEAM_SHAPES for row in team_walks(shape, 3 * args.repeats)]
            if native.available() else [])
    container = container_identity()

    record = {
        "benchmark": "kernel_backends",
        "cpu_count": os.cpu_count(),
        "native_available": native.available(),
        "scale": "ci" if CI_SCALE else "full",
        "repeats": args.repeats,
        "ops": rows,
        "thread_scaling": scaling,
        "team_walks": team,
        "container_identity": container,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")

    for row in rows:
        per = "   ".join(
            f"{n} {s * 1e3:8.3f} ms" for n, s in sorted(row["backends"].items(), reverse=True)
        )
        gain = f"   ({row['speedup']:.2f}x)" if "speedup" in row else ""
        print(f"{row['op']:14s} {str(tuple(row['shape'])):16s} {per}{gain}")
    for row in team:
        print(f"{row['op']:14s} {str(tuple(row['shape'])):16s} lone {row['lone_s'] * 1e3:8.3f} ms   "
              f"shared by {row['members']} {row['shared_s'] * 1e3:8.3f} ms   ({row['speedup']:.2f}x)")
    for name, t in scaling["backends"].items():
        print(f"4 x {tuple(scaling['shape'])} decompose, {name}: serial {t['serial_s'] * 1e3:.1f} ms, "
              f"two threads {t['two_threads_s'] * 1e3:.1f} ms ({t['speedup_over_serial']:.2f}x)")
    print(
        f"container identity across {container['backends']}: "
        f"{container['byte_identical']} ({container['container_bytes']} bytes)"
    )
    print(f"[json record written to {out}]")

    if args.assert_speedup:
        if not native.available():
            print("no C compiler: native backend unavailable; speedup gate skipped")
            return 0
        for op, floor in GATES.items():
            gain = next(row for row in rows if row["op"] == op)["speedup"]  # (re)compose: 3D first
            if gain < floor:
                print(f"FAIL: native {op} speedup {gain:.2f}x < {floor}x", file=sys.stderr)
                return 1
            print(f"speedup gate passed: {op} {gain:.2f}x >= {floor}x")
        if available_workers() < 2:
            print("one core: no helper joins a walk; shared-walk gate skipped")
            return 0
        gain = team[0]["speedup"]
        if gain < TEAM_GATE:
            print(f"FAIL: shared {team[0]['op']} at {tuple(team[0]['shape'])} {gain:.2f}x "
                  f"< {TEAM_GATE}x the lone one", file=sys.stderr)
            return 1
        print(f"speedup gate passed: shared {team[0]['op']} {gain:.2f}x >= {TEAM_GATE}x the lone one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
