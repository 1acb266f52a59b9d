"""The four workloads of the end-to-end benchmark.

Each workload function runs inside its own worker process (see
``run.py``).  It generates its inputs from the seed, sets the program up
(timed as set-up), then issues calls into the program's public functions
in a closed loop until its share of ``--seconds`` is spent, checking
every output against its source frame.

Every layer is measured from outside.  A traced run alternates: even
units (key groups, steps, cycles) make the same fused call the untraced
run makes, odd units go through the split public seams
(``predict_step`` → ``encode_predicted`` → ``commit_step``,
``shard_step`` → ``encode_sharded``) under spans.  After each traced
call the captured intermediates are *replayed* through the layer
functions (``decompose``, ``extract_classes``, ``quantize_flat``,
``encode_classes``, ``load_compressed`` …) to time each one alone; every
replay is checked bit for bit against what the real call produced, so
the attribution is known to be of the same work.
"""

from __future__ import annotations

import io
import re
import resource
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from fields import FieldSource
from hostref import HostReference

__all__ = ["WORKLOADS", "Run"]

# serve_sharded: share of --seconds under service load, and of local reads
# after it.  The sharded ingest with its local reads is of fixed size.
_SERVE_LOAD = 0.45
_LOCAL_AFTER_SERVE = 0.20
#: the request cycle of serve_sharded is part of the workload, like its shape;
#: this one touches 17 of the 32 steps and hits an 8-step LRU 53 % of the time
_CYCLE_SEED = 1


class Recorder:
    """Timed calls of one thread: samples by name, attempts, failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: in a traced run, the samples of traced and of fused units apart
        self.traced_s: dict[str, list[float]] = defaultdict(list)
        self.fused_s: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.worst_err_over_tol = 0.0

    def op(self, name: str, fn, *args, rid=None, traced=True):
        """One operation: a call into the program that a user would make.
        A raise is a failed operation."""
        self.attempted += 1
        spanned = self.tracer is not None and traced
        span = self.tracer.span(name, rid) if spanned else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args)
        except Exception:  # the loop must go on; the failure is counted
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        self.samples[name].append(dt)
        if self.tracer is not None:
            (self.traced_s if traced else self.fused_s)[name].append(dt)
        return out

    def check_close(self, got, want, tol: float) -> None:
        """Count the operation that returned ``got`` as failed unless
        ``max|got - want| <= tol``."""
        if got is None:
            return  # counted when it raised
        err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)))
        if not err <= tol:
            self.failed += 1
        else:
            self.worst_err_over_tol = max(self.worst_err_over_tol, err / tol)

    def check(self, ok: bool) -> None:
        if not ok:
            self.failed += 1

    def merge(self, other: "Recorder") -> None:
        for mine, theirs in ((self.samples, other.samples), (self.traced_s, other.traced_s),
                             (self.fused_s, other.fused_s)):
            for name, values in theirs.items():
                mine[name].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst_err_over_tol = max(self.worst_err_over_tol, other.worst_err_over_tol)


class Run(Recorder):
    """State of one worker process."""

    def __init__(self, *, seed, seconds, workdir, tracer=None, setup_only=False, perturb=False):
        super().__init__(tracer)
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = Path(workdir)
        self.setup_only = setup_only
        #: selftest's negative check: corrupt one read-back before checking it
        self.perturb = perturb
        self.setup_s = 0.0
        self.hierarchy_cold_s = 0.0
        self.children_rss_kb = 0
        #: ticked between operations all along the run (hostref.py)
        self.host = HostReference()
        #: replay[layer] -> seconds of each replayed layer call
        self.replay: dict[str, list[float]] = defaultdict(list)
        #: ratios[phase][layer] -> per traced operation, layer seconds over the operation's wall
        self.ratios: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self._step: dict[str, float] = defaultdict(float)
        self.shares: dict[str, dict[str, float]] = {}

    @contextmanager
    def setting_up(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0

    def cold_core(self, x: np.ndarray) -> None:
        """First refactor round trip on an empty hierarchy cache: builds the
        hierarchy and its lazy per-level operators.  Part of set-up."""
        from repro import Refactorer
        from repro.core.grid import clear_hierarchy_cache

        clear_hierarchy_cache()
        t0 = time.perf_counter()
        with self.setting_up():
            r = Refactorer(x.shape)
            r.recompose(r.decompose(np.asarray(x, dtype=np.float64)))
        self.hierarchy_cold_s = time.perf_counter() - t0

    def deadline(self, share: float) -> float:
        return time.perf_counter() + share * self.seconds

    def traced(self, unit: int) -> bool:
        """Untraced runs trace nothing; traced runs trace the odd units."""
        return self.tracer is not None and unit % 2 == 1

    def seam(self, name: str, fn, *args, leaf=False, **kwargs):
        """One public seam inside a traced operation: a child span.  A
        ``leaf`` seam is a layer of its own, one no replay breaks down."""
        with self.tracer.span(name) as span:
            out = fn(*args, **kwargs)
        self.samples[name].append(span.dur)
        if leaf:
            self._step[name] += span.dur
        return out

    def replayed(self, phase: str, layer: str, fn, *args, **kwargs):
        """Time one layer function alone on a captured intermediate."""
        with self.tracer.span(f"replay.{layer}") as span:
            out = fn(*args, **kwargs)
        self.replay[layer].append(span.dur)
        if phase != "extra":  # "extra" replays are not part of the traced operation
            self._step[layer] += span.dur
        return out

    def step_done(self, phase: str, wall: float) -> None:
        """Close one traced operation: what each layer took, over its wall.
        Taken per operation because an operation and its replays sit in the
        same spell of the host, fast or slow."""
        for layer, t in self._step.items():
            self.ratios[phase][layer].append(t / wall)
        self._step.clear()

    def share_out(self, phase: str) -> None:
        """Each layer's share of the traced operations of one phase (median
        over operations); what no layer accounts for is the residual."""
        if self.ratios[phase]:
            out = {layer: float(median(v)) for layer, v in self.ratios[phase].items()}
            out["residual"] = 1.0 - sum(out.values())
            self.shares[phase] = out

    def overhead(self, names) -> float:
        """Traced over fused best wall of the same operations, minus one."""
        names = [n for n in names if self.traced_s[n] and self.fused_s[n]]
        fused = sum(_best(self.fused_s[n]) for n in names)
        return sum(_best(self.traced_s[n]) for n in names) / fused - 1.0 if fused else 0.0

    def replay_best(self, layer: str) -> float:
        return _best(self.replay[layer])


def _best(values) -> float:
    """The best observed wall time of one class of operation.

    Interference from the host's other tenants comes in bursts of seconds
    to minutes and only ever adds time, so on a shared host the median of
    a run follows the neighbours and the best time follows the code
    (README.md, "Why best-of", has the measurements).  Operations whose
    cost depends on their input are split into classes first (key and
    delta steps), or made one class (every seek replays the same chain)."""
    return float(min(values)) if len(values) else 0.0


# ----------------------------------------------------------------------
# refactor: the paper's own metric, core only


def refactor(run: Run, cfg: dict) -> dict:
    src3 = FieldSource(cfg["shape3"], run.seed)
    src2 = FieldSource(cfg["shape2"], run.seed)
    with run.setting_up():
        from repro import Refactorer
        from repro.core.classes import (
            CoefficientClasses,
            assemble_from_classes,
            extract_classes,
        )
        from repro.core.decompose import recompose

    run.cold_core(src3.frame(0))
    x2 = src2.frame(0)
    with run.setting_up():
        r3 = Refactorer(cfg["shape3"])
        r2 = Refactorer(cfg["shape2"])
        r2.recompose(r2.decompose(x2))
    if run.setup_only:
        return {}

    def round_trip(r, x, kind, traced):
        y = run.op(f"decompose_{kind}", r.decompose, x, traced=traced)
        z = run.op(f"recompose_{kind}", r.recompose, y, traced=traced) if y is not None else None
        run.check_close(z, x, 1e-12 * float(np.abs(x).max()))
        return y

    s = run.samples
    end = run.deadline(1.0)
    cycle = 0
    while cycle < 2 or time.perf_counter() < end:
        traced = run.traced(cycle)
        x3, x2 = src3.frame(cycle), src2.frame(cycle)
        y3 = round_trip(r3, x3, "3d", traced)
        run.host.tick()
        round_trip(r2, x2, "2d", traced)
        run.host.tick()
        if y3 is not None:
            # a consumer holding the stored classes reconstructs the field
            cc = CoefficientClasses(r3.hier, extract_classes(y3, r3.hier))
            z3 = run.op("access", r3.reconstruct, cc, traced=traced)
            run.check_close(z3, x3, 1e-12 * float(np.abs(x3).max()))
            run.host.tick()
            if traced:
                run.replayed("extra", "core.classes", extract_classes, y3, r3.hier)
                full = run.replayed("access", "core.classes", assemble_from_classes, cc.classes, r3.hier)
                run.replayed("access", "core.recompose", recompose, full, r3.hier)
                run.step_done("access", s["access"][-1])
        cycle += 1

    kinds = [f"{d}_{k}" for d in ("decompose", "recompose") for k in ("3d", "2d")]
    ladder_mb = (src3.frame_bytes + src2.frame_bytes) / 1e6
    e2e = {
        "encode_MBps": ladder_mb / (_best(s["decompose_3d"]) + _best(s["decompose_2d"])),
        "decode_MBps": ladder_mb / (_best(s["recompose_3d"]) + _best(s["recompose_2d"])),
        "access_ms": 1e3 * _best(s["access"]),
        "ops_per_s": 1.0 / (_best(s["decompose_3d"]) + _best(s["recompose_3d"])),
    }
    layers = {}
    if run.tracer is not None:
        layers = {f"core.{kind}_s": _best(s[kind]) for kind in kinds}
        layers["core.decompose_s"] = layers["core.decompose_3d_s"]
        layers["core.recompose_s"] = layers["core.recompose_3d_s"]
        layers["core.classes_s"] = run.replay_best("core.classes")
        layers["trace.overhead_frac"] = run.overhead(kinds + ["access"])
        run.share_out("access")
    return {"e2e": e2e, "layers": layers,
            "samples": {name: len(s[name]) for name in ("decompose_3d", "decompose_2d", "access")}}


# ----------------------------------------------------------------------
# stream_zlib / stream_huffman: producer → consumer over one directory


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file())


def stream(run: Run, cfg: dict) -> dict:
    shape, tol, backend, ki = cfg["shape"], cfg["tol"], cfg["backend"], cfg["key_interval"]
    src = FieldSource(shape, run.seed, cfg["dtype"], cfg["noise"])
    with run.setting_up():
        from repro.compress.fileio import load_compressed, save_compressed
        from repro.compress.lossless import decode_classes, encode_classes
        from repro.compress.quantizer import Quantizer
        from repro.core.classes import (
            CoefficientClasses,
            assemble_from_classes,
            extract_classes,
        )
        from repro.core.decompose import decompose, recompose
        from repro.core.grid import hierarchy_for
        from repro.io.stream import StepStreamReader, StepStreamWriter
        from repro.parallel.executors import get_executor

    def writer(root):
        return StepStreamWriter(root, shape, tol=tol, backend=backend, key_interval=ki)

    f0 = src.frame(0)
    run.cold_core(f0)
    with run.setting_up():
        # one key step written and read back on a scratch stream, so the
        # plan cache and both code paths exist before anything is timed
        warm = writer(run.workdir / "warm")
        warm.append(f0, 0.0)
        StepStreamReader(run.workdir / "warm").read_step(0)
        root = run.workdir / "stream"
        w = writer(root)
    if run.setup_only:
        return {}

    hier = hierarchy_for(tuple(shape))
    serial = get_executor("serial")
    quantizer = Quantizer(tol, mode="level")
    s = run.samples
    counts: dict[str, int] = defaultdict(int)

    def f64(a):
        return np.asarray(a, dtype=np.float64)

    def append_split(frame, t):  # what StepStreamWriter.append fuses
        pred = run.seam("compress.predict", w.predict_step, frame, time=t)
        prep = run.seam("io.encode_step", w.encode_predicted, pred)
        run.seam("io.commit", w.commit_step, prep, leaf=True)
        return pred.plan, prep

    def replay_append(frame, plan, prep, chain):
        # what predict_step refactors: the frame as given at a key step, else the residual
        target = np.ascontiguousarray(frame) if plan.is_key else frame - chain["recon"]
        refd = run.replayed("ingest", "core.decompose", decompose, target, hier)
        classes = run.replayed("ingest", "core.classes", extract_classes, refd, hier)
        bins, sizes, steps = run.replayed(
            "ingest", "compress.quantize", quantizer.quantize_flat, CoefficientClasses(hier, classes))
        run.check(np.array_equal(bins, plan.prepared.bins))
        deq = run.replayed("ingest", "compress.dequantize", Quantizer.dequantize_flat, bins, sizes, steps)
        full = run.replayed("ingest", "core.classes", assemble_from_classes, deq, hier)
        recon = run.replayed("ingest", "core.recompose", recompose, full, hier)
        chain["recon"] = recon if plan.is_key else chain["recon"] + recon
        payload, _ = run.replayed(
            "ingest", "compress.entropy_encode", encode_classes, bins, sizes, backend=backend,
            executor=serial, scratch=chain["books"] if backend == "huffman" else None,
            refresh=plan.refresh, context=plan.context)
        blob, _ = run.replayed("extra", "compress.fileio_load", load_compressed, prep.payload)
        run.check(payload == blob.payloads[0])
        run.replayed("ingest", "compress.fileio_save", save_compressed, io.BytesIO(), blob,
                     materialize=False)
        counts["symbols"] += int(bins.size)
        counts["payload_bits"] += 8 * len(payload)
        counts["segments"] += len(blob.headers[0]["segments"])
        counts["segments_reusing"] += sum("table_ref" in seg for seg in blob.headers[0]["segments"])
        s["commit_bytes"].append(len(prep.payload))

    def replay_read(i, got, chain):
        meta = follower.steps[i]
        blob, _ = run.replayed("readback", "compress.fileio_load", load_compressed, root / meta["file"])
        flat, sizes = run.replayed(
            "readback", "compress.entropy_decode", decode_classes, blob.payloads[0], blob.headers[0],
            executor=serial, scratch=chain["read_books"])
        deq = run.replayed("readback", "compress.dequantize", Quantizer.dequantize_flat, flat, sizes,
                           blob.steps)
        full = run.replayed("readback", "core.classes", assemble_from_classes, deq, hier)
        delta = run.replayed("readback", "core.recompose", recompose, full, hier)
        chain["prev"] = delta if meta["is_key"] else chain["prev"] + delta
        run.check(np.array_equal(chain["prev"], got))

    # One loop for the whole window, so that every class of operation is
    # sampled all along it: the producer appends step t, a consumer following
    # it reads step t, and after every other step a cold consumer (a fresh
    # reader, cache_steps=0) seeks into a random earlier group.  Every seek lands
    # at the same offset into its group, so all seeks replay the same chain
    # length and are one class of operation.
    t0 = time.perf_counter()
    follower = StepStreamReader(root)
    reader_open_s = time.perf_counter() - t0
    rng = np.random.default_rng([run.seed, 1])
    seek_offset = min(2, ki - 1)
    end = run.deadline(1.0)
    t, group_wall = 0, 0.0
    while t < 2 * ki or t % ki or time.perf_counter() + group_wall / 2 < end:  # only whole groups
        if t % ki == 0:
            group_began = time.perf_counter()
            traced = run.traced(t // ki)
            chain = {"recon": None, "books": {}, "prev": None, "read_books": {}}
        key = "key" if t % ki == 0 else "delta"
        frame = src.frame(t)
        if traced:
            done = run.op(f"ingest_{key}", append_split, frame, float(t), rid=t)
            if done is not None:
                replay_append(frame, *done, chain)
                run.step_done("ingest", s[f"ingest_{key}"][-1])
        else:
            run.op(f"ingest_{key}", w.append, frame, float(t), rid=t, traced=False)

        follower.refresh()
        got = run.op(f"readback_{key}", follower.read_step, t, rid=t, traced=traced)
        if run.perturb and t == 1 and got is not None:
            got = got + 2.0 * tol
        run.check_close(got, f64(frame), tol)
        if traced and got is not None:
            replay_read(t, got, chain)
            run.step_done("readback", s[f"readback_{key}"][-1])

        run.host.tick()
        if t >= ki and t % 2:  # a whole earlier group exists
            step = int(rng.integers(t // ki)) * ki + seek_offset
            # a reader opened for this one read, so the chain is replayed from its key step
            seeker = StepStreamReader(root, cache_steps=0)
            got = run.op("seek", seeker.read_step, step, rid=step)
            run.check_close(got, f64(src.frame(step)), tol)
        t += 1
        if t % ki == 0:
            group_wall = time.perf_counter() - group_began
    n_steps = t

    def group_s(kind):  # one key group: its key step and its ki - 1 delta steps
        return _best(s[kind + "_key"]) + (ki - 1) * _best(s[kind + "_delta"])

    e2e = {
        "encode_MBps": ki * src.frame_bytes / 1e6 / group_s("ingest"),
        "decode_MBps": ki * int(np.prod(shape)) * 8 / 1e6 / group_s("readback"),
        "access_ms": 1e3 * _best(s["seek"]),
        "ops_per_s": ki / (group_s("ingest") + group_s("readback")),
    }
    layers = {"io.stored_ratio": n_steps * src.frame_bytes / _dir_bytes(root)}
    if run.tracer is not None:
        layers.update({
            "core.decompose_s": run.replay_best("core.decompose"),
            "core.recompose_s": run.replay_best("core.recompose"),
            "core.classes_s": run.replay_best("core.classes"),
            "compress.predict_s": _best(s["compress.predict"]),
            "compress.quantize_s": run.replay_best("compress.quantize"),
            "compress.dequantize_s": run.replay_best("compress.dequantize"),
            "compress.entropy_encode_s": run.replay_best("compress.entropy_encode"),
            "compress.entropy_decode_s": run.replay_best("compress.entropy_decode"),
            "compress.bits_per_symbol": counts["payload_bits"] / counts["symbols"],
            "compress.codebook_reuse_frac": counts["segments_reusing"] / counts["segments"],
            "compress.fileio_save_s": run.replay_best("compress.fileio_save"),
            "compress.fileio_load_s": run.replay_best("compress.fileio_load"),
            "io.encode_step_s": _best(s["io.encode_step"]),
            "io.commit_s": _best(s["io.commit"]),
            "io.commit_bytes": float(median(s["commit_bytes"])),
            "io.manifest_bytes_last": (root / "manifest.json").stat().st_size,
            "io.reader_open_s": reader_open_s,
            "io.read_step_s": group_s("readback") / ki,
            "io.read_seek_s": _best(s["seek"]),
            "io.seek_replay_steps": seek_offset + 1,
            "trace.overhead_frac": run.overhead(
                ["ingest_key", "ingest_delta", "readback_key", "readback_delta"]),
        })
        run.share_out("ingest")
        run.share_out("readback")
    return {"e2e": e2e, "layers": layers,
            "samples": {"ingest": n_steps, "readback": len(s["readback_key"]) + len(s["readback_delta"]),
                        "seek": len(s["seek"])}}


# ----------------------------------------------------------------------
# serve_sharded: sharded ingest, region reads, and the TCP service


def _zipf_cdf(n: int, a: float = 1.3) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** a
    return np.cumsum(w / w.sum())


def _slab(rng, bounds, shape) -> tuple[slice, slice]:
    """A sub-volume whose rows fall inside one shard, half of axis 1 wide."""
    a, b = bounds[int(rng.integers(len(bounds)))]
    lo = int(rng.integers(a, b - 1))
    hi = int(rng.integers(lo + 1, b)) + 1
    c = int(rng.integers(0, shape[1] // 2))
    return (slice(lo, hi), slice(c, c + shape[1] // 2))


def _request_cycle(n_ops: int, n_steps: int, bounds, shape) -> list[tuple]:
    """One lap of the service load, ``(kind, popularity rank, region)`` per
    request: 60 % ``get_region``, 35 % ``get_step``, 5 % ``put_step``; the step
    of a get is 80 % Zipf(1.3) over a ranking, 20 % uniform, and after each put
    one ``get_step`` reads back the step put last (kind ``"last"``)."""
    rng = np.random.default_rng(_CYCLE_SEED)
    n_put = max(round(0.05 * n_ops), 1)
    n_region = round(0.60 * n_ops)
    kinds = ["put", "last"] * n_put + ["region"] * n_region
    kinds += ["step"] * (n_ops - len(kinds))
    rng.shuffle(kinds)
    cdf = _zipf_cdf(n_steps)
    cycle = []
    for kind in kinds:
        rank = int(np.searchsorted(cdf, rng.random())) if rng.random() < 0.8 else int(rng.integers(n_steps))
        cycle.append((kind, rank, _slab(rng, bounds, shape) if kind == "region" else None))
    return cycle


def _spawn_server(run: Run, root: Path, cfg: dict) -> tuple[subprocess.Popen, int]:
    """``python -m repro.service.server`` over ``root``; returns (child, port)."""
    cache_bytes = cfg["cache_steps"] * int(np.prod(cfg["shape"])) * 8 + 4096
    with open(run.workdir / "server.err", "ab") as log:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server", str(root), "--port", "0",
             "--tol", repr(cfg["tol"]), "--backend", cfg["backend"], "--shards", str(cfg["shards"]),
             "--executor", cfg["executor"], "--cache-bytes", str(cache_bytes)],
            stdout=subprocess.PIPE, stderr=log, cwd=run.workdir)
    line = child.stdout.readline().decode()
    found = re.search(r" on [\d.]+:(\d+) ", line)
    if found is None:
        _stop_server(run, child)
        raise RuntimeError(f"server did not start ({line!r}); see {run.workdir / 'server.err'}")
    return child, int(found.group(1))


def _stop_server(run: Run, child: subprocess.Popen) -> None:
    child.terminate()
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()
    run.children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _probe_service(run: Run, conn, src: FieldSource, n0: int, tol: float) -> dict[str, float]:
    """One connection with nothing else running: the first get of a step
    is a miss, its repeats are hits."""
    for _ in range(20):
        run.op("service.ping", conn.ping)
    for step in range(0, n0, max(n0 // 4, 1)):
        got = run.op("service.get_miss", conn.get_step, step, rid=step)
        run.check_close(got, src.frame(step), tol)
        for _ in range(5):
            run.op("service.get_hit", conn.get_step, step, rid=step)
    hit = _best(run.samples["service.get_hit"])
    return {
        "service.ping_ms": 1e3 * _best(run.samples["service.ping"]),
        "service.get_hit_ms": 1e3 * hit,
        "service.get_miss_ms": 1e3 * _best(run.samples["service.get_miss"]),
        "service.wire_MBps": src.frame_bytes / 1e6 / hit,
    }


def serve_sharded(run: Run, cfg: dict) -> dict:
    shape, tol, n0 = cfg["shape"], cfg["tol"], cfg["steps"]
    src = FieldSource(shape, run.seed)
    with run.setting_up():
        from repro.cluster.sharded import (
            ShardCodec,
            decode_shard,
            encode_shards,
            plan_shards,
            shard_tolerance,
        )
        from repro.io.container import ShardedFileReader, write_sharded_stream
        from repro.io.stream import StepStreamReader, StepStreamWriter
        from repro.parallel.executors import get_executor
        from repro.service.client import ServiceClient

    def writer(root):
        return StepStreamWriter(root, shape, tol=tol, backend=cfg["backend"], shards=cfg["shards"],
                                executor=pool)

    plan = plan_shards(tuple(shape), cfg["shards"])
    bounds = list(zip(plan.starts, plan.stops))
    f0 = src.frame(0)
    run.cold_core(f0[slice(*bounds[0])])
    with run.setting_up():
        pool = get_executor(cfg["executor"])
        pool.prime()
        warm = writer(run.workdir / "warm")
        warm.append(f0, 0.0)
        StepStreamReader(run.workdir / "warm").read_region(0, (slice(0, 2),))
        root = run.workdir / "stream"
        w = writer(root)
    if run.setup_only:
        with run.setting_up():
            child, port = _spawn_server(run, run.workdir / "warm", cfg)
            try:
                with ServiceClient(port=port, timeout=30) as conn:
                    conn.ping()
            finally:
                _stop_server(run, child)
        return {}

    serial = get_executor("serial")
    codec = ShardCodec(tol=shard_tolerance(tol, cfg["shards"]), mode="level", backend=cfg["backend"])
    s = run.samples

    def append_split(frame, t):
        ss = w.shard_step(frame, time=t)
        prep = run.seam("io.encode_step", w.encode_sharded, ss)
        run.seam("io.commit", w.commit_step, prep, leaf=True)
        return prep

    def replay_append(frame, t, prep):
        payloads = run.replayed("ingest", "cluster.encode_shards", encode_shards, frame, plan, codec, pool)
        again = run.replayed("extra", "cluster.encode_shards_serial", encode_shards, frame, plan, codec,
                             serial)
        run.check(payloads == again)
        buf = io.BytesIO()
        run.replayed("ingest", "io.write_sharded", write_sharded_stream, buf, plan.shape,
                     codec.payload_mode, bounds, payloads, attrs={"step": t, "time": float(t)})
        run.check(buf.getvalue() == prep.payload)
        s["commit_bytes"].append(len(prep.payload))

    rng = np.random.default_rng([run.seed, 2])
    n_regions = 0
    r = StepStreamReader(root, cache_steps=0)  # sharded steps decode alone: no cache, no chain, no state

    def local_reads(n_steps: int) -> None:
        """A cold consumer on the directory: one full step (all four shards,
        the service's miss path) and three slabs that fall inside one shard."""
        nonlocal n_regions
        run.host.tick()
        r.refresh()
        step = int(rng.integers(n_steps))
        got = run.op("readback", r.read_step, step, rid=step)
        run.check_close(got, src.frame(step), tol)
        for _ in range(3):
            step, region = int(rng.integers(n_steps)), _slab(rng, bounds, shape)
            traced = run.traced(n_regions)
            got = run.op("region", r.read_region, step, region, rid=step, traced=traced)
            if run.perturb and n_regions == 1 and got is not None:
                got = got + 2.0 * tol
            run.check_close(got, src.frame(step, region), tol)
            if traced:
                reader = ShardedFileReader(root / r.steps[step]["file"])
                for i in reader.shards_covering(region[0].start, region[0].stop):
                    run.replayed("region", "cluster.decode_shard", decode_shard, reader.read_shard(i),
                                 reader.payload_mode)
                run.step_done("region", s["region"][-1])
            n_regions += 1

    # -- ingest a fixed number of steps, so the service's working set is
    #    fixed; the local reads ride along, so that every class of operation
    #    is sampled all along the window and not in one short spell of it ---
    for t in range(n0):
        frame = src.frame(t)
        if run.traced(t):
            prep = run.op("ingest", append_split, frame, float(t), rid=t)
            if prep is not None:
                replay_append(frame, t, prep)
                run.step_done("ingest", s["ingest"][-1])
        else:
            run.op("ingest", w.append, frame, float(t), rid=t, traced=False)
        local_reads(t + 1)
    stored_ratio = n0 * src.frame_bytes / _dir_bytes(root)

    # -- serve: the TCP service over the same directory ------------------
    with run.setting_up():
        child, port = _spawn_server(run, root, cfg)
    probe: dict[str, float] = {}
    try:
        with run.setting_up():
            first = ServiceClient(port=port, timeout=60).connect()
            first.ping()
        if run.tracer is not None:
            probe = _probe_service(run, first, src, n0, tol)
        stats0 = first.stats()
        first.close()

        # The load is one fixed cycle of requests, gone round lap after lap by
        # the connections together, each taking the next request when its last
        # one has returned.  After the first lap the cache holds what the cycle
        # leaves in it, so every later lap is the same work with the same hits
        # and misses, and the laps are samples of one operation.  The seed picks
        # the data and which steps are popular, not the cycle: independent draws
        # of 250 requests moved the hit rate 0.46-0.64, and ops/s with it.
        cycle = _request_cycle(cfg["lap_ops"], n0, bounds, shape)
        rank_to_step = np.random.default_rng([run.seed, 3]).permutation(n0)
        frame_of = {i: i for i in range(n0)}  # step index -> source frame index
        lock = threading.Lock()
        taken: list[float] = []  # when request i was taken off the cycle
        load = {"last_put": int(rank_to_step[0]), "puts": 0, "stopped": None}
        end = run.deadline(_SERVE_LOAD)
        start = threading.Barrier(cfg["connections"] + 1)

        def client(rec: Recorder) -> None:
            # busy_retries=0: a shed request must surface as a failed operation
            with ServiceClient(port=port, timeout=60, busy_retries=0) as conn:
                start.wait()
                while True:
                    with lock:
                        i, now = len(taken), time.perf_counter()
                        if load["stopped"] is None and i >= 3 * len(cycle) and i % len(cycle) == 0 \
                                and now >= end:
                            load["stopped"] = now  # only whole laps
                        if load["stopped"] is not None:
                            return
                        taken.append(now)
                        kind, rank, region = cycle[i % len(cycle)]
                        if kind == "put":
                            t = n0 + load["puts"]
                            load["puts"] += 1
                        else:
                            step = load["last_put"] if kind == "last" else int(rank_to_step[rank])
                            t = frame_of[step]
                    if kind == "put":
                        idx = rec.op("put", conn.put_step, src.frame(t), float(t))
                        if idx is not None:
                            with lock:
                                frame_of[idx] = t
                                load["last_put"] = idx
                    elif region is not None:
                        got = rec.op("get", conn.get_region, step,
                                     [[sl.start, sl.stop] for sl in region], rid=step)
                        rec.check_close(got, src.frame(t, region), tol)
                    else:
                        got = rec.op("get", conn.get_step, step, rid=step)
                        rec.check_close(got, src.frame(t), tol)

        recs = [Recorder(run.tracer) for _ in range(cfg["connections"])]
        threads = [threading.Thread(target=client, args=(rec,)) for rec in recs]
        for th in threads:
            th.start()
        start.wait()
        t0 = time.perf_counter()
        for th in threads:
            while th.is_alive():
                th.join(timeout=1.0)
                if th.is_alive():
                    run.host.tick(1.0)  # sparser under load: a pass takes a core for 40 ms
        serve_wall = time.perf_counter() - t0
        # once the first lap has filled the cache, any len(cycle) requests in a
        # row are the whole cycle, from wherever they start: each is one lap
        took = taken[len(cycle):] + [load["stopped"]]
        laps = [b - a for a, b in zip(took, took[len(cycle):])]
        for rec in recs:
            run.merge(rec)
        with ServiceClient(port=port, timeout=30) as last:
            stats1 = last.stats()
    finally:
        _stop_server(run, child)

    # -- more samples of every local class; the appends go to the scratch
    #    stream, the served directory now has the server's steps in it --------
    end = run.deadline(_LOCAL_AFTER_SERVE)
    t = n0
    while t == n0 or time.perf_counter() < end:
        run.op("ingest", warm.append, src.frame(t), float(t), rid=t, traced=False)
        local_reads(n0)
        t += 1

    e2e = {
        "encode_MBps": src.frame_bytes / 1e6 / _best(s["ingest"]),
        "decode_MBps": src.frame_bytes / 1e6 / _best(s["readback"]),
        "access_ms": 1e3 * _best(s["region"]),
        "ops_per_s": len(cycle) / _best(laps),
    }

    def since(*keys):
        a, b = stats0, stats1
        for key in keys:
            a, b = a[key], b[key]
        return b - a

    hits, misses = since("cache", "hits"), since("cache", "misses")
    joined, leaders = since("batcher", "joined"), since("batcher", "leaders")
    layers = {
        "io.stored_ratio": stored_ratio,
        "service.cache_hit_rate": hits / max(hits + misses, 1),
        "service.coalesce_rate": joined / max(joined + leaders, 1),
        "service.shed": since("shed"),
        "service.errors": since("errors"),
        "service.get_p50_ms": 1e3 * float(median(s["get"])),
        "service.get_p95_ms": 1e3 * float(np.percentile(s["get"], 95)),
        "service.get_p99_ms": 1e3 * float(np.percentile(s["get"], 99)),
        "service.put_p50_ms": 1e3 * float(median(s["put"])),
        "service.ops_per_s_wall": (len(s["get"]) + len(s["put"])) / serve_wall,
    }
    if run.tracer is not None:
        layers.update(probe)
        layers.update({
            "io.encode_step_s": _best(s["io.encode_step"]),
            "io.commit_s": _best(s["io.commit"]),
            "io.commit_bytes": float(median(s["commit_bytes"])),
            "io.manifest_bytes_last": (root / "manifest.json").stat().st_size,
            "io.write_sharded_s": run.replay_best("io.write_sharded"),
            "io.read_step_s": _best(s["readback"]),
            "io.read_region_s": _best(s["region"]),
            "io.region_over_full": _best(s["region"]) / _best(s["readback"]),
            "cluster.decode_shard_s": run.replay_best("cluster.decode_shard"),
            "cluster.encode_shards_s": run.replay_best("cluster.encode_shards"),
            "cluster.encode_shards_serial_s": run.replay_best("cluster.encode_shards_serial"),
            "parallel.shard_speedup": run.replay_best("cluster.encode_shards_serial")
            / run.replay_best("cluster.encode_shards"),
            "service.miss_overhead_ms": probe["service.get_miss_ms"] - 1e3 * _best(s["readback"]),
            "trace.overhead_frac": run.overhead(["ingest", "region"]),
        })
        run.share_out("ingest")
        run.share_out("region")
    return {"e2e": e2e, "layers": layers,
            "samples": {**{name: len(s[name]) for name in ("ingest", "readback", "region", "get", "put")},
                        "lap": len(laps)}}


# ----------------------------------------------------------------------
# traffic dimensions; ``small`` is what --selftest runs

WORKLOADS = {
    "refactor": {
        "fn": refactor,
        "full": {"shape3": (129, 129, 129), "shape2": (1025, 1025)},
        "small": {"shape3": (33, 33, 33), "shape2": (129, 129)},
    },
    "stream_zlib": {
        "fn": stream,
        "full": {"shape": (65, 65, 65), "dtype": "f8", "noise": 0.0, "tol": 3e-3,
                 "backend": "zlib", "key_interval": 4},
        "small": {"shape": (33, 33, 33), "dtype": "f8", "noise": 0.0, "tol": 3e-3,
                  "backend": "zlib", "key_interval": 2},
    },
    "stream_huffman": {
        "fn": stream,
        "full": {"shape": (65, 65, 65), "dtype": "f4", "noise": 1e-3, "tol": 1e-5,
                 "backend": "huffman", "key_interval": 8},
        "small": {"shape": (17, 17, 17), "dtype": "f4", "noise": 1e-3, "tol": 1e-5,
                  "backend": "huffman", "key_interval": 2},
    },
    "serve_sharded": {
        "fn": serve_sharded,
        "full": {"shape": (128, 65, 65), "tol": 1e-3, "backend": "zlib", "shards": 4,
                 "executor": "thread:2", "steps": 32, "cache_steps": 8, "connections": 2,
                 "lap_ops": 40},
        "small": {"shape": (32, 17, 17), "tol": 1e-3, "backend": "zlib", "shards": 4,
                  "executor": "thread:2", "steps": 4, "cache_steps": 1, "connections": 2,
                  "lap_ops": 20},
    },
}
