"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --trace --out P.json  # + per-layer block, Chrome traces
    python3 benchmarks/e2e/run.py --workload refactor --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --selftest

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) that ``BENCHMARK.json`` declares.

Each measurement runs in fresh worker processes with a scrubbed
environment and a work directory under ``benchmarks/e2e/.work`` that is
removed afterwards: four that only set up, then one that sets up and
measures; ``setup_s`` is the median of the five.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from hostref import NOMINAL_PASS_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC_DIR = ROOT / "src"
WORK_ROOT = HERE / ".work"
DEFAULT_SEED = 2021
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 160

#: knobs of the program that would change what is measured
_SCRUB = re.compile(r"^REPRO_")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not _SCRUB.match(k) and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC_DIR)
    # the default table sits in benchmarks/results and would be read and rewritten
    env["REPRO_TUNE_CACHE"] = str(workdir / "kernel_tuning.json")
    return env


def host_stamp() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# worker: one workload in this process


def worker_main(args) -> int:
    # the parent's child_env put src/ on PYTHONPATH, for this process and the ones it starts
    from trace import Tracer  # benchmarks/e2e/trace.py: the script's directory leads sys.path

    from workloads import WORKLOADS, Run

    spec = WORKLOADS[args.workload]
    cfg = spec["small" if args.small else "full"]
    tracer = Tracer() if args.trace and not args.setup_only else None
    run = Run(seed=args.seed, seconds=args.seconds, workdir=args.workdir, tracer=tracer,
              setup_only=args.setup_only, perturb=args.perturb)
    result = spec["fn"](run, cfg)
    if args.setup_only:
        for _ in range(5):  # how fast the host ran while this set-up was timed
            run.host.run_pass()

    from repro.kernels import jit, launcher
    from repro.parallel.executors import default_spec

    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(
        setup_s=run.setup_s,
        attempted=run.attempted,
        failed=run.failed,
        peak_rss_MB=(own_rss_kb + run.children_rss_kb) / 1024.0,
        hierarchy_cold_s=run.hierarchy_cold_s,
        err_over_tol=run.worst_err_over_tol,
        shares=run.shares,
        host={"ref_pass_s": min(run.host.passes, default=0.0), "ref_passes": len(run.host.passes)},
        program={
            "numba_available": jit.HAVE_NUMBA,
            "kernel_backend_policy": launcher.kernel_backend_policy(),
            "kernel_backend": launcher.resolve("quantize", (1 << 16,), "float64").name,
            "default_executor": default_spec(),
            "workload_executor": cfg.get("executor", "serial"),
        },
    )
    if tracer is not None:
        result["self_times_s"] = tracer.self_times()
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.chrome_trace()))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: spawn workers, assemble the metrics


def _spawn_worker(name, seed, seconds, trace, workdir, env, *, setup_only=False, small=False,
                  perturb=False, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", name, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)), "--workdir", str(workdir)]
    cmd += ["--setup-only"] * setup_only + ["--small"] * small + ["--perturb"] * perturb
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    # its own session, so a timeout can also reach the server a worker started
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with code {child.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _shm_names() -> set[str]:
    """Segments under Python's default name, the one the program's executors
    create theirs under; other names belong to other tenants of the host."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def measure(name: str, seed: int, seconds: float, trace: bool, *, small=False, perturb=False,
            setup_repeats=SETUP_REPEATS, trace_out=None) -> dict:
    """One workload, measured once; returns its full result block."""
    bench = declared()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    shm_before = _shm_names()
    leftovers: list[str] = []
    try:
        env = child_env(workdir)
        workers = []
        # a traced run reports no setup_s, so it sets up once, in the measuring worker
        for i in range(0 if trace else setup_repeats - 1):
            sub = workdir / f"setup{i}"
            sub.mkdir()
            workers.append(_spawn_worker(name, seed, seconds, trace, sub, env, setup_only=True,
                                         small=small))
        main_dir = workdir / "main"
        main_dir.mkdir()
        res = _spawn_worker(name, seed, seconds, trace, main_dir, env, small=small, perturb=perturb,
                            trace_out=trace_out)
        workers.append(res)
        leftovers = [str(p.relative_to(workdir)) for p in workdir.rglob("*.tmp")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leftovers += sorted(f"/dev/shm/{n}" for n in _shm_names() - shm_before)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    # every timing as a host running at its nominal speed would have shown it
    # (hostref.py); a set-up goes by the passes of its own worker
    slowdown = res["host"]["ref_pass_s"] / NOMINAL_PASS_S
    setups = [w["setup_s"] * NOMINAL_PASS_S / w["host"]["ref_pass_s"] for w in workers]
    if trace:
        values = {m["name"]: 0.0 for m in bench["per_layer"]}  # a layer the workload never enters
        values.update(res["layers"])
        values["core.hierarchy_cold_s"] = res["hierarchy_cold_s"]
        values["compress.err_over_tol"] = res["err_over_tol"]
        values["trace.residual_frac"] = max(
            (share["residual"] for share in res["shares"].values()), key=abs, default=0.0)
        values["failed_frac"] = res["failed"] / res["attempted"]
        values["host.ref_pass_ms"] = 1e3 * res["host"]["ref_pass_s"]
        values["host.slowdown"] = slowdown
        keep = [m["name"] for m in bench["per_layer"]]
    else:
        # rates are the metrics that are better higher
        rate = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
        values = {k: v * slowdown if rate[k] else v / slowdown for k, v in res["e2e"].items()}
        values.update(setup_s=median(setups), peak_rss_MB=res["peak_rss_MB"])
        keep = [m["name"] for m in bench["end_to_end"]]
    return {
        "correct": res["failed"] == 0 and not leftovers,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in keep},
        "samples": dict(res["samples"], ref_pass=res["host"]["ref_passes"]),
        "as_timed": res["e2e"],
        "host_slowdown": slowdown,
        "setup_samples_s": setups,
        "setup_as_timed_s": [w["setup_s"] for w in workers],
        "leftovers": leftovers,
        "shares": res["shares"],
        "counters": {k: v for k, v in res["layers"].items() if k not in keep},
        "self_times_s": res.get("self_times_s", {}),
        "program": res["program"],
    }


def print_metrics(name: str, block: dict, trace: bool) -> None:
    print(f"== {name} ({'per-layer, traced' if trace else 'end-to-end'}; samples {block['samples']}; "
          f"attempted {block['attempted']}, failed {block['failed']}, correct {block['correct']})")
    for metric, v in block["metrics"].items():
        print(f"  {metric:32s} {v['value']:14.6g} {v['unit']}")
    as_timed = dict(block["as_timed"], setup_s=median(block["setup_as_timed_s"]))
    print(f"  host slowdown {block['host_slowdown']:.4f}; as timed: "
          + ", ".join(f"{k} {v:.6g}" for k, v in as_timed.items()))
    for phase, share in block["shares"].items():
        print(f"  share of {phase}: " + ", ".join(f"{k} {v:.3f}" for k, v in share.items()))
    for leftover in block["leftovers"]:
        print(f"  LEFT BEHIND: {leftover}")


# ----------------------------------------------------------------------
# --selftest


def selftest() -> int:
    from fields import digest

    bench = declared()
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in bench[key]]
    assert all(name_ok.match(n) for n in names), "a declared name is malformed"
    assert len(set(names)) == len(names), "a declared name is used twice"
    assert 2 <= len(bench["workloads"]) <= 8 and 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"]), "setup_s is not declared as the contract wants it"
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])

    assert digest((17, 17, 17), 1) == digest((17, 17, 17), 1), "fields.py is not deterministic"
    assert digest((17, 17, 17), 1) != digest((17, 17, 17), 2), "fields.py ignores its seed"
    assert digest((17, 17), 1, "f4", 1e-3) == digest((17, 17), 1, "f4", 1e-3)

    for w in bench["workloads"]:
        for trace in (False, True):
            block = measure(w["name"], DEFAULT_SEED, 0.5, trace, small=True, setup_repeats=1)
            want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            assert list(block["metrics"]) == want, f"{w['name']}: emitted names differ from declared"
            assert block["correct"], f"{w['name']} (trace={trace}): {block['failed']} failed, " \
                                     f"left behind {block['leftovers']}"
            if not trace:
                zero = [n for n, v in block["metrics"].items() if not v["value"] > 0]
                assert not zero, f"{w['name']}: end-to-end metrics not positive: {zero}"
            print(f"selftest: {w['name']} trace={int(trace)} ok ({block['attempted']} operations)")

    # the checker must check: a read-back moved by 2*tol has to be counted
    for name in ("stream_zlib", "serve_sharded"):
        block = measure(name, DEFAULT_SEED, 0.5, False, small=True, setup_repeats=1, perturb=True)
        assert block["failed"] == 1 and not block["correct"], \
            f"{name}: a perturbed read-back was not counted as failed"
        print(f"selftest: {name} perturbed read-back counted as failed ok")
    print("selftest: passed")
    return 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    bench = declared()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]],
                   help="run one workload and end with the one-line JSON result")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: the traced run, which reports the per-layer metrics")
    p.add_argument("--repeat", type=int, default=1, help="all-workload mode: runs, on seed, seed+1, …")
    p.add_argument("--out", type=Path, help="all-workload mode: write the record here")
    p.add_argument("--selftest", action="store_true")
    for flag in ("--worker", "--setup-only", "--small", "--perturb"):
        p.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--trace-out", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"run.py: the program is not here: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)
    if args.selftest:
        return selftest()

    if args.workload:
        block = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(args.workload, block, bool(args.trace))
        print(json.dumps({k: block[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    record = {"schema": 1, "host": host_stamp(), "seed": args.seed, "seconds": args.seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "runs": []}
    for i in range(args.repeat):
        run = {"seed": args.seed + i, "workloads": {}}
        for w in bench["workloads"]:
            name = w["name"]
            block = measure(name, args.seed + i, args.seconds, False)
            print_metrics(name, block, False)
            if args.trace:
                trace_out = args.out.parent / f"trace_{name}.json" if args.out and i == 0 else None
                layers = measure(name, args.seed + i, args.seconds, True, trace_out=trace_out)
                print_metrics(name, layers, True)
                block["layers"] = layers
            run["workloads"][name] = block
        record["runs"].append(run)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(b["correct"] for run in record["runs"] for b in run["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
