"""Compare two records written by ``run.py --out``: baseline, then candidate.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) pair it prints one verdict, using
the metric's own direction and bound from ``BENCHMARK.json``:

``improved``    B's median is better than A's by more than the bound
``unchanged``   the medians are within the bound of each other
``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread (interquartile range over median,
                on either side) is wider than the bound, so the medians
                cannot be told apart — unless every run of B is better
                than every run of A, which counts as improved

A record holds one run per ``--repeat``; with a single run a side has no
spread and the medians decide alone.  The exit code is 1 if any pair
regressed or B's share of failed operations is above A's, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]


def values(record: dict, workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in record["runs"] if workload in run["workloads"]]


def spread(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q = quantiles(xs, n=4)
    return (q[2] - q[0]) / abs(median(xs))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, B's median relative to A's, positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (median(b) - median(a)) / abs(median(a))
    if all(sign * (y - x) > 0 for x in a for y in b) and gain > bound:
        return "improved", gain
    if max(spread(a), spread(b)) > bound:
        return "unresolved", gain
    if gain > bound:
        return "improved", gain
    if gain < -bound:
        return "regressed", gain
    return "unchanged", gain


def failed_frac(record: dict, workload: str) -> float:
    blocks = [run["workloads"][workload] for run in record["runs"] if workload in run["workloads"]]
    return sum(b["failed"] for b in blocks) / max(sum(b["attempted"] for b in blocks), 1)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':16s} {'metric':16s} {'A median':>12s} {'B median':>12s} {'B vs A':>8s} "
          f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            xa, xb = values(a, name, m["name"]), values(b, name, m["name"])
            if not xa or not xb:
                continue
            word, gain = verdict(xa, xb, m["better"], m["bound"])
            regressed |= word == "regressed"
            print(f"{name:16s} {m['name']:16s} {median(xa):12.5g} {median(xb):12.5g} {gain:+8.1%} "
                  f"{spread(xa):9.1%} {spread(xb):9.1%} {m['bound']:6.0%}  {word}")
        fa, fb = failed_frac(a, name), failed_frac(b, name)
        word = "regressed" if fb > fa else "unchanged"
        regressed |= fb > fa
        print(f"{name:16s} {'failed_frac':16s} {fa:12.5g} {fb:12.5g} {'':8s} {'':9s} {'':9s} {'0':>6s}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
