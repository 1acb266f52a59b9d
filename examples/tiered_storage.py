#!/usr/bin/env python
"""Figure-1 scenario: placing coefficient classes across storage tiers.

The paper's motivating figure shows refactored data flowing through a
multi-tier storage system: the most important (coarsest) classes live on
the fastest tier, the bulk spills to slower tiers, and consumers with
different accuracy needs read different prefixes.  This example plays
that scenario with the tier models and a real refactored dataset.

Run:  python examples/tiered_storage.py
"""

import numpy as np

from repro.core.refactor import Refactorer
from repro.io.storage import ALPINE_PFS, ARCHIVE_TIER, NVME_TIER, TieredStorage
from repro.workloads.grayscott import simulate


def main() -> None:
    shape = (129, 129)
    field = simulate(shape, steps=1500, params="maze")
    cc = Refactorer(shape).refactor(field)
    sizes = [c.nbytes for c in cc.classes]

    model = TieredStorage([NVME_TIER, ALPINE_PFS, ARCHIVE_TIER])
    # pretend the fast tier only has room for ~2% of the dataset
    budget = int(0.02 * sum(sizes))
    placement = model.place_classes(sizes, fast_budget_bytes=budget)

    print(f"dataset: {sum(sizes) / 1e3:.1f} KB in {len(sizes)} classes; "
          f"fast-tier budget {budget / 1e3:.1f} KB\n")
    print(f"{'class':>5} {'bytes':>9} {'tier':<16}")
    for l, (nbytes, tier) in enumerate(zip(sizes, placement)):
        print(f"{l:>5} {nbytes:>9} {model.tiers[tier].name:<16}")

    # two consumers with different accuracy needs (the paper's routine 1
    # vs routine 2): the coarse consumer never touches slow tiers
    n_readers = 64
    for k, label in ((3, "routine 1 (coarse)"), (len(sizes), "routine 2 (full)")):
        t = model.read_seconds(sizes, placement, n_processes=n_readers, k=k)
        approx = cc.reconstruct(k)
        err = float(np.abs(approx - field).max())
        print(
            f"\n{label}: reads {k} classes in {t * 1e3:.2f} ms (modeled), "
            f"reconstruction Linf error {err:.3e}"
        )


if __name__ == "__main__":
    main()
