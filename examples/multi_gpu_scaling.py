#!/usr/bin/env python
"""Multi-GPU refactoring: independent partitions plus the Fig. 9 scaling model.

Two halves:

1. a *functional* partitioned run — a dataset is cut into four equal
   partitions and a process executor's workers refactor them
   independently (the paper's parallelization: equal partitions, no
   halo exchange), each verifying losslessness locally; the host
   reduces a global error norm;
2. the *modeled* weak-scaling curve to 4096 GPUs at 1 GB per GPU,
   reproducing the aggregate-TB/s series of Fig. 9.

Run:  python examples/multi_gpu_scaling.py
"""

import numpy as np

from repro.cluster.scaling import shape_for_bytes_2d, weak_scaling
from repro.core.refactor import Refactorer
from repro.experiments import fig9_weak_scaling, format_fig9
from repro.parallel import get_executor


def roundtrip_error(mine: np.ndarray) -> float:
    """One rank's work on its own partition."""
    r = Refactorer(mine.shape)
    refactored = r.decompose(mine)
    # each rank could now ship only its most important classes ...
    restored = r.recompose(refactored)
    return float(np.abs(restored - mine).max())


def distributed_roundtrip(n_partitions: int = 4) -> None:
    data = np.random.default_rng(11).standard_normal((n_partitions * 129, 129))
    errors = get_executor("process").map(roundtrip_error, np.split(data, n_partitions))
    print(
        f"functional run on {n_partitions} independent partitions: "
        f"global max round-trip error = {max(errors):.2e}"
    )


def main() -> None:
    distributed_roundtrip()

    print("\nmodeled weak scaling (paper Fig. 9, 1 GB per GPU):\n")
    print(format_fig9(fig9_weak_scaling()))

    # per-GPU view at the largest scale
    shape = shape_for_bytes_2d(10**9)
    p = weak_scaling(shape, gpu_counts=(4096,))[0]
    print(
        f"\nat 4096 GPUs: {p.aggregate_tbps:.2f} TB/s aggregate "
        f"({p.aggregate_tbps * 1e3 / 4096:.2f} GB/s per GPU, "
        f"{100 * p.efficiency:.1f}% scaling efficiency); "
        f"paper reports 45.42 TB/s for 2D decomposition"
    )


if __name__ == "__main__":
    main()
