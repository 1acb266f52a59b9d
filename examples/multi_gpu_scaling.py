#!/usr/bin/env python
"""Multi-GPU refactoring: the SPMD substrate plus the Fig. 9 scaling model.

Two halves:

1. a *functional* distributed run on the in-process message-passing
   substrate — four "ranks" scatter a dataset, refactor independently
   (the paper's parallelization: equal partitions, no halo exchange),
   verify losslessness locally, and reduce a global error norm;
2. the *modeled* weak-scaling curve to 4096 GPUs at 1 GB per GPU,
   reproducing the aggregate-TB/s series of Fig. 9.

Run:  python examples/multi_gpu_scaling.py
"""

import numpy as np

from repro.cluster.scaling import shape_for_bytes_2d, weak_scaling
from repro.cluster.fabric import run_spmd
from repro.core.refactor import Refactorer
from repro.experiments import fig9_weak_scaling, format_fig9


def distributed_roundtrip(n_ranks: int = 4) -> None:
    data = np.random.default_rng(11).standard_normal((n_ranks * 129, 129))

    def worker(comm):
        chunks = None
        if comm.rank == 0:
            step = data.shape[0] // comm.size
            chunks = [data[i * step : (i + 1) * step] for i in range(comm.size)]
        mine = comm.scatter(chunks)
        r = Refactorer(mine.shape)
        refactored = r.decompose(mine)
        # each rank could now ship only its most important classes ...
        restored = r.recompose(refactored)
        local_err = float(np.abs(restored - mine).max())
        return comm.allreduce(local_err, op=max)

    errors = run_spmd(worker, n_ranks)
    print(
        f"functional SPMD run on {n_ranks} ranks: "
        f"global max round-trip error = {errors[0]:.2e}"
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
