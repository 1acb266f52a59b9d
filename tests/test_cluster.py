"""Tests for the cluster substrate: SimComm, node models, weak scaling."""

import numpy as np
import pytest

from repro.cluster.fabric import SimComm, SpmdError, run_spmd
from repro.cluster.node import DESKTOP, SUMMIT_NODE, node_speedup, partition_shape
from repro.cluster.scaling import (
    shape_for_bytes_2d,
    shape_for_bytes_3d,
    weak_scaling,
)


class TestSimComm:
    def test_point_to_point(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return comm.recv(source=1)
            msg = comm.recv(source=0)
            comm.send(msg["x"] + 1, dest=0)
            return None

        results = run_spmd(worker, 2)
        assert results[0] == 2

    def test_arrays_shipped_by_copy(self):
        def worker(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                a[:] = -1  # must not affect what rank 1 sees
                comm.barrier()
                return None
            got = comm.recv(source=0)
            comm.barrier()
            return got.sum()

        assert run_spmd(worker, 2)[1] == 4.0

    def test_bcast(self):
        def worker(comm):
            val = comm.bcast("payload" if comm.rank == 0 else None)
            return val

        assert run_spmd(worker, 4) == ["payload"] * 4

    def test_scatter_gather(self):
        def worker(comm):
            chunks = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            mine = comm.scatter(chunks)
            return comm.gather(mine)

        res = run_spmd(worker, 3)
        assert res[0] == [0, 10, 20]
        assert res[1] is None and res[2] is None

    def test_allreduce_custom_op(self):
        def worker(comm):
            return comm.allreduce(comm.rank + 1, op=lambda a, b: a * b)

        assert run_spmd(worker, 4) == [24] * 4

    def test_allgather(self):
        def worker(comm):
            return comm.allgather(comm.rank**2)

        assert run_spmd(worker, 4) == [[0, 1, 4, 9]] * 4

    def test_barrier_synchronizes(self):
        order = []

        def worker(comm):
            if comm.rank == 0:
                order.append("pre")
            comm.barrier()
            if comm.rank == 1:
                order.append("post")
            comm.barrier()
            return None

        run_spmd(worker, 2)
        assert order == ["pre", "post"]

    def test_rank_validation(self):
        def worker(comm):
            with pytest.raises(ValueError):
                comm.send(1, dest=99)
            return True

        assert all(run_spmd(worker, 2))

    def test_scatter_requires_exact_chunks(self):
        def worker(comm):
            if comm.rank == 0:
                comm.scatter([1])  # wrong length -> raises on root
            else:
                comm.recv(source=0, tag=-2, timeout=0.5)
            return None

        with pytest.raises(SpmdError):
            run_spmd(worker, 2)

    def test_spmd_error_reports_failing_ranks(self):
        def worker(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return "ok"

        with pytest.raises(SpmdError) as e:
            run_spmd(worker, 3)
        assert 1 in e.value.failures

    def test_needs_at_least_one_rank(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 0)

    def test_distributed_refactoring_partitions(self, rng):
        """Each rank refactors its slab independently; the gathered
        round trip equals the full data (the paper's parallelization)."""
        from repro.core.refactor import Refactorer

        data = rng.standard_normal((32, 17))

        def worker(comm):
            chunks = None
            if comm.rank == 0:
                chunks = [data[i * 8 : (i + 1) * 8] for i in range(comm.size)]
            mine = comm.scatter(chunks)
            r = Refactorer(mine.shape)
            rt = r.recompose(r.decompose(mine))
            gathered = comm.gather(rt)
            if comm.rank == 0:
                return np.concatenate(gathered, axis=0)
            return None

        out = run_spmd(worker, 4)[0]
        np.testing.assert_allclose(out, data, atol=1e-9)


class TestNodeModels:
    def test_partition_shape_ceil(self):
        assert partition_shape((100, 7), 6) == (17, 7)
        assert partition_shape((4, 4), 8) == (1, 4)
        with pytest.raises(ValueError):
            partition_shape((4,), 0)

    def test_node_speedup_summit_beats_desktop(self):
        s = node_speedup(SUMMIT_NODE, (8194, 8193))["speedup"]
        d = node_speedup(DESKTOP, (8194, 8193))["speedup"]
        assert s > d > 1

    def test_node_speedup_2d_beats_3d(self):
        two = node_speedup(SUMMIT_NODE, (8190, 8193))["speedup"]
        three = node_speedup(SUMMIT_NODE, (516, 513, 513))["speedup"]
        assert two > three


class TestWeakScaling:
    def test_shapes_for_bytes(self):
        s2 = shape_for_bytes_2d(10**9)
        assert abs(s2[0] * s2[1] * 8 - 10**9) / 10**9 < 0.01
        s3 = shape_for_bytes_3d(10**9)
        assert abs(s3[0] ** 3 * 8 - 10**9) / 10**9 < 0.02

    def test_near_linear_scaling(self):
        pts = weak_scaling((1025, 1025), gpu_counts=(1, 16, 256, 4096))
        per_gpu = [p.aggregate_tbps / p.n_gpus for p in pts]
        assert per_gpu[-1] > 0.9 * per_gpu[0]
        assert all(p.efficiency > 0.9 for p in pts)

    def test_deterministic(self):
        a = weak_scaling((513, 513), gpu_counts=(64,))[0]
        b = weak_scaling((513, 513), gpu_counts=(64,))[0]
        assert a.aggregate_tbps == b.aggregate_tbps

    def test_straggler_grows_with_ranks(self):
        pts = weak_scaling((513, 513), gpu_counts=(1, 4096))
        assert pts[1].slowest_seconds >= pts[0].slowest_seconds

    def test_paper_magnitude_at_4096(self):
        shape = shape_for_bytes_2d(10**9)
        p = weak_scaling(shape, gpu_counts=(4096,))[0]
        # paper: 45.42 TB/s for 2D decomposition
        assert 30 < p.aggregate_tbps < 70

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            weak_scaling((513, 513), gpu_counts=(0,))
