"""Tests for the cluster substrate: independent partitions, node models,
weak scaling."""

import pathlib
import sys

import pytest

# appended, not prepended: pool workers import by path too, and
# ``conftest`` must keep resolving to tests/conftest.py
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_fig9_weak_scaling import refactor_partition  # noqa: E402

from repro.cluster.node import DESKTOP, SUMMIT_NODE, node_speedup, partition_shape
from repro.cluster.scaling import (
    shape_for_bytes_2d,
    shape_for_bytes_3d,
    weak_scaling,
)
from repro.parallel import get_executor


class TestIndependentPartitions:
    def test_partitions_roundtrip_on_every_executor(self):
        """The paper's parallelization: each partition is refactored on
        its own, no exchange — so which executor runs them cannot show.
        Per-partition errors are bit-equal across executors, and their
        maximum is the L∞ error of the concatenated round trip against
        the concatenated source."""
        n, side = 4, 17
        errs = [
            [e for e, _ in get_executor(spec).map(
                refactor_partition, range(n), [side] * n, [2] * n)]
            for spec in ("serial", "thread:2", "process:2")
        ]
        assert errs[0] == errs[1] == errs[2]
        assert max(errs[0]) <= 1e-9


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
