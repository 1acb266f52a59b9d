"""Tests for the tiled grid-processing framework (Fig. 4 / Algorithm 1)."""

import numpy as np
import pytest

from repro.core.coefficients import compute_coefficients, restore_from_coefficients
from repro.core.grid import TensorHierarchy
from repro.kernels.grid_processing import (
    GridProcessingKernel,
    interpolation_thread_assignment,
)


class TestThreadAssignment:
    @pytest.mark.parametrize("ndim,expected", [(1, 1), (2, 3), (3, 7)])
    def test_type_count(self, ndim, expected):
        a = interpolation_thread_assignment(3, ndim)
        assert a.n_types == expected

    def test_warps_per_type(self):
        a = interpolation_thread_assignment(3, 3)  # (2^3-1)^3 = 343 ops
        assert a.warps_per_type == -(-343 // 32)  # ceil

    def test_full_coverage_no_duplicates(self):
        a = interpolation_thread_assignment(2, 3, warp_size=32)
        side = (1 << a.b) - 1
        seen = set()
        for warp in range(a.warps_per_type):
            for lane in range(a.warp_size):
                c = a.work_coords(warp, lane)
                if c is not None:
                    assert c not in seen
                    seen.add(c)
        assert len(seen) == side**3

    def test_divergence_free_partition(self):
        # every warp serves exactly one interpolation type
        a = interpolation_thread_assignment(3, 3)
        for warp in range(a.total_warps):
            t = a.warp_type(warp)
            assert 0 <= t < a.n_types

    def test_idle_lanes_uniform_within_trailing_warp(self):
        # lanes past the work lattice are contiguous at the tail, so the
        # idle branch is warp-uniform beyond the single boundary warp
        a = interpolation_thread_assignment(2, 2)  # 9 ops, 1 warp per type
        idle = [a.work_coords(0, lane) is None for lane in range(a.warp_size)]
        first_idle = idle.index(True)
        assert all(idle[first_idle:])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            interpolation_thread_assignment(0, 3)
        with pytest.raises(ValueError):
            interpolation_thread_assignment(2, 4)


@pytest.mark.parametrize(
    "shape", [(17,), (17, 17), (9, 17), (9, 9, 9), (33, 17), (16, 7), (12, 5, 6)],
    ids=lambda s: "x".join(map(str, s)),
)
@pytest.mark.parametrize("b", [1, 2, 3])
class TestTiledEqualsVectorized:
    def test_compute(self, shape, b, rng):
        h = TensorHierarchy.from_shape(shape)
        for l in range(1, h.L + 1):
            k = GridProcessingKernel(h, l, b=b)
            v = rng.standard_normal(h.level_shape(l))
            out = k.compute(v)
            np.testing.assert_array_equal(out, compute_coefficients(v, h, l))

    def test_restore(self, shape, b, rng):
        h = TensorHierarchy.from_shape(shape)
        for l in range(1, h.L + 1):
            k = GridProcessingKernel(h, l, b=b)
            v = rng.standard_normal(h.level_shape(l))
            c = compute_coefficients(v, h, l)
            vc = v[h.coarse_selector(l)]
            ref = restore_from_coefficients(c.copy(), vc, h, l)
            np.testing.assert_array_equal(k.restore(c, vc), ref)


class TestKernelValidation:
    def test_wrong_level(self):
        h = TensorHierarchy.from_shape((17,))
        with pytest.raises(ValueError):
            GridProcessingKernel(h, 0)
        with pytest.raises(ValueError):
            GridProcessingKernel(h, h.L + 1)

    def test_wrong_shape(self, rng):
        h = TensorHierarchy.from_shape((17,))
        k = GridProcessingKernel(h, h.L)
        with pytest.raises(ValueError):
            k.compute(rng.standard_normal(9))

    def test_nonuniform_coords(self, rng):
        from conftest import nonuniform_coords

        shape = (17, 9)
        h = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng))
        k = GridProcessingKernel(h, h.L, b=2)
        v = rng.standard_normal(shape)
        np.testing.assert_array_equal(k.compute(v), compute_coefficients(v, h, h.L))

    def test_validate_helper(self):
        h = TensorHierarchy.from_shape((17, 17))
        GridProcessingKernel(h, h.L, b=2).validate()

    def test_tile_count_scales_with_b(self):
        h = TensorHierarchy.from_shape((33, 33))
        small = len(GridProcessingKernel(h, h.L, b=1).tile_origins())
        large = len(GridProcessingKernel(h, h.L, b=3).tile_origins())
        assert small > large
