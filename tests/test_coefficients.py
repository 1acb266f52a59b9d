"""Tests for coefficient computation/restoration and prolongation."""

import numpy as np
import pytest

from repro.core.coefficients import (
    compute_coefficients,
    interpolate_coarse,
    prolong,
    restore_from_coefficients,
    restrict_nodes,
    zero_coarse_entries,
)
from repro.core.grid import TensorHierarchy
from repro.workloads.synthetic import multilinear

from conftest import nonuniform_coords


class TestProlong:
    def test_prolong_is_exact_at_coarse_nodes(self, rng):
        h = TensorHierarchy.from_shape((17,))
        ops = h.level_ops(h.L, 0)
        vc = rng.standard_normal(ops.m_coarse)
        out = prolong(vc, ops)
        np.testing.assert_array_equal(out[ops.coarse_pos], vc)

    def test_prolong_linear_exact(self):
        h = TensorHierarchy.from_shape((17,))
        ops = h.level_ops(h.L, 0)
        vc = 3.0 * ops.x_coarse + 1.0
        np.testing.assert_allclose(prolong(vc, ops), 3.0 * ops.x_fine + 1.0, rtol=1e-13)

    def test_prolong_restrict_is_identity(self, rng):
        h = TensorHierarchy.from_shape((33,))
        ops = h.level_ops(h.L, 0)
        vc = rng.standard_normal(ops.m_coarse)
        np.testing.assert_array_equal(restrict_nodes(prolong(vc, ops), ops), vc)

    def test_shape_validation(self, rng):
        h = TensorHierarchy.from_shape((17,))
        ops = h.level_ops(h.L, 0)
        with pytest.raises(ValueError):
            prolong(rng.standard_normal(17), ops)  # fine-sized input
        with pytest.raises(ValueError):
            restrict_nodes(rng.standard_normal(9), ops)  # coarse-sized input


class TestCoefficients:
    def test_zero_at_coarse_positions_exactly(self, rng, any_shape):
        h = TensorHierarchy.from_shape(any_shape)
        if h.L == 0:
            pytest.skip("no levels to decompose")
        v = rng.standard_normal(any_shape)
        c = compute_coefficients(v, h, h.L)
        coarse = c[h.coarse_selector(h.L)]
        np.testing.assert_array_equal(coarse, np.zeros_like(coarse))

    def test_multilinear_has_zero_details(self):
        shape = (17, 17)
        h = TensorHierarchy.from_shape(shape)
        v = multilinear(shape)
        for l in range(h.L, 0, -1):
            c = compute_coefficients(v, h, l)
            assert np.abs(c).max() < 1e-12
            v = v[h.coarse_selector(l)]

    def test_restore_inverts_compute(self, rng, any_shape):
        h = TensorHierarchy.from_shape(any_shape)
        if h.L == 0:
            pytest.skip("no levels")
        v = rng.standard_normal(any_shape)
        c = compute_coefficients(v, h, h.L)
        vc = v[h.coarse_selector(h.L)]
        back = restore_from_coefficients(c, vc, h, h.L)
        # c + interp vs v - interp round-trips to within an ulp
        np.testing.assert_allclose(back, v, rtol=0, atol=1e-12)

    def test_restore_reinjects_exact_coarse_values(self, rng):
        # even if c carries garbage at coarse positions, restore must not
        # leak it into the nodal values
        h = TensorHierarchy.from_shape((9, 9))
        v = rng.standard_normal((9, 9))
        c = compute_coefficients(v, h, h.L)
        vc = v[h.coarse_selector(h.L)]
        c_noisy = c + 0.0
        mesh = np.ix_(h.level_ops(h.L, 0).coarse_pos, h.level_ops(h.L, 1).coarse_pos)
        c_noisy[mesh] = 99.0
        back = restore_from_coefficients(c_noisy, vc, h, h.L)
        np.testing.assert_array_equal(back[mesh], vc)

    def test_nonuniform_coords(self, rng):
        shape = (17, 9)
        coords = nonuniform_coords(shape, rng)
        h = TensorHierarchy.from_shape(shape, coords)
        v = rng.standard_normal(shape)
        c = compute_coefficients(v, h, h.L)
        vc = v[h.coarse_selector(h.L)]
        np.testing.assert_allclose(
            restore_from_coefficients(c, vc, h, h.L), v, atol=1e-12
        )

    def test_interpolate_coarse_shape(self, rng):
        h = TensorHierarchy.from_shape((17, 9))
        vc = rng.standard_normal(h.level_shape(h.L - 1))
        out = interpolate_coarse(vc, h, h.L)
        assert out.shape == h.level_shape(h.L)

    def test_wrong_level_shape_raises(self, rng):
        h = TensorHierarchy.from_shape((17,))
        with pytest.raises(ValueError):
            compute_coefficients(rng.standard_normal(9), h, h.L)
        with pytest.raises(ValueError):
            restore_from_coefficients(
                rng.standard_normal(17), rng.standard_normal(17), h, h.L
            )

    def test_zero_coarse_entries(self, rng):
        h = TensorHierarchy.from_shape((9, 9))
        c = rng.standard_normal((9, 9))
        zero_coarse_entries(c, h, h.L)
        coarse = c[h.coarse_selector(h.L)]
        np.testing.assert_array_equal(coarse, np.zeros_like(coarse))
        # detail entries untouched (non-zero with probability 1)
        assert np.count_nonzero(c) == 9 * 9 - 5 * 5

    def test_mixed_depth_dims(self, rng):
        # one dim stops coarsening early; its nodes are all "coarse"
        h = TensorHierarchy.from_shape((17, 3))
        l = h.L  # dim1 local level = 1 here? global L=4, dim1 L=1 -> coarsens only at l=4
        v = rng.standard_normal((17, 3))
        c = compute_coefficients(v, h, l)
        vc = v[h.coarse_selector(l)]
        np.testing.assert_allclose(restore_from_coefficients(c, vc, h, l), v, atol=1e-12)
        # at level 1, only dim 0 coarsens
        assert h.coarsening_dims(1) == (0,)
