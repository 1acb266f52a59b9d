"""Tests for the 3D-via-2D-slices linear processing (paper §III-D)."""

import numpy as np
import pytest

from repro.core.grid import TensorHierarchy
from repro.core.mass import mass_apply
from repro.core.solver import solve_correction
from repro.core.transfer import transfer_apply
from repro.kernels.batch3d import SlicedLinearProcessor


@pytest.fixture
def setup(rng):
    hier = TensorHierarchy.from_shape((17, 13, 9))
    return hier, rng


@pytest.mark.parametrize("axis", [0, 1, 2])
class TestSliceEqualsVectorized:
    def _ops(self, hier, axis):
        # level where this axis still coarsens
        for l in range(hier.L, 0, -1):
            if hier.coarsens(l, axis):
                return l, hier.level_ops(l, axis)
        pytest.skip("axis never coarsens")

    def test_mass(self, setup, axis):
        hier, rng = setup
        l, ops = self._ops(hier, axis)
        v = rng.standard_normal(hier.level_shape(l))
        proc = SlicedLinearProcessor(ops, n_streams=4)
        out = proc.mass_multiply(v, axis)
        np.testing.assert_array_equal(out, mass_apply(v, ops.h_fine, axis=axis))

    def test_transfer(self, setup, axis):
        hier, rng = setup
        l, ops = self._ops(hier, axis)
        v = rng.standard_normal(hier.level_shape(l))
        proc = SlicedLinearProcessor(ops)
        out = proc.transfer_multiply(v, axis)
        np.testing.assert_array_equal(out, transfer_apply(v, ops, axis=axis))

    def test_solve(self, setup, axis):
        hier, rng = setup
        l, ops = self._ops(hier, axis)
        shape = list(hier.level_shape(l))
        shape[axis] = ops.m_coarse
        g = rng.standard_normal(tuple(shape))
        proc = SlicedLinearProcessor(ops)
        out = proc.solve(g, axis)
        np.testing.assert_array_equal(out, solve_correction(g, ops, axis=axis))


class TestLaunchAccounting:
    def test_one_launch_per_slice(self, rng):
        hier = TensorHierarchy.from_shape((9, 9, 9))
        ops = hier.level_ops(hier.L, 0)
        proc = SlicedLinearProcessor(ops, n_streams=2)
        proc.mass_multiply(rng.standard_normal((9, 9, 9)), 0)
        assert len(proc.launches) == 9  # slices along the remaining axis
        assert {ln.stream for ln in proc.launches} == {0, 1}

    def test_makespan_matches_wave_model(self, rng):
        hier = TensorHierarchy.from_shape((9, 9, 9))
        ops = hier.level_ops(hier.L, 0)
        proc = SlicedLinearProcessor(ops, n_streams=4)
        proc.mass_multiply(rng.standard_normal((9, 9, 9)), 0)
        dur = 1e-4
        waves = -(-len(proc.launches) // 4)
        assert proc.modeled_makespan(dur) == pytest.approx(waves * dur)

    def test_rejects_2d(self, rng):
        hier = TensorHierarchy.from_shape((9, 9))
        ops = hier.level_ops(hier.L, 0)
        with pytest.raises(ValueError):
            SlicedLinearProcessor(ops).mass_multiply(rng.standard_normal((9, 9)), 0)

    def test_full_correction_pipeline_slicewise(self, rng):
        """The complete per-dimension correction (mass→transfer→solve)
        computed slice-wise equals the vectorized 3D pipeline to rounding:
        that one evaluates mass·transfer as a single stencil, and each of the
        three solves may amplify the last-bit difference by cond(M)."""
        from repro.core.coefficients import compute_coefficients
        from repro.core.correction import compute_correction

        hier = TensorHierarchy.from_shape((9, 9, 9))
        l = hier.L
        v = rng.standard_normal((9, 9, 9))
        c = compute_coefficients(v, hier, l)
        f = c
        for axis in hier.coarsening_dims(l):
            ops = hier.level_ops(l, axis)
            proc = SlicedLinearProcessor(ops, n_streams=8)
            f = proc.mass_multiply(f, axis)
            f = proc.transfer_multiply(f, axis)
            f = proc.solve(f, axis)
        ref = compute_correction(c, hier, l)
        np.testing.assert_allclose(f, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
