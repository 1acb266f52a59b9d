"""Tests for the region-pipelined linear-processing framework (Fig. 5/6)."""

import numpy as np
import pytest

from repro.core.grid import TensorHierarchy
from repro.core.mass import mass_apply
from repro.core.solver import solve_correction, thomas_solve
from repro.core.transfer import transfer_apply
from repro.kernels.linear_processing import LinearProcessingKernel

from conftest import nonuniform_coords
import scalar_walks


def _ops(n, rng=None):
    coords = nonuniform_coords((n,), rng) if rng is not None else None
    h = TensorHierarchy.from_shape((n,), coords)
    return h.level_ops(h.L, 0)


@pytest.mark.parametrize("n", [5, 9, 17, 33, 16, 7, 100])
@pytest.mark.parametrize("segment", [2, 3, 8, 64])
class TestSegmentedEqualsVectorized:
    def test_mass(self, n, segment, rng):
        ops = _ops(n, rng)
        k = LinearProcessingKernel(ops, segment=segment)
        v = rng.standard_normal((4, n))
        np.testing.assert_array_equal(k.mass_multiply(v), mass_apply(v, ops.h_fine))

    def test_transfer(self, n, segment, rng):
        ops = _ops(n, rng)
        k = LinearProcessingKernel(ops, segment=segment)
        f = rng.standard_normal((4, n))
        np.testing.assert_array_equal(k.transfer_multiply(f), transfer_apply(f, ops))

    def test_solve(self, n, segment, rng):
        ops = _ops(n, rng)
        k = LinearProcessingKernel(ops, segment=segment)
        g = rng.standard_normal((4, ops.m_coarse))
        np.testing.assert_array_equal(k.solve(g), thomas_solve(g, ops))
        np.testing.assert_array_equal(k.solve(g), solve_correction(g, ops))


class TestSegmentIndependence:
    def test_results_independent_of_segment_length(self, rng):
        ops = _ops(33)
        v = rng.standard_normal((2, 33))
        outs = [
            LinearProcessingKernel(ops, segment=s).mass_multiply(v) for s in (2, 5, 33, 64)
        ]
        for o in outs[1:]:
            np.testing.assert_array_equal(o, outs[0])


@pytest.mark.parametrize("n", [5, 9, 17, 33, 16, 7, 100])
@pytest.mark.parametrize("segment", [2, 3, 8, 64])
class TestScalarReferencesMatchVectorized:
    """The per-element walks (``tests/scalar_walks.py``) cross-check the fast paths."""

    def test_mass(self, n, segment, rng):
        ops = _ops(n, rng)
        k = LinearProcessingKernel(ops, segment=segment)
        v = rng.standard_normal((4, n))
        np.testing.assert_array_equal(
            k.mass_multiply(v), scalar_walks.mass_multiply_scalar(ops, segment, v)
        )

    def test_transfer(self, n, segment, rng):
        ops = _ops(n, rng)
        k = LinearProcessingKernel(ops, segment=segment)
        f = rng.standard_normal((4, n))
        np.testing.assert_array_equal(
            k.transfer_multiply(f), scalar_walks.transfer_multiply_scalar(ops, segment, f)
        )

    def test_solve(self, n, segment, rng):
        ops = _ops(n, rng)
        k = LinearProcessingKernel(ops, segment=segment)
        g = rng.standard_normal((4, ops.m_coarse))
        np.testing.assert_array_equal(k.solve(g), scalar_walks.solve_scalar(ops, segment, g))


class TestValidation:
    def test_segment_too_small(self):
        with pytest.raises(ValueError):
            LinearProcessingKernel(_ops(9), segment=1)

    def test_wrong_lengths(self, rng):
        k = LinearProcessingKernel(_ops(9))
        with pytest.raises(ValueError):
            k.mass_multiply(rng.standard_normal((2, 8)))
        with pytest.raises(ValueError):
            k.transfer_multiply(rng.standard_normal((2, 5)))
        with pytest.raises(ValueError):
            k.solve(rng.standard_normal((2, 9)))

    def test_ghost_regions_prevent_pollution(self, rng):
        # The segmented in-place walk must read *original* neighbours at
        # segment boundaries; feeding a pathological spike at a boundary
        # checks the ghost carry.
        ops = _ops(17)
        v = np.zeros((1, 17))
        v[0, 7] = 1e9  # boundary of segment length 8 minus 1
        v[0, 8] = -1e9
        for seg in (2, 4, 8):
            k = LinearProcessingKernel(ops, segment=seg)
            np.testing.assert_array_equal(
                k.mass_multiply(v), mass_apply(v, ops.h_fine)
            )

    def test_single_vector_1d_input(self, rng):
        ops = _ops(17)
        k = LinearProcessingKernel(ops, segment=4)
        v = rng.standard_normal(17)
        np.testing.assert_array_equal(k.mass_multiply(v), mass_apply(v, ops.h_fine))
