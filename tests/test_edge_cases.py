"""Numerical and structural edge cases across the pipeline."""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import Hierarchy1D, TensorHierarchy
from repro.core.refactor import Refactorer
from repro.compress.mgard import MgardCompressor


class TestNumericalExtremes:
    def test_constant_field_refactors_to_nodal_values_only(self):
        h = TensorHierarchy.from_shape((17, 17))
        data = np.full((17, 17), 3.25)
        ref = decompose(data, h)
        # constants are multilinear: every detail coefficient is zero
        detail_positions = np.ones((17, 17), dtype=bool)
        detail_positions[np.ix_(*h.level_indices(0))] = False
        assert np.abs(ref[detail_positions]).max() < 1e-12
        np.testing.assert_allclose(recompose(ref, h), data, atol=1e-12)

    def test_zero_field(self):
        h = TensorHierarchy.from_shape((33,))
        ref = decompose(np.zeros(33), h)
        np.testing.assert_array_equal(ref, np.zeros(33))

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_extreme_magnitudes_roundtrip(self, scale, rng):
        h = TensorHierarchy.from_shape((17, 17))
        data = rng.standard_normal((17, 17)) * scale
        rt = recompose(decompose(data, h), h)
        np.testing.assert_allclose(rt, data, rtol=1e-9)

    def test_mixed_magnitudes(self, rng):
        # 12 orders of magnitude within one grid: errors stay small
        # relative to the data *scale* (per-element cancellation next to
        # the spikes is inherent to any linear multilevel transform)
        h = TensorHierarchy.from_shape((33,))
        data = rng.standard_normal(33)
        data[::4] *= 1e12
        rt = recompose(decompose(data, h), h)
        assert np.abs(rt - data).max() < 1e-3  # ~1e-15 of the 1e12 scale

    def test_nan_rejected_loudly(self):
        # the correction solver refuses NaNs: corrupt input fails
        # fast instead of silently producing a poisoned refactoring
        h = TensorHierarchy.from_shape((9,))
        data = np.zeros(9)
        data[4] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            decompose(data, h)

    def test_negative_everything(self, rng):
        h = TensorHierarchy.from_shape((17, 9))
        data = -np.abs(rng.standard_normal((17, 9))) - 10
        np.testing.assert_allclose(recompose(decompose(data, h), h), data, atol=1e-9)


class TestExtremeGeometries:
    def test_highly_anisotropic_shape(self, rng):
        h = TensorHierarchy.from_shape((257, 3))
        data = rng.standard_normal((257, 3))
        np.testing.assert_allclose(recompose(decompose(data, h), h), data, atol=1e-9)

    def test_pencil_3d(self, rng):
        shape = (65, 2, 3)
        h = TensorHierarchy.from_shape(shape)
        data = rng.standard_normal(shape)
        np.testing.assert_allclose(recompose(decompose(data, h), h), data, atol=1e-9)

    def test_all_singleton_but_one(self, rng):
        shape = (1, 33, 1)
        h = TensorHierarchy.from_shape(shape)
        data = rng.standard_normal(shape)
        np.testing.assert_allclose(recompose(decompose(data, h), h), data, atol=1e-9)

    def test_extremely_clustered_coordinates(self, rng):
        # spacings spanning 12 orders of magnitude
        x = np.concatenate([[0.0], np.cumsum(np.logspace(-12, 0, 32))])
        h = TensorHierarchy.from_shape((33,), coords=(x,))
        data = rng.standard_normal(33)
        rt = recompose(decompose(data, h), h)
        np.testing.assert_allclose(rt, data, atol=1e-6 * np.abs(data).max())

    def test_prime_sizes(self, rng):
        for n in (7, 11, 13, 31, 97):
            h = TensorHierarchy.from_shape((n,))
            data = rng.standard_normal(n)
            np.testing.assert_allclose(
                recompose(decompose(data, h), h), data, atol=1e-9
            )

    def test_deep_hierarchy(self, rng):
        # 2^14 + 1 in 1D: 14 levels
        n = (1 << 14) + 1
        h = TensorHierarchy.from_shape((n,))
        assert h.L == 14
        data = rng.standard_normal(n)
        np.testing.assert_allclose(recompose(decompose(data, h), h), data, atol=1e-8)


class TestDtypeHandling:
    def test_integer_input_promoted(self):
        h = TensorHierarchy.from_shape((9, 9))
        data = np.arange(81).reshape(9, 9)
        out = decompose(data, h)
        assert np.issubdtype(out.dtype, np.floating)
        np.testing.assert_allclose(recompose(out, h), data, atol=1e-10)

    def test_float32_stays_reasonable(self, rng):
        h = TensorHierarchy.from_shape((65, 65))
        data = rng.standard_normal((65, 65)).astype(np.float32)
        rt = recompose(decompose(data, h), h)
        assert np.abs(rt - data).max() < 1e-3

    def test_fortran_ordered_input(self, rng):
        h = TensorHierarchy.from_shape((17, 33))
        data = np.asfortranarray(rng.standard_normal((17, 33)))
        np.testing.assert_allclose(recompose(decompose(data, h), h), data, atol=1e-9)

    def test_non_contiguous_view(self, rng):
        big = rng.standard_normal((34, 66))
        view = big[::2, ::2]  # (17, 33) strided view
        h = TensorHierarchy.from_shape(view.shape)
        np.testing.assert_allclose(recompose(decompose(view, h), h), view, atol=1e-9)


class TestCompressorEdges:
    def test_constant_field_compresses_tiny(self):
        hier = TensorHierarchy.from_shape((65, 65))
        blob = MgardCompressor(hier, 1e-6).compress(np.full((65, 65), 7.0))
        assert blob.compression_ratio() > 50

    def test_single_spike(self):
        hier = TensorHierarchy.from_shape((65, 65))
        data = np.zeros((65, 65))
        data[40, 23] = 5.0
        comp = MgardCompressor(hier, 1e-4)
        back = comp.decompress(comp.compress(data))
        assert np.abs(back - data).max() <= 1e-4

    def test_tiny_grid_compression(self, rng):
        hier = TensorHierarchy.from_shape((3, 3))
        data = rng.standard_normal((3, 3))
        comp = MgardCompressor(hier, 1e-5)
        back = comp.decompress(comp.compress(data))
        assert np.abs(back - data).max() <= 1e-5

    def test_refactorer_accepts_list_shape(self):
        r = Refactorer([9, 9])  # list, not tuple
        assert r.shape == (9, 9)


class TestHierarchyDegenerates:
    def test_size_one_dimension_everywhere(self):
        h = TensorHierarchy.from_shape((1, 1, 1))
        assert h.L == 0
        data = np.ones((1, 1, 1))
        np.testing.assert_array_equal(decompose(data, h), data)

    def test_single_node_hierarchy(self):
        h = Hierarchy1D(size=1)
        assert h.L == 0
        assert h.index(0).tolist() == [0]
