"""Tests for the decomposition/recomposition drivers (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy

from conftest import nonuniform_coords


class TestRoundTrip:
    def test_lossless_uniform(self, rng, any_shape):
        h = TensorHierarchy.from_shape(any_shape)
        data = rng.standard_normal(any_shape)
        rt = recompose(decompose(data, h), h)
        np.testing.assert_allclose(rt, data, atol=1e-9)

    def test_lossless_nonuniform(self, rng, any_shape):
        coords = nonuniform_coords(any_shape, rng)
        h = TensorHierarchy.from_shape(any_shape, coords)
        data = rng.standard_normal(any_shape)
        rt = recompose(decompose(data, h), h)
        np.testing.assert_allclose(rt, data, atol=1e-9)

    def test_lossless_large_magnitudes(self, rng):
        h = TensorHierarchy.from_shape((33, 33))
        data = rng.standard_normal((33, 33)) * 1e12
        rt = recompose(decompose(data, h), h)
        np.testing.assert_allclose(rt, data, rtol=1e-12)

    def test_float32_supported(self, rng):
        h = TensorHierarchy.from_shape((33, 33))
        data = rng.standard_normal((33, 33)).astype(np.float32)
        rt = recompose(decompose(data, h), h)
        np.testing.assert_allclose(rt, data.astype(np.float64), atol=1e-3)

    def test_hierarchy_inferred_when_omitted(self, rng):
        data = rng.standard_normal((17, 17))
        np.testing.assert_allclose(recompose(decompose(data)), data, atol=1e-10)


class TestSemantics:
    def test_input_not_mutated(self, rng):
        h = TensorHierarchy.from_shape((17, 17))
        data = rng.standard_normal((17, 17))
        before = data.copy()
        decompose(data, h)
        np.testing.assert_array_equal(data, before)
        ref = decompose(data, h)
        before = ref.copy()
        recompose(ref, h)
        np.testing.assert_array_equal(ref, before)

    def test_trivial_grid_is_identity(self, rng):
        for shape in [(1,), (2,), (2, 2), (1, 2)]:
            h = TensorHierarchy.from_shape(shape)
            data = rng.standard_normal(shape)
            out = decompose(data, h)
            np.testing.assert_array_equal(out, data)
            np.testing.assert_array_equal(recompose(out, h), data)

    def test_inplace_layout_coarsest_values(self, rng):
        # positions of the coarsest node set hold corrected nodal values:
        # recomposing only class 0 must reproduce them by interpolation
        h = TensorHierarchy.from_shape((9,))
        data = rng.standard_normal(9)
        ref = decompose(data, h)
        idx0 = h.level_indices(0)[0]
        assert set(idx0.tolist()) == {0, 8}
        # detail positions hold the detail coefficients of their level:
        from repro.core.coefficients import compute_coefficients

        c_top = compute_coefficients(data, h, h.L)
        np.testing.assert_allclose(ref[1::2], c_top[1::2])

    def test_shape_mismatch_raises(self, rng):
        h = TensorHierarchy.from_shape((9, 9))
        with pytest.raises(ValueError):
            decompose(rng.standard_normal((9, 8)), h)

    def test_decompose_concentrates_energy(self, rng):
        # for smooth data most refactored values are (near) zero while
        # the original had full energy everywhere
        x = np.linspace(0, 1, 65)
        data = np.sin(2 * np.pi * np.add.outer(x, x))
        h = TensorHierarchy.from_shape((65, 65))
        ref = decompose(data, h)
        small = np.abs(ref) < 1e-2 * np.abs(ref).max()
        assert small.mean() > 0.5


def _input_layouts(x):
    """The same values as a C-ordered, F-ordered, strided-view and read-only array."""
    wide = np.zeros(tuple(2 * n for n in x.shape), dtype=x.dtype)
    view = wide[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    frozen = x.copy()
    frozen.flags.writeable = False
    return {"C": x.copy(), "F": np.asfortranarray(x), "strided": view, "readonly": frozen}


class TestDriverContract:
    """The drivers adopt intermediate arrays instead of copying, so pin what
    callers rely on: inputs are never written, results never alias them."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("shape", [(17,), (16, 7), (9, 9, 9), (2, 2)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_inputs_untouched_and_results_unshared(self, shape, dtype, rng):
        h = TensorHierarchy.from_shape(shape)  # (2, 2) has L == 0
        x = rng.standard_normal(shape).astype(dtype)
        ref = decompose(x.copy(), h)
        back = recompose(ref.copy(), h)
        assert ref.dtype == dtype and back.dtype == dtype
        for name, data in _input_layouts(x).items():
            out = decompose(data, h)
            np.testing.assert_array_equal(data, x, err_msg=name)
            assert not np.shares_memory(out, data), name
            assert out.dtype == dtype and out.flags.c_contiguous and out.flags.writeable, name
            np.testing.assert_array_equal(out, ref, err_msg=name)  # layout never changes the bits
        for name, data in _input_layouts(ref).items():
            out = recompose(data, h)
            np.testing.assert_array_equal(data, ref, err_msg=name)
            assert not np.shares_memory(out, data), name
            assert out.dtype == dtype and out.flags.c_contiguous and out.flags.writeable, name
            np.testing.assert_array_equal(out, back, err_msg=name)

    def test_integer_input_is_refactored_as_float64(self, rng):
        h = TensorHierarchy.from_shape((9, 5))
        ints = rng.integers(-50, 50, size=(9, 5))
        before = ints.copy()
        out = decompose(ints, h)
        np.testing.assert_array_equal(ints, before)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, decompose(ints.astype(np.float64), h))
        np.testing.assert_allclose(recompose(out, h), ints, rtol=0, atol=1e-12)
        # L == 0: the float conversion must not be what gets returned twice
        tiny = np.arange(4).reshape(2, 2)
        got = decompose(tiny)
        assert got.dtype == np.float64 and not np.shares_memory(got, tiny)
        np.testing.assert_array_equal(recompose(got), tiny)

    def test_results_do_not_share_memory_with_each_other(self, rng):
        """Two calls on one input hand back independent arrays."""
        h = TensorHierarchy.from_shape((17, 9))
        x = rng.standard_normal((17, 9))
        a, b = decompose(x, h), decompose(x, h)
        assert not np.shares_memory(a, b)
        a[...] = 0.0
        np.testing.assert_array_equal(b, decompose(x, h))
