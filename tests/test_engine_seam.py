"""Bit contracts of the engine seam.

The production :class:`NumpyEngine` (slice kernels + batch-vectorized
Thomas sweep) must return, call for call, exactly what the literal paper
kernels (:class:`TiledEngine` on the ``reference`` backend) return, as
C-contiguous arrays, with ``pack`` handing out copies.  The one exception
is ``mass_transfer_apply``: production evaluates the ``R·M`` stencil at the
coarse nodes, the literal engine runs the mass and transfer kernels back
to back, and the two agree to rounding, not bit for bit.
"""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.engine import NumpyEngine
from repro.core.grid import TensorHierarchy
from repro.kernels.tiled_engine import TiledEngine

from conftest import assert_rounding_close, nonuniform_coords
from scalar_walks import cholesky_solve

SEAM_OPS = (
    "compute_coefficients", "restore_from_coefficients", "mass_transfer_apply",
    "solve_correction", "copy", "pack", "add_correction", "subtract_correction",
)

#: dyadic, even (tail node), odd non-dyadic, size-1 and size-2 axes, 1D-4D
SHAPES = [(17,), (16,), (2,), (17, 13), (16, 7), (9, 16), (33, 1), (2, 9), (9, 9, 9),
          (12, 5, 6), (7, 6, 9), (6, 10, 8), (5, 4, 3, 6)]


def _recording(base):
    """``base`` with every seam call appended to ``.calls`` as ``(name, args,
    kwargs, result, result_is_c_contiguous)``.  Arrays are snapshots: the
    driver adopts the finest coefficient array as its output and overwrites
    it under later levels."""

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = []

    def wrap(name):
        def method(self, *args, **kwargs):
            seen = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            out = getattr(base, name)(self, *args, **kwargs)
            self.calls.append((name, seen, kwargs, out.copy(), out.flags.c_contiguous))
            return out

        return method

    for name in SEAM_OPS:
        setattr(Recording, name, wrap(name))
    return Recording


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_numpy_engine_equals_literal_kernels_call_for_call(shape, nonuniform, dtype, rng):
    """Fed what the production engine was fed, every literal kernel returns
    the same bits — except the fused ``mass_transfer_apply``, compared at
    ``<= 8 * eps(input dtype) * max|z|`` because the literal engine rounds the
    fine-sized mass product the stencil never forms.  The two whole
    pipelines walk the same call sequence and agree to the same rounding."""
    h = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng) if nonuniform else None)
    data = rng.standard_normal(shape).astype(dtype)
    fast = _recording(NumpyEngine)()
    literal = _recording(TiledEngine)(b=2, segment=5, kernel_backend="reference")
    refactored = decompose(data, h, fast)
    restored = recompose(refactored, h, fast)
    assert_rounding_close(decompose(data, h, literal), refactored, data, dtype)
    assert_rounding_close(recompose(refactored, h, literal), restored, data, dtype)
    assert [call[0] for call in fast.calls] == [call[0] for call in literal.calls]
    replay = TiledEngine(b=2, segment=5, kernel_backend="reference")
    for name, args, kwargs, a, contiguous in fast.calls:
        b = getattr(replay, name)(*args, **kwargs)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert contiguous, f"{name} returned a non-contiguous array"
        if name == "mass_transfer_apply":
            assert_rounding_close(b, a, a, args[0].dtype)
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("shape", [(17, 9), (16, 10), (12, 5, 6)], ids=lambda s: "x".join(map(str, s)))
def test_pack_returns_a_copy(shape, rng):
    """``recompose`` zeroes the packed coefficients in place and ``decompose``
    overwrites its output under the packed working array: neither may
    write through to the array that was packed."""
    h = TensorHierarchy.from_shape(shape)
    eng = NumpyEngine()
    full = rng.standard_normal(shape)
    for l in range(h.L + 1):
        before = full.copy()
        packed = eng.pack(full, h.level_selector(l))
        assert packed.shape == h.level_shape(l) and not np.shares_memory(packed, full)
        packed[...] = 0.0
        np.testing.assert_array_equal(full, before)
    data = rng.standard_normal(shape)
    before = data.copy()
    refactored = decompose(data, h)
    np.testing.assert_array_equal(data, before)
    kept = refactored.copy()
    recompose(refactored, h)
    np.testing.assert_array_equal(refactored, kept)


@pytest.mark.parametrize("shape", [(33,), (16, 9), (9, 12, 5)], ids=lambda s: "x".join(map(str, s)))
def test_correction_agrees_with_banded_cholesky(shape, rng):
    """The Thomas sweep against the LAPACK solve it replaced, on every axis."""
    h = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng))
    eng = NumpyEngine()
    for l in range(1, h.L + 1):
        for axis in h.coarsening_dims(l):
            ops = h.level_ops(l, axis)
            f_shape = list(h.level_shape(l))
            f_shape[axis] = ops.m_coarse
            f = rng.standard_normal(f_shape)
            z = eng.solve_correction(f, ops, axis)
            ref = cholesky_solve(f, ops, axis)
            np.testing.assert_allclose(z, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_selectors_are_views_for_dyadic_and_gathers_otherwise():
    dyadic = TensorHierarchy.from_shape((17, 9))
    assert all(isinstance(s, slice) for l in range(dyadic.L + 1) for s in dyadic.level_selector(l))
    assert dyadic.level_selector(1) is dyadic.level_selector(1)  # cached
    for shape in [(16, 9), (16, 10), (6, 10, 8)]:
        h = TensorHierarchy.from_shape(shape)
        full = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        for l in range(h.L + 1):
            np.testing.assert_array_equal(
                full[h.level_selector(l)], full[np.ix_(*h.level_indices(l))]
            )
        mask = h.detail_mask(h.L)
        assert mask is h.detail_mask(h.L) and not mask.flags.writeable
        assert int(mask.sum()) == h.detail_count(h.L)
