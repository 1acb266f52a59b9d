"""Bit contracts between production and the literal paper kernels.

The production arithmetic (``repro.core``: slice kernels, the fused
``R·M`` stencil, the batch-vectorized Thomas sweep) must return, call for
call, exactly what the literal §III kernels
(:class:`literal_pipeline.LiteralPipeline` on the ``reference`` backend)
return, as C-contiguous arrays.  The one exception is
``mass_transfer_apply``: production evaluates the ``R·M`` stencil at the
coarse nodes, the literal pipeline runs the mass and transfer kernels
back to back, and the two agree to rounding, not bit for bit.
"""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy
from repro.core.solver import solve_correction

from conftest import assert_rounding_close, nonuniform_coords, record_kernel_calls
from literal_pipeline import LiteralPipeline
from scalar_walks import cholesky_solve

#: dyadic, even (tail node), odd non-dyadic, size-1 and size-2 axes, 1D-4D
SHAPES = [(17,), (16,), (2,), (17, 13), (16, 7), (9, 16), (33, 1), (2, 9), (9, 9, 9),
          (12, 5, 6), (7, 6, 9), (6, 10, 8), (5, 4, 3, 6)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_numpy_engine_equals_literal_kernels_call_for_call(shape, nonuniform, dtype, rng, monkeypatch):
    """Fed what production's kernels were fed, level by level, every literal
    kernel returns the same bits — except the fused ``mass_transfer_apply``,
    compared at ``<= 8 * eps(input dtype) * max|z|`` because the literal
    pipeline rounds the fine-sized mass product the stencil never forms.  The
    two whole pipelines agree to the same rounding."""
    h = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng) if nonuniform else None)
    data = rng.standard_normal(shape).astype(dtype)
    calls = record_kernel_calls(monkeypatch)
    refactored = decompose(data, h)
    restored = recompose(refactored, h)
    monkeypatch.undo()
    assert len({call[0] for call in calls}) == (4 if h.L else 0)
    literal = LiteralPipeline(b=2, segment=5)
    assert_rounding_close(literal.decompose(data, h), refactored, data, dtype)
    assert_rounding_close(literal.recompose(refactored, h), restored, data, dtype)
    for name, args, a, contiguous in calls:
        b = getattr(literal, name)(*args)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert contiguous, f"{name} returned a non-contiguous array"
        if name == "mass_transfer_apply":
            assert_rounding_close(b, a, a, args[0].dtype)
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("shape", [(17, 9), (16, 10), (12, 5, 6)], ids=lambda s: "x".join(map(str, s)))
def test_pack_returns_a_copy(shape, rng):
    """``recompose`` zeroes each packed coefficient level in place, and a slice
    selector (dyadic shapes) packs as a view: copy first, never write through."""
    h = TensorHierarchy.from_shape(shape)
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
    for l in range(1, h.L + 1):
        for axis in h.coarsening_dims(l):
            ops = h.level_ops(l, axis)
            f_shape = list(h.level_shape(l))
            f_shape[axis] = ops.m_coarse
            f = rng.standard_normal(f_shape)
            z = solve_correction(f, ops, axis)
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
