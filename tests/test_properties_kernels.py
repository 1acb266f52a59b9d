"""Property-based tests of the kernel frameworks.

Hypothesis drives random shapes/levels through the literal tiled
implementations, asserting functional equivalence with the reference
paths everywhere — the "tiled equals
vectorized bit-for-bit" invariant of DESIGN.md §6 under much broader
sampling than the example-based tests.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import compute_coefficients
from repro.core.grid import TensorHierarchy
from repro.core.mass import mass_apply
from repro.core.solver import thomas_solve
from repro.core.transfer import transfer_apply
from repro.kernels.grid_processing import GridProcessingKernel
from repro.kernels.linear_processing import LinearProcessingKernel


@st.composite
def hier_and_level(draw, max_side=24, ndim_max=3):
    ndim = draw(st.integers(1, ndim_max))
    shape = tuple(draw(st.integers(3, max_side)) for _ in range(ndim))
    h = TensorHierarchy.from_shape(shape)
    l = draw(st.integers(1, h.L))
    return h, l


@settings(max_examples=40, deadline=None)
@given(hier_and_level(), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_tiled_grid_kernel_equals_vectorized(hl, b, seed):
    h, l = hl
    if not h.coarsening_dims(l):
        return
    k = GridProcessingKernel(h, l, b=b)
    v = np.random.default_rng(seed).standard_normal(h.level_shape(l))
    np.testing.assert_array_equal(k.compute(v), compute_coefficients(v, h, l))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 120),
    st.integers(2, 40),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_segmented_kernels_equal_vectorized(n, segment, batch, seed):
    h = TensorHierarchy.from_shape((n,))
    ops = h.level_ops(h.L, 0)
    k = LinearProcessingKernel(ops, segment=segment)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((batch, n))
    np.testing.assert_array_equal(k.mass_multiply(v), mass_apply(v, ops.h_fine))
    np.testing.assert_array_equal(k.transfer_multiply(v), transfer_apply(v, ops))
    g = rng.standard_normal((batch, ops.m_coarse))
    np.testing.assert_array_equal(k.solve(g), thomas_solve(g, ops))


@settings(max_examples=30, deadline=None)
@given(hier_and_level(max_side=20), st.integers(0, 2**31 - 1))
def test_restrict_then_interpolate_projects(hl, seed):
    """Interpolating the restriction reproduces coarse nodes exactly and
    the residual (the coefficients) restricts to zero — for any level."""
    h, l = hl
    if not h.coarsening_dims(l):
        return
    v = np.random.default_rng(seed).standard_normal(h.level_shape(l))
    c = compute_coefficients(v, h, l)
    np.testing.assert_array_equal(
        c[h.coarse_selector(l)], np.zeros(h.level_shape(l - 1))
    )
