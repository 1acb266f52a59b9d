"""Property-based tests (hypothesis) of the core invariants.

These probe the algebraic guarantees over randomized shapes, coordinate
spacings, and data — the invariants DESIGN.md §6 commits to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.huffman import huffman_decode, huffman_encode
from repro.compress.quantizer import Quantizer
from repro.core.classes import class_sizes, extract_classes, assemble_from_classes
from repro.core.coefficients import compute_coefficients
from repro.core.correction import compute_correction
from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy
from repro.core.refactor import Refactorer

# -- strategies -----------------------------------------------------------

dims = st.integers(min_value=1, max_value=3)


@st.composite
def shapes(draw):
    d = draw(dims)
    return tuple(draw(st.integers(min_value=2, max_value=20)) for _ in range(d))


@st.composite
def shaped_data(draw):
    shape = draw(shapes())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


@st.composite
def shaped_data_with_coords(draw):
    data = draw(shaped_data())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    coords = []
    for n in data.shape:
        if n == 1:
            coords.append(np.zeros(1))
        else:
            steps = rng.uniform(0.05, 1.0, size=n - 1)
            x = np.concatenate([[0.0], np.cumsum(steps)])
            coords.append(x)
    return data, tuple(coords)


# -- core invariants ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(shaped_data())
def test_roundtrip_lossless_any_shape(data):
    h = TensorHierarchy.from_shape(data.shape)
    rt = recompose(decompose(data, h), h)
    assert np.abs(rt - data).max() < 1e-8 * max(1.0, np.abs(data).max())


@settings(max_examples=40, deadline=None)
@given(shaped_data_with_coords())
def test_roundtrip_lossless_nonuniform(data_coords):
    data, coords = data_coords
    h = TensorHierarchy.from_shape(data.shape, coords)
    rt = recompose(decompose(data, h), h)
    assert np.abs(rt - data).max() < 1e-8 * max(1.0, np.abs(data).max())


@settings(max_examples=40, deadline=None)
@given(shaped_data())
def test_class_split_is_a_partition(data):
    h = TensorHierarchy.from_shape(data.shape)
    ref = decompose(data, h)
    classes = extract_classes(ref, h)
    assert [c.size for c in classes] == class_sizes(h)
    assert sum(c.size for c in classes) == data.size
    back = assemble_from_classes(classes, h)
    np.testing.assert_array_equal(back, ref)


@settings(max_examples=30, deadline=None)
@given(shaped_data(), st.floats(min_value=-3.0, max_value=3.0))
def test_decomposition_is_affine(data, offset):
    """decompose(a*x) = a*decompose(x) and constants ride through exactly:
    the whole pipeline is linear, so shifting by a constant shifts only
    nodal values (constants have zero detail coefficients)."""
    h = TensorHierarchy.from_shape(data.shape)
    ref = decompose(data, h)
    scaled = decompose(2.5 * data, h)
    np.testing.assert_allclose(scaled, 2.5 * ref, rtol=1e-9, atol=1e-9)
    shifted = decompose(data + offset, h)
    rt = recompose(shifted, h)
    np.testing.assert_allclose(rt, data + offset, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(shapes(), st.integers(min_value=0, max_value=2**31 - 1))
def test_correction_linearity(shape, seed):
    h = TensorHierarchy.from_shape(shape)
    if h.L == 0:
        return
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal(h.level_shape(h.L))
    v2 = rng.standard_normal(h.level_shape(h.L))
    c1 = compute_coefficients(v1, h, h.L)
    c2 = compute_coefficients(v2, h, h.L)
    z12 = compute_correction(c1 + c2, h, h.L)
    z1 = compute_correction(c1, h, h.L)
    z2 = compute_correction(c2, h, h.L)
    np.testing.assert_allclose(z12, z1 + z2, rtol=1e-8, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(shaped_data(), st.floats(min_value=1e-6, max_value=1.0))
def test_quantizer_honours_any_tolerance(data, tol):
    if data.ndim > 2 or data.size > 600:
        data = data.ravel()  # keep runtime bounded: quantize as 1D
    r = Refactorer(data.shape)
    q = Quantizer(tol)
    back = Quantizer.dequantize_refactored(*q.quantize_refactored(r.decompose(data), r.hier), r.hier)
    assert np.abs(r.recompose(back) - data).max() <= tol


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=300),
    st.integers(min_value=4, max_value=64),
)
def test_huffman_roundtrip_any_ints(values, max_table):
    arr = np.asarray(values, dtype=np.int64)
    payload, header = huffman_encode(arr, max_table=max_table)
    np.testing.assert_array_equal(huffman_decode(payload, header), arr)


@settings(max_examples=30, deadline=None)
@given(shaped_data())
def test_progressive_full_reconstruction(data):
    r = Refactorer(data.shape)
    cc = r.refactor(data)
    assert np.abs(cc.reconstruct() - data).max() < 1e-8 * max(1.0, np.abs(data).max())


@settings(max_examples=20, deadline=None)
@given(data=shaped_data())
def test_container_roundtrip_property(tmp_path_factory, data):
    """Write/read of any refactored dataset is bit-exact."""
    from repro.core.refactor import Refactorer
    from repro.io.container import RefactoredFileReader, write_refactored

    r = Refactorer(data.shape)
    cc = r.refactor(data)
    path = tmp_path_factory.mktemp("prop") / "x.rprc"
    write_refactored(path, cc)
    back = RefactoredFileReader(path).to_coefficient_classes()
    for a, b in zip(back.classes, cc.classes):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(shaped_data(), st.floats(min_value=0.1, max_value=100.0))
def test_snorm_estimate_scales_linearly(data, scale):
    """Truncation estimates are 1-homogeneous in the data."""
    from repro.core.snorm import truncation_estimate

    r = Refactorer(data.shape)
    cc = r.refactor(data)
    cc_scaled = Refactorer(data.shape).refactor(scale * data)
    for k in range(1, cc.n_classes + 1):
        a = truncation_estimate(cc, k)
        b = truncation_estimate(cc_scaled, k)
        assert b == pytest.approx(scale * a, rel=1e-6, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 1 << 24),  # bytes
    st.integers(1, 1 << 20),  # threads
    st.integers(1, 1024),  # stride
)
def test_gpu_time_monotone_in_bytes(nbytes, threads, stride):
    """More traffic never takes less modeled time, all else equal."""
    from repro.gpu.cost import KernelLaunch, gpu_kernel_time
    from repro.gpu.device import V100

    def rec(b):
        return KernelLaunch(
            name="mass", kind="linear", elements=b // 8 + 1,
            bytes_read=b, bytes_written=b, threads=threads, stride=stride,
        )

    t1 = gpu_kernel_time(rec(nbytes), V100)
    t2 = gpu_kernel_time(rec(2 * nbytes), V100)
    assert t2 >= t1
