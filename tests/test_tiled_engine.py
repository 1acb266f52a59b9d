"""Tests for TiledEngine: Algorithm 3 through the literal paper kernels.

Whole pipelines agree with the production engine to rounding, not bit for
bit: the literal engine runs the mass and transfer kernels back to back
where production evaluates their product as one stencil
(``tests/test_engine_seam.py`` pins every other op to exact equality).
"""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy
from repro.kernels.tiled_engine import TiledEngine

from conftest import assert_rounding_close


@pytest.mark.parametrize(
    "shape", [(17,), (17, 13), (9, 9, 9), (16, 7), (12, 5, 6), (33, 9)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_full_pipeline_matches_reference(shape, rng):
    h = TensorHierarchy.from_shape(shape)
    data = rng.standard_normal(shape)
    ref = decompose(data, h)
    eng = TiledEngine(b=2, segment=5)
    assert_rounding_close(decompose(data, h, eng), ref, data)
    assert_rounding_close(recompose(ref, h, TiledEngine(b=2, segment=5)), recompose(ref, h), data)


def test_3d_goes_through_slice_walks(rng):
    h = TensorHierarchy.from_shape((9, 9, 9))
    eng = TiledEngine()
    decompose(rng.standard_normal((9, 9, 9)), h, eng)
    assert eng.slice_launches > 0  # §III-D: 2D kernels reused per slice


def test_2d_uses_no_slice_walks(rng):
    h = TensorHierarchy.from_shape((17, 17))
    eng = TiledEngine()
    decompose(rng.standard_normal((17, 17)), h, eng)
    assert eng.slice_launches == 0


@pytest.mark.parametrize("b,segment", [(1, 2), (3, 16), (2, 64)])
def test_tile_and_segment_sizes_are_free_parameters(b, segment, rng):
    h = TensorHierarchy.from_shape((17, 13))
    data = rng.standard_normal((17, 13))
    ref = decompose(data, h)
    out = decompose(data, h, TiledEngine(b=b, segment=segment))
    assert_rounding_close(out, ref, data)
    np.testing.assert_array_equal(out, decompose(data, h, TiledEngine()))


def test_nonuniform_grid(rng):
    from conftest import nonuniform_coords

    shape = (17, 9)
    h = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng))
    data = rng.standard_normal(shape)
    out = decompose(data, h, TiledEngine(b=2, segment=4))
    assert_rounding_close(out, decompose(data, h), data)
