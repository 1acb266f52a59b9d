"""Algorithm 3 through the literal paper kernels (``literal_pipeline.py``).

Whole pipelines agree with production to rounding, not bit for bit: the
literal pipeline runs the mass and transfer kernels back to back where
production evaluates their product as one stencil
(``tests/test_engine_seam.py`` pins every other op to exact equality).
"""

import weakref

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy

from conftest import assert_rounding_close, nonuniform_coords
from literal_pipeline import LiteralPipeline


@pytest.mark.parametrize(
    "shape", [(17,), (17, 13), (9, 9, 9), (16, 7), (12, 5, 6), (33, 9)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_full_pipeline_matches_reference(shape, rng):
    h = TensorHierarchy.from_shape(shape)
    data = rng.standard_normal(shape)
    ref = decompose(data, h)
    literal = LiteralPipeline(b=2, segment=5)
    assert_rounding_close(literal.decompose(data, h), ref, data)
    assert_rounding_close(literal.recompose(ref, h), recompose(ref, h), data)


def test_3d_goes_through_slice_walks(rng):
    literal = LiteralPipeline()
    literal.decompose(rng.standard_normal((9, 9, 9)), TensorHierarchy.from_shape((9, 9, 9)))
    assert literal.slice_launches > 0  # §III-D: 2D kernels reused per slice


def test_2d_uses_no_slice_walks(rng):
    literal = LiteralPipeline()
    literal.decompose(rng.standard_normal((17, 17)), TensorHierarchy.from_shape((17, 17)))
    assert literal.slice_launches == 0


@pytest.mark.parametrize("b,segment", [(1, 2), (3, 16), (2, 64)])
def test_tile_and_segment_sizes_are_free_parameters(b, segment, rng):
    h = TensorHierarchy.from_shape((17, 13))
    data = rng.standard_normal((17, 13))
    out = LiteralPipeline(b=b, segment=segment).decompose(data, h)
    assert_rounding_close(out, decompose(data, h), data)
    np.testing.assert_array_equal(out, LiteralPipeline().decompose(data, h))


def test_nonuniform_grid(rng):
    shape = (17, 9)
    h = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng))
    data = rng.standard_normal(shape)
    assert_rounding_close(LiteralPipeline(b=2, segment=4).decompose(data, h), decompose(data, h), data)


def test_one_pipeline_serves_hierarchies_that_come_and_go(rng):
    """One pipeline refactors a run of hierarchies of different shapes, each
    built, used and dropped, and keeps none alive (a kernel cache keyed on
    ``id(hier)`` either pins every hierarchy or serves a recycled address)."""
    literal = LiteralPipeline(b=2, segment=5)
    for shape in [(17, 9), (9, 17), (12, 5), (5, 12), (9, 9, 5)] * 2:
        h = TensorHierarchy.from_shape(shape)
        data = rng.standard_normal(shape)
        assert_rounding_close(literal.decompose(data, h), decompose(data, h), data)
        gone = weakref.ref(h)
        del h
        assert gone() is None, shape
