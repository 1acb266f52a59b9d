"""Opt-in paper-scale functional runs (``pytest -m slow``).

The regular suite keeps CI-friendly sizes; these tests execute the real
pipeline at the paper's largest evaluated configurations to demonstrate
the functional substrate holds at scale (memory permitting).
"""

import numpy as np
import pytest

from repro.core.decompose import decompose, recompose
from repro.core.grid import TensorHierarchy

pytestmark = pytest.mark.slow


def test_2d_8193_roundtrip():
    """The paper's largest 2D configuration (537 MB of doubles)."""
    h = TensorHierarchy.from_shape((8193, 8193))
    rng = np.random.default_rng(0)
    data = rng.standard_normal((8193, 8193))
    rt = recompose(decompose(data, h), h)
    assert np.abs(rt - data).max() < 1e-8


def test_3d_257_roundtrip_with_metered_engine():
    """A large 3D configuration, functionally and through the cost model."""
    from repro.gpu.analytic import model_pass
    from repro.gpu.device import V100
    from repro.kernels.launches import EngineOptions

    shape = (257, 257, 257)
    h = TensorHierarchy.from_shape(shape)
    rng = np.random.default_rng(1)
    data = rng.standard_normal(shape)
    rt = recompose(decompose(data, h), h)
    assert np.abs(rt - data).max() < 1e-8
    assert model_pass(h, V100, EngineOptions(n_streams=8)).total_seconds > 0
