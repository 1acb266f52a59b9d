"""Shared fixtures for the test suite."""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import numpy as np
import pytest

# One compiled-kernel cache per test session (built by the first decompose,
# shared with every server and pool worker the tests start), not one in the
# home directory of whoever runs the suite.
if "REPRO_TUNE_CACHE" not in os.environ:
    _cache = tempfile.mkdtemp(prefix="repro-tune-")
    os.environ["REPRO_TUNE_CACHE"] = os.path.join(_cache, "kernel_tuning.json")
    atexit.register(shutil.rmtree, _cache, ignore_errors=True)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test random generator."""
    return np.random.default_rng(0xC0FFEE)


#: Shapes covering 1D/2D/3D, dyadic and non-dyadic, degenerate dims.
ROUNDTRIP_SHAPES = [
    (3,),
    (17,),
    (100,),
    (2, 2),
    (5, 5),
    (33, 17),
    (16, 7),
    (1, 33),
    (9, 9, 9),
    (12, 5, 6),
    (33, 5, 2),
]


@pytest.fixture(params=ROUNDTRIP_SHAPES, ids=lambda s: "x".join(map(str, s)))
def any_shape(request) -> tuple[int, ...]:
    return request.param


def nonuniform_coords(shape: tuple[int, ...], rng: np.random.Generator):
    """Random strictly-increasing coordinates per dimension."""
    coords = []
    for n in shape:
        if n == 1:
            coords.append(np.zeros(1))
            continue
        steps = rng.uniform(0.2, 1.8, size=n - 1)
        x = np.concatenate([[0.0], np.cumsum(steps)])
        coords.append(x / x[-1])
    return tuple(coords)


def record_kernel_calls(monkeypatch):
    """Record every call the drivers make to the four math kernels as ``(name,
    args, result, result_is_c_contiguous)``, through the module bindings they
    call.  Arrays are snapshots: ``decompose`` adopts the finest coefficient
    array as its output and overwrites it under later levels."""
    from repro.core import coefficients, correction

    calls = []
    for module, name in ((coefficients, "compute_coefficients"),
                         (coefficients, "restore_from_coefficients"),
                         (correction, "mass_transfer_apply"), (correction, "solve_correction")):
        def recorded(*args, _name=name, _fn=getattr(module, name)):
            seen = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            out = _fn(*args)
            calls.append((_name, seen, out.copy(), out.flags.c_contiguous))
            return out

        monkeypatch.setattr(module, name, recorded)
    return calls


def assert_rounding_close(got, ref, scale_of, dtype=np.float64):
    """``|got - ref| <= 8 * eps(dtype) * max|scale_of|`` — the bound on the one
    op (and so on whole pipelines) where the literal kernels and the fused
    production stencil round differently."""
    tol = 8 * np.finfo(dtype).eps * max(float(np.abs(scale_of).max()), np.finfo(dtype).tiny)
    np.testing.assert_allclose(got, ref, rtol=0, atol=tol)
