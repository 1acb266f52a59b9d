"""Every input the reference accepts gives the same bits under ``native``.

One differential matrix over the two kernel backends: shapes 1D–4D
(even lengths with their tail node, size-1/2/3 axes), uniform and
non-uniform coordinates, the C-route dtypes (float32/float64) and the
NumPy-body ones (float16, longdouble, byte-swapped, integer), C-, F-
ordered, strided and read-only inputs.  ``decompose``, ``recompose`` and
``Refactorer.reconstruct`` must agree bit for bit, never alias or mutate
the input, and reject a NaN/Inf input alike.  On top of it, stream
directories written under either backend by any executor hash the same.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.decompose import decompose, recompose
from repro.core.refactor import Refactorer

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(not native.available(), reason="no C compiler on this host")

DTYPES = ["f8", "f4", "f2", "longdouble", ">f8", ">f4", "i4"]
LAYOUTS = ["C", "F", "strided", "readonly"]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape, values and zero signs (NaNs in the same places)."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=np.issubdtype(a.dtype, np.floating))
            and (not np.issubdtype(a.dtype, np.floating)
                 or np.array_equal(np.signbit(a), np.signbit(b))))


def laid_out(values: np.ndarray, dtype: str, layout: str) -> np.ndarray:
    with np.errstate(all="ignore"):  # a NaN cast to int32, 1e16 to float16
        x = (values * 100).astype(dtype) if np.dtype(dtype).kind == "i" else values.astype(dtype)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        big = np.zeros(tuple(2 * n + 1 for n in x.shape), dtype=x.dtype)
        view = big[tuple(slice(1, 2 * n, 2) for n in x.shape)]
        view[...] = x
        x = view
    elif layout == "readonly":
        x.setflags(write=False)
    return x


def coordinates(shape, rng):
    return tuple(np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))]) if n > 1
                 else np.zeros(1) for n in shape)


def outcome(fn, *args):
    """What a call gives: its array, or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def check_case(shape, dtype, layout, nonuniform, seed, poison=None):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    if poison is not None:
        values.flat[int(rng.integers(values.size))] = poison
    x = laid_out(values, dtype, layout)
    before = x.copy()
    r = Refactorer(shape, coordinates(shape, rng) if nonuniform else None)
    k = int(rng.integers(1, r.n_classes + 1))

    got = {}
    for backend in ("reference", "native"):
        with native.forced(backend), np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # float16 overflow, NaN casts
            d = outcome(decompose, x, r.hier)
            if isinstance(d, str):
                got[backend] = (d,)
                continue
            assert not np.shares_memory(d, x)
            back = outcome(recompose, d, r.hier)
            assert isinstance(back, str) or not np.shares_memory(back, d)
            part = outcome(lambda: r.reconstruct(r.refactor(x), k))
            got[backend] = (d, back, part)
        assert same_bits(x, before), "input mutated"
    ref, nat = got["reference"], got["native"]
    assert len(ref) == len(nat)
    for a, b in zip(ref, nat):
        assert type(a) is type(b)
        assert a == b if isinstance(a, str) else same_bits(a, b)
    if poison is not None and r.hier.L > 0 and np.dtype(dtype).kind == "f":
        assert ref == ("array must not contain infs or NaNs",)


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 4))
    cap = {1: 70, 2: 34, 3: 13, 4: 7}[ndim]
    shape = tuple(draw(st.integers(1, cap)) for _ in range(ndim))
    return (shape, draw(st.sampled_from(DTYPES)), draw(st.sampled_from(LAYOUTS)),
            draw(st.booleans()), draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_backends_agree_on_every_input(case):
    check_case(*case)


@settings(max_examples=40, deadline=None)
@given(cases(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_backends_reject_non_finite_input_alike(case, poison):
    check_case(*case, poison=poison)


@pytest.mark.parametrize("shape", [(128, 65, 65), (6,), (1,), (2,), (3,), (4, 4), (2, 3, 1, 5),
                                   (1, 1, 9), (10, 1, 3), (64, 2)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_backends_agree_on_fixed_shapes(shape, dtype):
    for layout in LAYOUTS:
        check_case(shape, dtype, layout, nonuniform=layout == "F", seed=len(shape))


def test_more_outer_dimensions_than_the_library_iterates_take_numpy():
    shape = (1,) * 17 + (3, 5)
    check_case(shape, "f8", "C", False, 0)


# ----------------------------------------------------------------------
# the quantizer's two passes

_EDGE = np.array([0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -1.5, -2.5, 1e-320, -1e-320, 2.0**51 + 0.5,
                  2.0**52 - 0.5, -(2.0**52) + 0.5, 2.0**52, 2.0**53 + 2, 2.0**62, -(2.0**63),
                  2.0**63, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan])


def _both(fn, *args):
    out = []
    for backend in ("reference", "native"):
        with native.forced(backend), np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NumPy's out-of-range cast warning
            out.append(fn(*args))
    return out


@pytest.mark.parametrize("dtype", ["f8", "f4", "f2", ">f8"])
def test_quantize_agrees_including_ties_zeros_and_out_of_range(dtype, rng):
    with np.errstate(over="ignore"):
        flat = np.concatenate([_EDGE, rng.standard_normal(4000) * 40,
                               rng.integers(-50, 50, 500) + 0.5,
                               rng.standard_normal(500) * 1e16]).astype(dtype)
    for inv in (np.ones(flat.size), rng.uniform(0.1, 300.0, flat.size), np.full(flat.size, 1e300)):
        ref, nat = _both(native.quantize, flat, inv)
        assert ref.dtype == nat.dtype == np.int64 and np.array_equal(ref, nat)
    ref, nat = _both(native.quantize, flat[::3], np.ones(flat.size)[::3])  # strided: NumPy body
    assert np.array_equal(ref, nat)


def test_dequantize_agrees_including_extremes(rng):
    info = np.iinfo(np.int64)
    bins = np.concatenate([[0, 1, -1, info.max, info.min, 2**53 + 1, -(2**53) - 1],
                           rng.integers(-2000, 2000, 5000)]).astype(np.int64)
    for scale in (rng.uniform(0.005, 0.05, bins.size), np.full(bins.size, 5e-324),
                  np.full(bins.size, np.inf), np.zeros(bins.size)):
        ref, nat = _both(native.dequantize, bins, scale)
        assert same_bits(ref, nat)
    ref, nat = _both(native.dequantize, bins.astype(np.int32), np.ones(bins.size))
    assert same_bits(ref, nat)


# ----------------------------------------------------------------------
# whole stream directories: backend x executor

_WRITE_STREAMS = '''
import hashlib, sys
from pathlib import Path
import numpy as np
from repro.io.stream import StepStreamWriter
from repro.parallel import get_executor

def main(root):
    shape = (48, 40, 40)  # 76 800 symbols: above the codecs' fan-out thresholds
    rng = np.random.default_rng(21)
    base = np.cumsum(rng.standard_normal(shape), axis=0)
    frames = [base + 0.05 * t * np.sin(np.arange(shape[2]) + t) for t in range(4)]
    kinds = {"refactored": {}, "zlib": {"tol": 1e-3, "backend": "zlib"},
             "huffman": {"tol": 1e-4, "backend": "huffman"},
             "sharded": {"tol": 1e-3, "backend": "zlib", "shards": 4}}
    for spec in ("serial", "thread:2", "process:2"):
        executor = get_executor(spec)
        for kind, options in kinds.items():
            out = Path(root) / f"{kind}-{spec.replace(':', '')}"
            writer = StepStreamWriter(out, shape, key_interval=2, executor=executor, **options)
            for t, frame in enumerate(frames):
                writer.append(frame, time=float(t))
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\\0" + path.read_bytes())
            print(kind, spec, digest.hexdigest())

if __name__ == "__main__":
    main(sys.argv[1])
'''


def test_stream_directories_hash_the_same_across_backends_and_executors(tmp_path):
    script = tmp_path / "write_streams.py"
    script.write_text(_WRITE_STREAMS)
    digests = {}
    for backend in ("reference", "native"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_KERNEL_BACKEND=backend)
        env.pop("REPRO_EXECUTOR", None)
        out = subprocess.run([sys.executable, str(script), str(tmp_path / backend)], env=env,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        for line in out.stdout.splitlines():
            kind, spec, digest = line.split()
            digests[backend, kind, spec] = digest
    assert len(digests) == 2 * 4 * 3
    for kind in ("refactored", "zlib", "huffman", "sharded"):
        assert len({d for (_, k, _), d in digests.items() if k == kind}) == 1, kind
