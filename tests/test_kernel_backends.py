"""Kernel backend registry, policy, and the loader's failure paths.

The contract under test: the selection policy (``REPRO_KERNEL_BACKEND``
/ override / auto) resolves as documented, and a host whose compiled
library cannot be had — no compiler, a compiler that fails, a cache
directory that cannot be written or is not the caller's, a corrupt
cached file — degrades to the reference backend: silently under
``auto``, with exactly one warning per process under a direct ``native``
request, and never with an exception out of ``decompose``.  That the two
backends give the same bits is ``tests/test_native_identity.py``'s.
"""

from __future__ import annotations

import hashlib
import os
import stat
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.classes import class_sizes
from repro.core.decompose import decompose
from repro.core.grid import hierarchy_for
from repro.core.mass import mass_apply
from repro.core.solver import thomas_sweep
from repro.core.transfer import transfer_apply
from repro.kernels import launcher as L
from repro.kernels.linear_processing import LinearProcessingKernel

ALL_OPS = sorted(L.OP_SPECS)
ROOT = Path(__file__).resolve().parents[1]

needs_cc = pytest.mark.skipif(not native.available(), reason="no C compiler on this host")


@pytest.fixture(autouse=True)
def _reset_policy():
    """Leave no policy override behind."""
    yield
    L.set_kernel_backend(None)


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """A loader that has not looked for its library yet, pointed at an empty
    cache directory; the session's library is loaded again afterwards."""
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "cache" / "kernel_tuning.json"))
    native._reset()
    yield tmp_path / "cache" / "repro-native"
    native._reset()  # the next leaf call loads from the session's directory again


_MISCOMPILES = {
    "wrong_answers": (b"acc = acc + w1", b"acc = acc - w1"),
    # the level entries: pass A's forward sweep, the interpolation along the first axis
    "wrong_level_sweep": (b"z[i] = (acc - zp[i] * lo) / de;", b"z[i] = (acc + zp[i] * lo) / de;"),
    "wrong_level_interp": (b"wl * (double)u0[y] + wr", b"wr * (double)u0[y] + wl"),
    "wrong_huffman_walk": (b"limits[li] <= win", b"limits[li] < win"),
    "wrong_huffman_lanes": (b"o + lane * block + t", b"o + lane * block"),
    "wrong_huffman_search": (b"(*p < v)", b"(*p <= v)"),
    "wrong_huffman_sync": (b"= 64 * b.w + b.fill;", b"= 64 * b.w;"),
    # a row of coarse nodes keeps the mirror image of its detail nodes: as many
    "wrong_class_walk": (b"if (!ic[i])", b"if (!ic[m - 1 - i])"),
}


def _plant(directory: Path, damage: str) -> Path:
    """Put a damaged file where the loader will look for its library — before
    this process has opened that path (``dlopen`` answers a path it has already
    loaded from memory, without looking at the file again)."""
    cc, version = native._compiler()
    path = native._private_dir() / f"native-{native.build_key(native.source(), version)}.so"
    assert path.parent == directory and not path.exists()
    if damage in _MISCOMPILES:  # loads, but is a stale build of other source
        native._build(cc, native.source().replace(*_MISCOMPILES[damage]), path)
    elif damage == "truncated":
        native._build(cc, native.source(), path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
    else:
        path.write_bytes({"garbage": b"\x00not an ELF file" * 64,
                          "header_only": b"\x7fELF" + b"\x00" * 100}[damage])
    return path


def _decompose_falls_back(policy: str) -> list[warnings.WarningMessage]:
    """Two decomposes under ``policy`` on a host with no usable library:
    both must give the reference's bits; returns the warnings raised."""
    x = np.random.default_rng(3).standard_normal((9, 6))
    with native.forced("reference"):
        want = decompose(x)
    L.set_kernel_backend(policy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            assert np.array_equal(decompose(x), want)
    assert L.available_backends() == ["reference"]
    assert L.resolve("correct", (4, 5), np.float64).name == "reference"
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------------------
# policy resolution


def test_policy_default_is_auto(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    assert L.kernel_backend_policy() == "auto"


def test_env_policy_is_honoured(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
    assert L.kernel_backend_policy() == "reference"


def test_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
    L.set_kernel_backend("auto")
    assert L.kernel_backend_policy() == "auto"


def test_invalid_policy_rejected(monkeypatch):
    with pytest.raises(ValueError, match="kernel backend"):
        L.set_kernel_backend("cuda")
    with pytest.raises(ValueError, match="kernel backend"):
        L.set_kernel_backend("numba")  # the deleted backend is not a policy
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
    with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
        L.kernel_backend_policy()


def test_unknown_backend_and_op_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        L.run_op("cuda", "quantize", np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="unknown kernel backend"):
        L.run_op("auto", "quantize", np.ones(4), np.ones(4))  # a policy, not a backend
    with pytest.raises(ValueError, match="unknown kernel op"):
        L.run_op("reference", "fft", np.ones(4))
    with pytest.raises(ValueError, match="unknown kernel op"):
        L.resolve("fft", (8,), np.float64)
    with pytest.raises(ValueError, match="kernel backend"):
        L.resolve("correct", (8,), np.float64, "cuda")


def test_reference_always_available():
    assert "reference" in L.available_backends()


@needs_cc
def test_reference_policy_never_dispatches(monkeypatch):
    """Under ``reference`` no C entry is called, by any leaf."""
    called = []
    real = native._library

    def spy():
        called.append(1)
        return real()

    monkeypatch.setattr(native, "_library", spy)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
    x = np.random.default_rng(0).standard_normal((9, 9))
    decompose(x)
    native.quantize(x.ravel(), np.full(x.size, 3.0))
    assert L.resolve("quantize", (4,), np.float64).name == "reference"
    assert not called
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
    decompose(x)
    assert called


@needs_cc
def test_resolve_names_what_runs():
    for policy in ("auto", "native"):
        for op in ALL_OPS:
            assert L.resolve(op, (8, 9), np.int64 if op == "dequantize" else np.float32,
                             policy).name == "native"
    # a property of the input, not a switch: these take the NumPy bodies
    for dtype in (np.float16, np.longdouble, ">f8"):
        assert L.resolve("correct", (8, 9), dtype, "native").name == "reference"
    assert L.resolve("correct", (8, 9), np.float64, "reference").name == "reference"


def test_forced_policy_is_per_thread_and_restored():
    import threading

    seen = {}
    ambient = L.kernel_backend_policy()
    with native.forced("reference"):
        assert L.kernel_backend_policy() == "reference"
        t = threading.Thread(target=lambda: seen.setdefault("other", L.kernel_backend_policy()))
        t.start()
        t.join(10)
        with native.forced("native"):
            assert L.kernel_backend_policy() == "native"
        assert L.kernel_backend_policy() == "reference"
    assert seen["other"] == ambient and L.kernel_backend_policy() == ambient


# ----------------------------------------------------------------------
# fallback and failure paths: typed, quiet, never out of decompose


def test_native_request_warns_once_then_falls_back(fresh_loader, monkeypatch):
    monkeypatch.setenv("PATH", "")  # no compiler
    (warning,) = _decompose_falls_back("native")
    assert "no C compiler on PATH" in str(warning.message)
    assert not fresh_loader.exists() or not list(fresh_loader.iterdir())


def test_auto_resolves_to_reference_silently(fresh_loader, monkeypatch):
    monkeypatch.setenv("PATH", "")
    assert _decompose_falls_back("auto") == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in ALL_OPS:
            assert L.resolve(op, (8, 9), np.float64).name == "reference"


def test_no_compiler_is_reference_and_diskless(fresh_loader, monkeypatch):
    monkeypatch.setenv("PATH", "")
    assert not native.available()
    assert native.library_path() is None
    assert not list(fresh_loader.parent.rglob("*.so")) and not list(fresh_loader.parent.rglob("*.part"))


def test_failing_compiler_falls_back(fresh_loader, tmp_path, monkeypatch):
    shim = tmp_path / "bin" / "cc"
    shim.parent.mkdir()
    shim.write_text('#!/bin/sh\n[ "$1" = --version ] && { echo shim 1.0; exit 0; }\n'
                    'echo "shim: cannot compile" >&2\nexit 1\n')
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", str(shim.parent))
    (warning,) = _decompose_falls_back("native")
    assert "exited with status 1" in str(warning.message) and "cannot compile" in str(warning.message)
    assert list(fresh_loader.iterdir()) == []  # the temporary is gone


def test_compiler_that_cannot_say_its_version_falls_back(fresh_loader, tmp_path, monkeypatch):
    shim = tmp_path / "bin" / "cc"
    shim.parent.mkdir()
    shim.write_text("#!/bin/sh\nexit 1\n")
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", str(shim.parent))
    (warning,) = _decompose_falls_back("native")
    assert "--version exited with status 1" in str(warning.message)


@needs_cc
def test_unwritable_cache_directory_falls_back(fresh_loader, monkeypatch):
    fresh_loader.parent.mkdir()
    fresh_loader.write_text("a file where the directory should be")
    (warning,) = _decompose_falls_back("native")
    assert "cache directory" in str(warning.message)
    native._reset()
    assert _decompose_falls_back("auto") == []


@needs_cc
@pytest.mark.skipif(os.geteuid() == 0, reason="root writes into read-only directories")
def test_read_only_cache_directory_falls_back(fresh_loader):
    fresh_loader.mkdir(parents=True, mode=0o500)
    try:
        (warning,) = _decompose_falls_back("native")
        assert "cache directory" in str(warning.message)
    finally:
        fresh_loader.chmod(0o700)


@needs_cc
def test_cache_directory_of_another_owner_is_not_loaded_from(fresh_loader, monkeypatch):
    assert native.available()  # builds into the directory
    native._reset()
    monkeypatch.setattr(os, "geteuid", lambda: os.getuid() + 1)
    (warning,) = _decompose_falls_back("native")
    assert "not private" in str(warning.message)


@needs_cc
def test_group_writable_cache_directory_is_not_loaded_from(fresh_loader):
    fresh_loader.mkdir(parents=True)
    fresh_loader.chmod(0o770)
    (warning,) = _decompose_falls_back("native")
    assert "not private" in str(warning.message)


@needs_cc
def test_cache_directory_is_private_and_holds_one_file(fresh_loader):
    assert native.available()
    assert stat.S_IMODE(fresh_loader.stat().st_mode) == 0o700
    assert [p.name for p in fresh_loader.iterdir()] == [native.library_path().name]


@needs_cc
@pytest.mark.parametrize("damage", ["truncated", "garbage", "header_only"])
def test_corrupt_cached_library_is_rebuilt(fresh_loader, damage):
    path = _plant(fresh_loader, damage)
    damaged = path.read_bytes()
    x = np.random.default_rng(5).standard_normal((17, 9))
    with native.forced("reference"):
        want = decompose(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with native.forced("native"):
            assert np.array_equal(decompose(x), want)
    assert native.library_path() == path and path.read_bytes() != damaged
    assert [p.name for p in fresh_loader.iterdir()] == [path.name]


@needs_cc
def test_library_that_disagrees_with_numpy_is_not_used(fresh_loader):
    """A sealed library under the right key that computes something else (a
    miscompile: rebuilding would give the same file) fails the load-time check."""
    path = _plant(fresh_loader, "wrong_answers")
    stale = path.read_bytes()
    (warning,) = _decompose_falls_back("native")
    assert "disagrees with the NumPy bodies" in str(warning.message)
    assert path.read_bytes() == stale


@needs_cc
@pytest.mark.parametrize("damage", ["wrong_level_sweep", "wrong_level_interp"])
def test_library_whose_level_entries_disagree_is_not_used(fresh_loader, damage):
    """The load-time decompositions and recompositions reach pass A of the
    correction and the interpolation along the first coarsening axis."""
    assert native.source().count(_MISCOMPILES[damage][0]) == 1
    _plant(fresh_loader, damage)
    (warning,) = _decompose_falls_back("native")
    assert "disagrees with the NumPy bodies" in str(warning.message)


@needs_cc
@pytest.mark.parametrize("damage", sorted(d for d in _MISCOMPILES if d.startswith("wrong_huffman")))
def test_library_whose_huffman_entries_disagree_is_not_used(fresh_loader, damage):
    """The load-time check reaches the first-code search behind the prefix
    table, the four-abreast walk, and the encode's binary search and sync
    offsets."""
    assert native.source().count(_MISCOMPILES[damage][0]) == 1
    _plant(fresh_loader, damage)
    (warning,) = _decompose_falls_back("native")
    assert "disagrees with the NumPy bodies" in str(warning.message)


@needs_cc
def test_library_whose_class_walk_skips_the_wrong_nodes_is_not_used(fresh_loader):
    """A coarse skip that moves as many values as the class has, but not its
    own, passes every count check; the load-time walks on a 6-point axis catch
    it, and the split falls back to the NumPy body."""
    assert native.source().count(_MISCOMPILES["wrong_class_walk"][0]) == 1
    _plant(fresh_loader, "wrong_class_walk")
    (warning,) = _decompose_falls_back("native")
    assert "disagrees with the NumPy bodies" in str(warning.message)
    hier = hierarchy_for((5, 6))
    x = np.random.default_rng(2).standard_normal((5, 6))
    assert not native.class_walk("gather", x, [np.empty(n) for n in class_sizes(hier)], hier)


@needs_cc
def test_corrupt_cached_library_that_cannot_be_rebuilt_falls_back(fresh_loader, monkeypatch):
    _plant(fresh_loader, "truncated")

    def no_build(cc, src, target):
        raise native._Unavailable("no build today")

    monkeypatch.setattr(native, "_build", no_build)
    (warning,) = _decompose_falls_back("native")
    assert "no build today" in str(warning.message)


_COLD_START = """
import sys, hashlib, warnings, numpy as np
warnings.simplefilter("error", RuntimeWarning)
from repro.core import native
from repro.core.classes import class_sizes
from repro.core.decompose import decompose
native.set_kernel_backend("native")
x = np.random.default_rng(11).standard_normal((33, 17))
out = decompose(x)
print(native.available(), hashlib.sha256(out.tobytes()).hexdigest())
"""


@needs_cc
def test_four_process_cold_start_publishes_one_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_TUNE_CACHE=str(tmp_path / "kernel_tuning.json"))
    procs = [subprocess.Popen([sys.executable, "-c", _COLD_START], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(4)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert all(p.returncode == 0 for p in procs), [err for _, err in outs]
    with native.forced("reference"):
        want = decompose(np.random.default_rng(11).standard_normal((33, 17)))
    assert {out.strip() for out, _ in outs} == {f"True {hashlib.sha256(want.tobytes()).hexdigest()}"}
    files = list((tmp_path / "repro-native").iterdir())
    assert len(files) == 1 and files[0].suffix == ".so", files


def test_masked_numba_import_falls_back(tmp_path):
    """With compilers masked from ``PATH`` (and numba masked by
    ``REPRO_NO_NUMBA=1``) the package runs on the NumPy bodies alone."""
    env = dict(os.environ, REPRO_NO_NUMBA="1", PATH="", PYTHONPATH=str(ROOT / "src"),
               REPRO_TUNE_CACHE=str(tmp_path / "kernel_tuning.json"))
    env.pop("REPRO_KERNEL_BACKEND", None)
    code = (
        "import warnings; warnings.simplefilter('error', RuntimeWarning)\n"
        "import numpy as np\n"
        "from repro import Refactorer\n"
        "from repro.kernels.jit import HAVE_NUMBA\n"
        "from repro.kernels.launcher import available_backends, resolve\n"
        "assert not HAVE_NUMBA\n"
        "assert available_backends() == ['reference']\n"
        "assert resolve('correct', (4, 5), 'float64').name == 'reference'\n"
        "r = Refactorer((9, 9)); x = np.arange(81.0).reshape(9, 9)\n"
        "assert np.allclose(r.recompose(r.decompose(x)), x)\n"
        "print('ok')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# packaging


def test_source_ships_as_package_data_and_the_key_covers_it():
    shipped = resources.files("repro.core").joinpath("native.c").read_bytes()
    assert shipped == native.source() == (ROOT / "src/repro/core/native.c").read_bytes()
    key = native.build_key(shipped, b"cc 1.0")
    assert key == native.build_key(shipped, b"cc 1.0")
    assert key != native.build_key(shipped + b" ", b"cc 1.0")  # any byte of the source
    assert key != native.build_key(shipped, b"cc 1.1")  # the compiler
    if native.available():
        _, version = native._compiler()
        assert native.library_path().name == f"native-{native.build_key(shipped, version)}.so"


# ----------------------------------------------------------------------
# the reference ops are the production arithmetic the literal kernels agree with


@pytest.mark.parametrize("m", [5, 17, 65])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_reference_twins_match_segmented_kernels(m, dtype, rng):
    hier = hierarchy_for((m, m))
    ops = hier.level_ops(hier.L, 0)
    k = LinearProcessingKernel(ops, segment=5)
    v = rng.standard_normal((8, m)).astype(dtype)

    assert mass_apply(v, ops.h_fine, axis=1).tobytes() == k.mass_multiply(v).tobytes()
    assert transfer_apply(v, ops, axis=1).tobytes() == k.transfer_multiply(v).tobytes()

    vc = rng.standard_normal((8, ops.m_coarse)).astype(dtype)
    got = thomas_sweep(vc, ops.mass_bands_coarse[0, 1:], ops.thomas_cp, ops.thomas_denom)
    assert got.tobytes() == k.solve(vc).tobytes()


def test_reference_quantize_twin_matches_numpy(rng):
    flat = rng.standard_normal(999) * 40.0
    inv = np.repeat(1.0 / np.asarray([0.01, 0.02, 0.4]), 333)
    got = L.run_op("reference", "quantize", flat, inv)
    assert np.array_equal(got, np.round(flat * inv).astype(np.int64))
    back = L.run_op("reference", "dequantize", got, 1.0 / inv)
    assert np.array_equal(back, got.astype(np.float64) * (1.0 / inv))


def test_empty_arrays_roundtrip():
    for backend in L.available_backends():
        got = L.run_op(backend, "quantize", np.empty(0), np.empty(0))
        assert got.size == 0 and got.dtype == np.int64
        got = L.run_op(backend, "dequantize", np.empty(0, np.int64), np.empty(0))
        assert got.size == 0 and got.dtype == np.float64


def test_run_op_rejects_an_unavailable_backend(fresh_loader, monkeypatch):
    monkeypatch.setenv("PATH", "")
    with pytest.raises(ValueError, match="not available"):
        L.run_op("native", "quantize", np.ones(4), np.ones(4))


# ----------------------------------------------------------------------
# every op of the table, on every backend this host has


def _same(got, want) -> bool:
    """Equal bits: arrays by dtype and buffer, tuples and lists item by item."""
    if isinstance(want, (tuple, list)):
        return type(got) is type(want) and len(got) == len(want) and all(map(_same, got, want))
    if not isinstance(want, np.ndarray):
        return type(got) is type(want) and got == want
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_measure_backend_times_reports_available_backends():
    for op in ALL_OPS:
        times = L.measure_backend_times(op, (8, 9), np.float64, repeats=1)
        assert set(times) == set(L.available_backends())
        assert all(t > 0 for t in times.values())
        args = L.OP_SPECS[op].make_inputs((8, 9), np.dtype(np.float64), np.random.default_rng(7))
        want = L.run_op("reference", op, *args)
        for backend in L.available_backends():
            assert _same(L.run_op(backend, op, *args), want), (op, backend)
