"""Every input the reference accepts gives the same bits under ``native``.

One differential matrix over the two kernel backends: shapes 1D–4D
(even lengths with their tail node, size-1/2/3 axes), uniform and
non-uniform coordinates, the C-route dtypes (float32/float64) and the
NumPy-body ones (float16, longdouble, byte-swapped, integer), C-, F-
ordered, strided and read-only inputs; anisotropic grids whose axes stop
coarsening.  ``decompose``, ``recompose`` and ``Refactorer.reconstruct``
must agree bit for bit, never alias or mutate the input, and meet a
NaN/Inf input alike (first or last plane, coarse or detail node) — the C walk
stopping at the level where the NumPy driver raises —; a native call is one
call into the library per field; the NumPy level bodies must ignore what a
refactored array holds at coarse positions, and recompositions of
de-quantized and truncated arrays must agree too.  The entropy stage's integer
loops get the same treatment — payload bytes, headers, code lengths and
decoded symbols per backend against each other and the heap/scalar
oracle, foreign books with 39- and 64-bit codes and int64-extreme values,
and drawn chains of ``encode_classes`` steps whose shipped books must be
the oracle's book of their segment — plus a mutation run that must end
every damaged segment (book, sync words, bitstream) in a ``ValueError``
or an array, never a signal.  On top of it, stream directories written under either backend
by any executor hash the same.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import huffman_oracle as O
import repro.compress.huffman as H
import repro.compress.huffman_book as B
import repro.compress.huffman_pack as P
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.quantizer import Quantizer
from repro.core import coefficients, correction, native
from repro.core.classes import assemble_from_classes, extract_classes
from repro.core.coefficients import restore_from_coefficients
from repro.core.correction import subtract_correction
from repro.core.decompose import decompose, recompose
from repro.core.grid import hierarchy_for
from repro.core.refactor import Refactorer
from repro.parallel import ThreadExecutor, get_executor

ROOT = Path(__file__).resolve().parents[1]
D = importlib.import_module("repro.core.decompose")  # the package's ``decompose`` is the function

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


FIXED_SHAPES = [(128, 65, 65), (32, 65, 65), (5, 6), (3, 5, 6), (6,), (1,), (2,), (3,), (4, 4),
                (2, 3, 1, 5), (6, 5, 4, 9), (1, 1, 9), (10, 1, 3), (64, 2), (2, 17, 1)]


@pytest.mark.parametrize("shape", FIXED_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_backends_agree_on_fixed_shapes(shape, dtype):
    for layout in LAYOUTS:
        check_case(shape, dtype, layout, nonuniform=layout == "F", seed=len(shape))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(5, 129), (129, 5), (32, 65, 65), (3, 40), (2, 2, 33), (6, 1, 20, 3),
                        (64, 9), (9, 64), (1, 2, 17), (31, 7, 4, 2)]),
       st.sampled_from(["f8", "f4"]), st.sampled_from(LAYOUTS), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_backends_agree_where_axes_stop_coarsening(shape, dtype, layout, nonuniform, seed):
    """Anisotropic grids: shallow axes stop coarsening, and below that level the
    plane walks run with a batch of one or two nodes before their first
    coarsening axis, or with planes of one node."""
    check_case(shape, dtype, layout, nonuniform, seed)


@pytest.mark.parametrize("shape", [(17, 9), (16, 10), (9, 8, 6), (33,), (5, 6, 7, 4)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_coarse_position_noise_does_not_leak(shape, dtype, rng):
    """What a refactored array holds at a level's coarse positions — coarser
    payloads, quantization noise — changes neither the NumPy correction nor the
    restore of that level: they zero or overwrite it.  The C walk reads each
    level at its detail nodes only, and agrees with the NumPy driver on every
    layout."""
    hier = hierarchy_for(shape)
    c = rng.standard_normal(shape).astype(dtype)
    c[hier.coarse_selector(hier.L)] = 0.0
    noisy = c.copy()
    noisy[hier.coarse_selector(hier.L)] = rng.standard_normal(hier.level_shape(hier.L - 1)) * 1e3
    vc = rng.standard_normal(hier.level_shape(hier.L - 1))
    with native.forced("reference"):
        for step in (subtract_correction, lambda v, c, h, l: restore_from_coefficients(c, v, h, l)):
            assert same_bits(step(vc, noisy, hier, hier.L), step(vc, c, hier, hier.L))
    for layout in LAYOUTS:
        check_case(shape, dtype, layout, nonuniform=layout == "F", seed=len(shape))


_ENTRIES = [f"{walk}_{suffix}" for walk in ("decompose", "recompose") for suffix in ("f64", "f32")]


def _spy_walks(monkeypatch) -> list:
    """Record where each walk ends: the NumPy driver's corrections by their
    level, the C entries by their status (0, or the level they stopped at) —
    the calls of this thread; a walk's helpers make the same C call on the
    thread executor's workers, unrecorded."""
    seen: list = []
    me = threading.get_ident()
    for name in ("restrict_and_correct", "subtract_correction"):
        monkeypatch.setattr(D, name, lambda v, c, hier, l, _fn=getattr(D, name):
                            seen.append(l) or _fn(v, c, hier, l))
    lib = native._library()
    for name in _ENTRIES:
        monkeypatch.setattr(lib, name, lambda *a, _fn=getattr(lib, name), _name=name:
                            _fn(*a) if threading.get_ident() != me
                            else seen.append((_name, _fn(*a))) or seen[-1][1])
    return seen


@pytest.mark.parametrize("shape", [(32, 65, 65), (5, 6), (3, 5, 6), (17,), (6, 1, 20, 3), (2, 3)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_a_native_call_is_one_library_call_per_field(shape, dtype, monkeypatch):
    """Every level of a ``decompose`` or ``recompose`` runs inside one call of
    the loaded library: no per-level entry exists, no NumPy level body runs."""
    lib = native._library()
    assert not any(hasattr(lib, n) for n in ("coefficients_f64", "restore_f64", "correct_f64",
                                             "level_scratch"))
    seen = _spy_walks(monkeypatch)
    for module, name in ((coefficients, "compute_coefficients"),
                         (coefficients, "restore_from_coefficients"),
                         (correction, "compute_correction")):
        monkeypatch.setattr(module, name, lambda *a, _n=name: pytest.fail(f"{_n} ran"))
    x = np.random.default_rng(1).standard_normal(shape).astype(dtype)
    suffix = native._SUFFIX[x.dtype]
    with native.forced("native"):
        y = decompose(x, hierarchy_for(shape))
        assert seen == [(f"decompose_{suffix}", 0)]
        seen.clear()
        recompose(y, hierarchy_for(shape))
        assert seen == [(f"recompose_{suffix}", 0)]


@pytest.mark.parametrize("shape", [(33, 17), (16, 9, 6)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_recompose_from_quantized_and_truncated_classes_agrees(shape, dtype, rng):
    """The reconstructions a reader makes — de-quantized bins, the first k
    classes — give the same bits under both backends."""
    hier = hierarchy_for(shape)
    x = rng.standard_normal(shape).astype(dtype)
    outs = {}
    for backend in ("reference", "native"):
        with native.forced(backend):
            y = decompose(x, hier)
            q = Quantizer(1e-3)
            bins, sizes, steps = q.quantize_refactored(y, hier)
            deq = Quantizer.dequantize_refactored(bins, sizes, steps, hier).astype(dtype)
            classes = extract_classes(y, hier)
            outs[backend] = [recompose(deq, hier)] + [
                recompose(assemble_from_classes(classes[:k], hier).astype(dtype), hier)
                for k in range(1, len(classes) + 1)]
    for a, b in zip(outs["reference"], outs["native"]):
        assert same_bits(a, b)


def _poisoned(shape, dtype, plane, node, poison):
    """A field with one non-finite value in the first or last plane of axis 0,
    at a node coarse on every axis or at a detail node of the last axis."""
    x = np.random.default_rng(len(shape)).standard_normal(shape).astype(dtype)
    at = [0 if plane == "first" else n - 1 for n in shape]
    if node == "detail":
        at[-1] = 1
    x[tuple(at)] = poison
    return x


@pytest.mark.parametrize("shape", [(17, 9), (16, 9, 6), (33,), (257, 129), (33, 33, 33)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("plane", ["first", "last"])
@pytest.mark.parametrize("node", ["coarse", "detail"])
@pytest.mark.parametrize("poison", [np.nan, np.inf])
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_non_finite_input_meets_the_same_fate(shape, plane, node, poison, dtype, monkeypatch,
                                              teams_of_three):
    """``decompose`` raises thomas_solve's ``ValueError`` under both backends;
    ``recompose`` of a poisoned refactored array raises it or returns the
    same bits under both, depending on the level the node belongs to.  The C
    walk stops at the level whose NumPy correction raises — on a team for the
    fields of at least ``native._TEAM_MIN`` nodes."""
    hier = hierarchy_for(shape)
    x = _poisoned(shape, dtype, plane, node, poison)
    walks = _spy_walks(monkeypatch)
    seen = {}
    for backend in ("reference", "native"):
        with native.forced(backend), np.errstate(all="ignore"):
            for fn in (decompose, recompose):
                walks.clear()
                got = outcome(fn, x, hier)
                stop = walks[-1][1] if backend == "native" else walks[-1]  # raised there
                seen[backend, fn] = got, stop if isinstance(got, str) else 0
    assert seen["reference", decompose][0] == "array must not contain infs or NaNs"
    for fn in (decompose, recompose):
        (ref, ref_stop), (nat, nat_stop) = seen["reference", fn], seen["native", fn]
        assert ref_stop == nat_stop
        assert ref == nat if isinstance(ref, str) else same_bits(ref, nat)


# ----------------------------------------------------------------------
# the team: a walk shares its passes with the thread executor's idle workers

#: fields of at least native._TEAM_MIN nodes: batches before the first coarsening
#: axis, one axis, axes that stop coarsening, tail nodes, a short inner axis
TEAM_SHAPES = [(257, 129), (2, 2, 9000), (40000,), (3, 200, 60), (200, 3, 60), (1025, 33),
               (33, 1025), (9, 9, 9, 65)]


@pytest.fixture
def teams_of_three(monkeypatch):
    """A walk on this thread recruits two helpers whatever the host's core
    count: more members than the thread executor has workers here."""
    monkeypatch.setattr(native, "available_workers", lambda: 3)


@pytest.fixture
def native_everywhere(monkeypatch):
    """The C route process-wide: the lone walks run on pool workers, where
    ``native.forced`` does not reach."""
    monkeypatch.setattr(native, "_override", "native")


def _lone(fn, *args):
    """``fn(*args)`` on a worker of the thread executor, whose walks run alone."""
    return get_executor("thread").map(lambda a: fn(*a), [args])[0]


@pytest.mark.parametrize("shape", FIXED_SHAPES + TEAM_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_shared_and_lone_walks_agree(shape, dtype, teams_of_three, native_everywhere):
    """A walk on a team gives the bits of the same walk run alone on a pool
    worker, in both directions, on every layout."""
    hier = hierarchy_for(shape)
    for layout in LAYOUTS:
        x = laid_out(np.random.default_rng(len(shape)).standard_normal(shape), dtype, layout)
        y = decompose(x, hier)
        assert same_bits(y, _lone(decompose, x, hier))
        assert same_bits(recompose(y, hier), _lone(recompose, y, hier))


def test_a_walk_whose_helpers_never_start_completes_alone(teams_of_three, native_everywhere):
    """With every worker of the pool busy, the helpers a walk submits wait in
    the queue: the caller runs every item itself, cancels them and returns."""
    shape = (129, 65, 65)
    x = np.random.default_rng(3).standard_normal(shape)
    hier = hierarchy_for(shape)
    want = _lone(decompose, x, hier)
    pool, gate, started = get_executor("thread"), threading.Event(), threading.Semaphore(0)
    blockers = [pool.submit(lambda: started.release() or gate.wait(60)) for _ in range(pool.max_workers)]
    try:
        for _ in blockers:
            assert started.acquire(timeout=30)
        got = []
        walker = threading.Thread(target=lambda: got.append(decompose(x, hier)))
        walker.start()
        walker.join(60)
        assert not walker.is_alive(), "a walk waited for helpers that never started"
    finally:
        gate.set()
    assert all(b.result(timeout=30) for b in blockers)
    assert same_bits(got[0], want)


def _helpers_submitted(x):
    """In a process pool's worker: ``decompose(x)`` and how many jobs that
    walk submitted to a thread executor, with two members a walk asked for."""
    workers, submit = native.available_workers, ThreadExecutor.submit
    calls = []
    native.available_workers = lambda: 2
    ThreadExecutor.submit = lambda self, *a: calls.append(a) or submit(self, *a)
    try:
        with native.forced("native"):
            return decompose(x, hierarchy_for(x.shape)), len(calls)
    finally:
        native.available_workers, ThreadExecutor.submit = workers, submit


def test_walks_on_pool_workers_run_alone(monkeypatch, native_everywhere):
    """A walk submits its helpers only from a thread no pool runs: the shards
    of a fan-out, the thread and the process executor's jobs, keep one walk
    per worker and never wait on their own pool."""
    x = np.random.default_rng(4).standard_normal((40, 33, 33))
    hier = hierarchy_for(x.shape)
    calls = []
    monkeypatch.setattr(native, "available_workers", lambda: 2)
    monkeypatch.setattr(ThreadExecutor, "submit", lambda self, *a, _submit=ThreadExecutor.submit:
                        calls.append(a) or _submit(self, *a))
    here = decompose(x, hier)
    assert len(calls) == 1
    for y in get_executor("thread:2").map(lambda a: decompose(a, hier), [x, x]):
        assert same_bits(y, here)
    assert len(calls) == 1  # ThreadExecutor.map does not go through submit
    for y, submitted in get_executor("process:2").map(_helpers_submitted, [x, x]):
        assert submitted == 0
        assert same_bits(y, here)


def test_more_outer_dimensions_than_the_library_iterates_take_numpy():
    shape = (1,) * 17 + (3, 5)
    check_case(shape, "f8", "C", False, 0)
    x = np.random.default_rng(0).standard_normal(shape)
    _refused_every_walk(check_walks(x, x, hierarchy_for(shape)))


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
# the coefficient class walks: split, assembly, and the fused quantizer


def _walk_outcomes(x, hier, tol, classes=None, bins=None, lay=np.copy):
    """The five entry points on one refactored array ``x``: its classes, the
    array assembled from all of them, from a prefix and from every other one,
    the fused quantizer's bins, their de-quantized array, and that added into
    ``lay`` of the first assembled array (a running sum).  ``classes`` /
    ``bins`` / ``lay`` stand in for the extracted classes / the bins / the
    sum as the scatters' inputs (other layouts of the same values)."""
    q = Quantizer(tol)
    got = extract_classes(x, hier)
    classes = got if classes is None else classes
    bins_got, sizes, steps = q.quantize_refactored(x, hier)
    bins = bins_got if bins is None else bins
    assembled = assemble_from_classes(classes, hier)
    return [*got, assembled,
            assemble_from_classes(classes[: max(len(classes) - 2, 1)], hier),
            assemble_from_classes([None if l % 2 else c for l, c in enumerate(classes)], hier),
            bins_got, np.array(sizes), np.array(steps),
            Quantizer.dequantize_refactored(bins, sizes, steps, hier),
            Quantizer.dequantize_refactored(bins, sizes, steps, hier, add_to=lay(assembled))]


def check_walks(x, x_ref, hier, tol=1e-3, classes=None, bins=None, lay=np.copy) -> list[tuple[str, bool]]:
    """``x`` under ``native`` gives the bits ``x_ref`` gives under ``reference``;
    returns every ``native.class_walk`` call under ``native``: its kind and its
    answer (False: the NumPy body ran)."""
    with native.forced("reference"):
        want = _walk_outcomes(x_ref, hier, tol)
    taken, walk = [], native.class_walk
    with native.forced("native"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "class_walk",
                   lambda kind, *a: taken.append((kind, walk(kind, *a))) or taken[-1][1])
        got = _walk_outcomes(x, hier, tol, classes, bins, lay)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    return taken


def _refused_every_walk(taken):
    """Every entry point refused its input; the walks after each de-quantizer
    are its NumPy body assembling its own freshly de-quantized classes."""
    assert [kind for kind, _ in taken[-4:]] == ["dequantize", "scatter", "dequantize_add", "scatter"]
    assert not any(ok for _, ok in taken[:-4] + taken[-4::2])


@st.composite
def walk_cases(draw):
    ndim = draw(st.integers(1, 4))
    cap = {1: 70, 2: 34, 3: 13, 4: 7}[ndim]
    shape = tuple(draw(st.integers(1, cap)) for _ in range(ndim))
    return (shape, draw(st.sampled_from(["f8", "f4"])), draw(st.sampled_from([1e-1, 1e-4, 1e-9])),
            draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=80, deadline=None)
@given(walk_cases())
@example(((30, 17, 66), "f8", 1e-4, 0))
@example(((30, 17, 66), "f4", 1e-1, 1))
@example(((2, 3, 9), "f8", 1e-9, 2))
@example(((2, 3, 9), "f4", 1e-4, 3))
@example(((1,), "f8", 1e-4, 4))
@example(((2, 1, 2, 2), "f4", 1e-4, 5))
@example(((65, 65), "f8", 1e-4, 6))
def test_class_walks_agree_with_the_numpy_bodies(case):
    """Every walk is taken for a C-contiguous float32/float64 array and gives
    the reference's arrays and dtypes: full classes, prefixes, ``None`` classes."""
    shape, dtype, tol, seed = case
    hier = hierarchy_for(shape)
    x = decompose(np.random.default_rng(seed).standard_normal(shape).astype(dtype), hier)
    taken = check_walks(x, x, hier, tol)
    assert len(taken) == 7 and all(ok for _, ok in taken)


def _unaligned(a: np.ndarray) -> np.ndarray:
    buf = np.zeros(a.nbytes + 1, dtype=np.uint8)[1:]
    out = buf.view(a.dtype).reshape(a.shape)
    out[...] = a
    assert not out.flags.aligned
    return out


@pytest.mark.parametrize("layout", ["F", "strided", "unaligned"])
@pytest.mark.parametrize("dtype", ["f8", "f4"])
def test_class_walks_on_other_layouts_take_numpy(layout, dtype):
    """A non-contiguous or unaligned refactored array, class, bin array or
    running sum is refused by every walk and gives the NumPy bodies' bits."""
    shape = (17, 6, 9)
    hier = hierarchy_for(shape)
    x = decompose(np.random.default_rng(1).standard_normal(shape).astype(dtype), hier)
    with native.forced("reference"):
        classes = extract_classes(x, hier)
        bins = Quantizer(1e-3).quantize_refactored(x, hier)[0]
    if layout == "unaligned":
        moved, lay = _unaligned(x), _unaligned
        classes, bins = [_unaligned(c) for c in classes], _unaligned(bins)
    else:
        moved = laid_out(x, dtype, layout)
        lay = functools.partial(laid_out, dtype="f8", layout=layout)
        classes = [np.repeat(c, 2)[::2] for c in classes]
        bins = np.repeat(bins, 2)[::2]
    taken = check_walks(moved, x, hier, classes=classes, bins=bins, lay=lay)
    _refused_every_walk(taken)


def test_a_read_only_running_sum_is_refused_alike_and_left_as_it_was():
    shape = (17, 6, 9)
    hier = hierarchy_for(shape)
    x = decompose(np.random.default_rng(2).standard_normal(shape), hier)
    q = Quantizer(1e-3)
    bins, sizes, steps = q.quantize_refactored(x, hier)
    for backend in ("reference", "native"):
        total = laid_out(x, "f8", "readonly")
        with native.forced(backend), pytest.raises(ValueError, match="read-only"):
            Quantizer.dequantize_refactored(bins, sizes, steps, hier, add_to=total)
        assert same_bits(total, x)


# ----------------------------------------------------------------------
# the entropy stage: code lengths, payload bytes, headers, decoded symbols

SYNC = P._SYNC_BLOCK
_FIB = [1, 1]
while len(_FIB) < 40:
    _FIB.append(_FIB[-1] + _FIB[-2])


def _huffman_outcome(vals, max_table, book_counts):
    """Everything one backend makes of a segment."""
    code = None
    if book_counts is not None:  # a supplied book: codes up to 39 bits, and an escape
        code = B.HuffmanCode.from_counts(np.arange(len(book_counts)) * 3, book_counts, 1)
    payload, header = H.huffman_encode(vals, max_table, code=code)
    return payload, header, H.huffman_decode(payload, header)


@st.composite
def segments(draw):
    kind = draw(st.sampled_from(["one", "few", "long-codes", "wide"]))
    n = draw(st.sampled_from([0, 1, SYNC - 1, SYNC, SYNC + 1, 3 * SYNC + 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    max_table, book_counts = draw(st.sampled_from([2, 16, 4096])), None
    if kind == "one":
        vals = np.full(n, draw(st.integers(-(2**63), 2**63 - 1)), dtype=np.int64)
    elif kind == "few":
        vals = rng.integers(-20, 20, n)
    elif kind == "long-codes":  # uniform draws over a Fibonacci book and one alien, which escapes
        book_counts = _FIB[: draw(st.sampled_from([18, 40]))]
        vals = rng.integers(0, len(book_counts) + 1, n) * 3
    else:  # more distinct symbols than the largest table: truncation + ESCAPE
        n, max_table = 9 * SYNC + 7, 4096
        vals = rng.integers(-(2**62), 2**62, n)
        assert np.unique(vals).size > max_table
    return vals.astype(np.int64), max_table, book_counts


# wide segments (eight sync blocks and a partial one) with long codes and
# escapes, pinned beside the drawn ones
_WIDE = np.random.default_rng(5).integers(0, 41, 8 * SYNC + 40) * 3
_WIDE_BUILT = np.round(np.random.default_rng(6).standard_normal(8 * SYNC + 40) * 300)
_WIDE_BUILT[::461] = np.random.default_rng(7).integers(-(2**62), 2**62, _WIDE_BUILT[::461].size)


@settings(max_examples=60, deadline=None)
@given(segments())
@example((_WIDE.astype(np.int64), 256, _FIB))
@example((_WIDE_BUILT.astype(np.int64), 256, None))
def test_huffman_backends_agree_with_each_other_and_the_oracle(segment):
    vals, max_table, book_counts = segment
    got = {}
    try:
        for backend in ("reference", "native"):
            native.set_kernel_backend(backend)
            payload, header, out = _huffman_outcome(vals, max_table, book_counts)
            got[backend] = (payload, header)
            assert out.dtype == np.int64 and np.array_equal(out, vals)
    finally:
        native.set_kernel_backend(None)
    assert got["native"] == got["reference"]
    if book_counts is None:
        assert (payload, header) == O.huffman_encode_scalar(vals, max_table)
    else:
        freqs = dict(zip((np.arange(len(book_counts)) * 3).tolist(), book_counts), ESC=1)
        if vals.size:
            lengths, sync, bitstream = O.split_segment(payload, header)
            assert lengths == O.lengths_of(freqs)
            assert (bitstream, header["bits"], sync) == O.encode_with_book(vals, lengths)
        else:
            assert (payload, header) == (b"", {"n": 0, "bits": 0, "book": 0})


@pytest.mark.parametrize("book", [False, True], ids=["built", "long-codes"])
def test_huffman_backends_agree_under_an_engaged_executor(book, rng):
    """Wide segments as concurrent jobs on two threads: every kernel
    backend emits the serial reference bytes and decodes them exactly."""
    n = 3 * SYNC + 40
    if book:
        segs = [(rng.integers(0, 41, n + k) * 3).astype(np.int64) for k in range(3)]
    else:
        segs = [np.round(rng.standard_normal(n + k) * 300).astype(np.int64) for k in range(3)]
        for vals in segs:
            vals[:: n // 9] = rng.integers(-(2**62), 2**62, vals[:: n // 9].size)
    got = {}
    try:
        for backend in ("reference", "native"):
            native.set_kernel_backend(backend)
            for spec in ("serial", "thread:2"):
                got[backend, spec] = get_executor(spec).map(
                    lambda v: _huffman_outcome(v, 256, _FIB if book else None), segs
                )
    finally:
        native.set_kernel_backend(None)
    want = got["reference", "serial"]
    for outcomes in got.values():
        for (payload, header, decoded), w, vals in zip(outcomes, want, segs):
            assert (payload, header) == w[:2] and np.array_equal(decoded, vals)


def _per_backend(fn):
    """``fn()`` under each kernel backend, process-wide (as an executor's
    workers would see it)."""
    got = {}
    try:
        for backend in ("reference", "native"):
            native.set_kernel_backend(backend)
            got[backend] = fn()
    finally:
        native.set_kernel_backend(None)
    return got


def _complete_book(longest: int) -> B.HuffmanCode:
    """A foreign book: symbols 0, 3, 6, ... coded in 1, 2, 3, ... bits up to
    ``longest``, which the last symbol and ESCAPE share (an escaped value
    costs ``longest + 64`` bits)."""
    return B.HuffmanCode(np.arange(longest) * 3, [min(k + 1, longest) for k in range(longest)],
                         longest)


@pytest.mark.parametrize("n", [0, 1, SYNC - 1, SYNC, SYNC + 1])
@pytest.mark.parametrize("longest", [39, 64])
def test_encode_entry_with_foreign_books_and_int64_extremes(longest, n, rng):
    """Values at both int64 extremes, below and above the book's span, beside
    its longest codes: the same payload and header under both backends,
    the oracle's bytes, the values back.  Under ``native`` long segments map
    through the book's dense table, short ones by the binary search."""
    symbols = _complete_book(longest).symbols
    pool = np.append(symbols, [-(2**63), 2**63 - 1, symbols[0] - 1, symbols[-1] + 1])
    vals = rng.choice(pool, n).astype(np.int64)
    vals[: min(n, 4)] = pool[-4:][: min(n, 4)]

    def encode():
        code = _complete_book(longest)  # fresh: this segment decides its dense table
        return (*H.huffman_encode(vals, code=code), code._lut is not None)

    got = _per_backend(encode)
    assert got["native"][:2] == got["reference"][:2]
    payload, header, dense = got["native"]
    assert not got["reference"][2]  # only the C mapping reads the dense table
    assert dense == (int(symbols[-1]) - int(symbols[0]) < B._DENSE_SPAN_FACTOR * n)
    if n:
        lengths, sync, bitstream = O.split_segment(payload, header)
        assert max(lengths.values()) == longest
        assert (bitstream, header["bits"], sync) == O.encode_with_book(vals, lengths)
    np.testing.assert_array_equal(H.huffman_decode(payload, header), vals)


def test_escapeless_book_refuses_an_alien_alike_and_packs_nothing(rng, monkeypatch):
    vals = rng.choice([0, 5, 4000], 3 * SYNC).astype(np.int64)
    vals[SYNC + 7] = -(2**63)
    monkeypatch.setattr(H, "_pack_slots", lambda *a: pytest.fail("packed"))

    def refused():
        with pytest.raises(ValueError, match="escape") as err:
            H.huffman_encode(vals, code=B.HuffmanCode.from_counts([0, 5, 4000], [5, 3, 1]))
        return str(err.value)

    got = _per_backend(refused)
    assert got["native"] == got["reference"]


# ----------------------------------------------------------------------
# code-book chains: encode_classes with a scratch, step after step


def _class_bins(kind: str, rng) -> np.ndarray:
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "one":  # one value, or one symbol
        return np.full(int(rng.choice([1, 5])), rng.integers(-(2**63), 2**63 - 1))
    if kind == "narrow":  # < 64 symbols: an escape-less book; a dense span
        return rng.integers(-4, 5, 700)
    if kind == "mid":  # >= 64 symbols: an escape reserved; a dense span; two sync blocks
        return np.round(rng.standard_normal(SYNC + 300) * 40)
    if kind == "wide":  # a span past _DENSE_SPAN_FACTOR * n: np.unique, the binary search
        return rng.choice(rng.integers(-(10**9), 10**9, 30), 900)
    return rng.choice([-(2**63), 2**63 - 1, 0, 1], 50)  # int64 extremes


def _chain_steps(seed: int, kinds: list[str], moves: list[str]):
    """``(bins, sizes, refresh)`` per step.  ``key`` draws afresh and re-bases;
    ``same`` repeats the last step (exact reuse); ``drift`` moves a tenth of
    the values by one (a reuse within the guard, or a rebuild); ``jump``
    shifts every class to a new alphabet (a rebuild); ``alien`` plants one
    value no book has (an escape, or a rebuild of an escape-less book)."""
    rng = np.random.default_rng(seed)
    segs = [_class_bins(k, rng).astype(np.int64) for k in kinds]
    steps = []
    for t, move in enumerate(moves):
        segs = [s.copy() for s in segs]
        if move == "key" and t:
            segs = [_class_bins(k, rng).astype(np.int64) for k in kinds]
        for s in segs:
            if s.size and move == "drift":
                at = rng.integers(0, s.size, max(s.size // 10, 1))
                s[at] += rng.choice([-1, 1], at.size)
            elif s.size and move == "jump":
                s += 10**6
            elif s.size and move == "alien":
                s[rng.integers(s.size)] = 2**62 + 12345
        steps.append((np.concatenate(segs), [s.size for s in segs], move == "key" or t == 0))
    return steps


def _check_chain(steps) -> set[str]:
    """Run one chain under both backends: identical segments, headers, cached
    decode books and decodes; every shipped book is the oracle's book of its
    segment, every reference names the book its class shipped last in the
    step's context.  A step is ``(bins, sizes, refresh[, context])``.
    Returns the header forms seen."""
    def run():
        enc, dec, out = {}, {}, []
        for bins, sizes, refresh, *context in steps:
            payload, header = encode_classes(bins, sizes, backend="huffman", scratch=enc,
                                             refresh=refresh, context=(context or ["default"])[0])
            flat, _ = decode_classes(payload, header, scratch=dec)
            np.testing.assert_array_equal(flat, bins)
            out.append((payload, json.dumps(header)))
        return out, sorted((k, t.code.book) for k, t in dec.get("decode_tables", {}).items())

    got = _per_backend(run)
    assert got["native"] == got["reference"]
    seen, book = set(), {}
    for (bins, sizes, refresh, *context), (payload, header) in zip(steps, got["native"][0]):
        for i, sh in enumerate(json.loads(header)["segments"]):
            seg = bins[sum(sizes[:i]):][: sizes[i]]
            chain = (*context, i)
            if not sh["n"]:
                seen.add("empty")
                continue
            if sh["book"]:
                assert "table_ref" not in sh
                lengths = O.lengths_from_book(payload[sh["offset"] :][: sh["book"]])
                assert lengths == O.book_lengths(seg, 4096, "auto")
                seen.add("full" if refresh or chain not in book else "rebuilt")
                book[chain] = sh["table_id"], lengths
            else:
                assert sh["table_ref"] == book[chain][0] and "table_id" not in sh
                seen.add("ref")
            if not set(book[chain][1]).issuperset(seg.tolist()):
                seen.add("escape")
    return seen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["empty", "one", "narrow", "mid", "wide", "extreme"]),
                min_size=1, max_size=5),
       st.lists(st.sampled_from(["key", "same", "drift", "jump", "alien"]), min_size=2, max_size=6))
def test_code_book_chains_agree_across_backends(seed, kinds, moves):
    _check_chain(_chain_steps(seed, kinds, moves))


def test_a_chain_reaches_every_header_form():
    kinds = ["empty", "one", "narrow", "mid", "wide", "extreme"]
    seen = _check_chain(_chain_steps(3, kinds, ["key", "same", "drift", "alien", "jump", "key"]))
    assert seen == {"empty", "full", "ref", "rebuilt", "escape"}


# ----------------------------------------------------------------------
# the one-call segment encode (native.huff_segment) against the NumPy bodies


def _skewed(n_syms: int, n: int, rng) -> np.ndarray:
    """``n`` values over exactly ``n_syms`` symbols spaced by 7, the first ones
    the most frequent (weights 1/k), shuffled."""
    syms = np.arange(n_syms) * 7 - 200
    p = 1.0 / np.arange(1, n_syms + 1)
    drawn = rng.choice(syms, n - n_syms, p=p / p.sum())
    return rng.permutation(np.concatenate((syms, drawn))).astype(np.int64)


def _segment_shapes(rng) -> dict:
    """One class per segment shape the entry must code as the NumPy bodies do."""
    # 3 000 values seen three times and 3 000 seen twice: a 4 095 cut inside
    # the count-2 ties, which go to the smaller values
    ties = np.repeat(np.arange(6000) * 3 - 9000, np.where(np.arange(6000) % 2, 2, 3))
    return {
        "empty": np.empty(0, dtype=np.int64),
        "one": np.full(900, -(2**62) - 3, dtype=np.int64),
        "63": _skewed(63, 1500, rng),  # one symbol short of the reserved escape
        "64": _skewed(64, 1500, rng),  # an escape reserved, never used
        "cut": rng.permutation(ties),
        "sparse": rng.choice(rng.integers(-(2**40), 2**40, 40), 700),  # span > 4 n: sorted
        "extremes": rng.choice([-(2**63), 2**63 - 1, -(2**62), 2**62, 0, -1], 1100),
    }


@pytest.mark.parametrize("max_table", [2, 16, 4096])
def test_segment_entry_codes_every_shape_as_the_numpy_bodies(max_table, rng):
    """``huffman_encode`` (a book built from the segment) under both backends
    and the scalar oracle: the same segment bytes and header."""
    for name, vals in _segment_shapes(rng).items():
        got = _per_backend(lambda: H.huffman_encode(vals, max_table))
        assert got["native"] == got["reference"] == O.huffman_encode_scalar(vals, max_table), name


def test_segment_entry_cuts_ties_toward_the_smaller_values(rng):
    vals = _segment_shapes(rng)["cut"]
    code = _per_backend(lambda: H._encode(vals, max_table=4096, reserve_escape="auto")[0])
    assert np.array_equal(code["native"].symbols, code["reference"].symbols)
    # every count-3 value (even k) and the 1 095 smallest count-2 ones (odd k < 2 190)
    k = np.arange(6000)
    want = 3 * k[(k % 2 == 0) | (k < 2 * 1095)] - 9000
    assert np.array_equal(code["native"].symbols, want) and want.size == 4095
    for field in ("_slot_lens", "_slot_codes"):
        assert np.array_equal(getattr(code["native"], field), getattr(code["reference"], field))
    assert code["native"].book == code["reference"].book


def _guard_cases(rng):
    """``(values, book, guard)`` of each way a cached book meets a segment."""
    base = _skewed(70, 3000, rng)  # >= 64 symbols: its book reserves an escape
    small = _skewed(20, 3000, rng)  # < 64: no escape
    book, bare = (B.build_code(v, 4096, "auto") for v in (base, small))
    bps = lambda v, b: H._encode(v, b)[2] / v.size  # noqa: E731
    inverted = (base.max() + base.min() - base).astype(np.int64)  # the rare symbols now frequent
    alien = small.copy()
    alien[17] = 10**9
    escaped = base.copy()
    escaped[5] = 2**62
    return {
        "exact reuse": (base, book, bps(base, book)),
        "bits trip": (inverted, book, bps(base, book)),
        "within the guard": (inverted, book, 1.15 * bps(inverted, book)),
        "escape within the guard": (escaped, book, 2 * bps(base, book)),
        "new symbol, no escape": (alien, bare, 99.0),
    }


@pytest.mark.parametrize("case", ["exact reuse", "bits trip", "within the guard",
                                  "escape within the guard", "new symbol, no escape"])
def test_segment_entry_decides_the_reuse_guard_as_the_numpy_bodies(case, rng):
    """The guard read off the value histogram trips exactly where the slot
    histogram's does; a trip rebuilds the book (the chain's call) or, with
    nothing to rebuild, returns the tripped sentinel."""
    vals, book, max_bps = _guard_cases(rng)[case]
    guard = {"max_bits_per_symbol": max_bps}

    def run():
        chained = H._encode(vals, book, guard, 4096, "auto")
        return (chained[0] is book, chained[1:3], chained[3].tolist(), chained[0].book,
                H._encode(vals, book, guard)[1:3])

    got = _per_backend(run)
    assert got["native"] == got["reference"]
    reused, _, _, _, alone = got["native"]
    assert reused == (case in ("exact reuse", "within the guard", "escape within the guard"))
    assert (alone == (None, None)) == (not reused)


def test_segment_chain_in_key_and_delta_contexts(rng):
    """Key and delta chains side by side on every segment shape: exact reuse,
    bit trips, a symbol no escape-less book has — the same bytes, ids and
    books under both backends, every shipped book the oracle's."""
    shapes = list(_segment_shapes(rng).values())
    skew = [_skewed(70, 2000, rng), _skewed(20, 2000, rng)]
    key = shapes + skew
    delta = [np.round(s / 3).astype(np.int64) for s in shapes] + skew
    drift = [s.max() + s.min() - s if s.size else s for s in delta]  # inverted frequencies
    alien = [s.copy() for s in delta]
    for s in alien:
        if s.size:
            s[s.size // 2] = 2**61 + 7
    sizes = [s.size for s in key]
    steps = [(np.concatenate(key), sizes, True, "key"),
             (np.concatenate(delta), sizes, True, "delta"),
             (np.concatenate(delta), sizes, False, "delta"),
             (np.concatenate(drift), sizes, False, "delta"),
             (np.concatenate(key), sizes, False, "key"),
             (np.concatenate(alien), sizes, False, "delta")]
    seen = _check_chain(steps)
    assert seen == {"empty", "full", "ref", "rebuilt", "escape"}


def test_one_native_call_per_huffman_segment(rng, monkeypatch):
    """Under ``native`` every non-empty segment of a chained step — reused,
    rebuilt or keyed — is one ``huff_segment`` call, and none of the NumPy
    bodies (the mapping probe, the pack, the book build) runs."""
    calls = []
    entry = native.huff_segment

    def spy(values, *args):
        calls.append(values.size)
        return entry(values, *args)

    monkeypatch.setattr(native, "huff_segment", spy)
    for body in ("_map_slots", "_pack_slots", "_build_code"):
        monkeypatch.setattr(H, body, lambda *a, body=body: pytest.fail(f"{body} ran"))
    shapes = [s for s in _segment_shapes(rng).values() if s.size]
    scratch = {}
    with native.forced("native"):
        inverted = [s.max() - s + s.min() if int(s.max()) - int(s.min()) < 2**62 else s
                    for s in shapes]
        for refresh, segs in [(True, shapes), (False, shapes), (False, inverted)]:
            calls.clear()
            encode_classes(np.concatenate(segs), [s.size for s in segs], backend="huffman",
                           scratch=scratch, refresh=refresh, context="delta")
            assert calls == [s.size for s in segs]


_MUTATE = '''
import sys
import numpy as np
import repro.compress.huffman as H
from repro.compress.huffman_book import HuffmanCode
from repro.core import native

native.set_kernel_backend("native")
assert native.available()
rng = np.random.default_rng(int(sys.argv[1]))
book = HuffmanCode.from_counts(np.arange(30), [2 ** (k // 2) for k in range(30)], 1)
cases = [
    (rng.integers(-5, 5, 3 * 512 + 40), None),                   # a few sync blocks
    (np.round(rng.standard_normal(20000) * 40), None),           # many sync blocks
    (rng.integers(-2, 31, 2 * 512 + 3), book),                   # long codes and escapes
    (rng.integers(-2 ** 40, 2 ** 40, 700), "truncate"),          # table cut to 16 + ESCAPE
]
raised = decoded = 0
for vals, book in cases:
    vals = vals.astype(np.int64)
    if book == "truncate":
        payload, header = H.huffman_encode(vals, 16)
    else:
        payload, header = H.huffman_encode(vals, code=book)
    assert np.array_equal(H.huffman_decode(payload, header), vals)
    bits, n, size = header["bits"], header["n"], header["book"]
    n_sync = -(-n // 512) - 1
    regions = [(0, size), (size, size + 8 * n_sync), (0, len(payload))]  # book, sync, all
    for _ in range(int(sys.argv[2])):
        data, h = bytearray(payload), dict(header)
        lo, hi = regions[rng.integers(3)]
        kind = rng.integers(8)
        if kind == 0:
            for at in rng.integers(8 * lo, 8 * hi, rng.integers(1, 4)):
                data[at >> 3] ^= 1 << (at & 7)
        elif kind == 1:
            data = data[: rng.integers(lo, hi)]
        elif kind == 2:
            at = rng.integers(lo, hi)
            data = data[:at] + data[at + rng.integers(1, 9):]
        elif kind == 3:
            offsets = np.frombuffer(payload, "<u8", n_sync, size).astype(np.int64)
            wild = rng.choice([0, bits, bits + 1, 2 ** 62, -1, -2 ** 62], n_sync)
            moved = np.where(rng.integers(2, size=n_sync), offsets + rng.integers(-70, 70, n_sync), wild)
            data[size : size + 8 * n_sync] = moved.astype("<i8").tobytes()
        elif kind == 4:
            h["book"] = int(size + rng.choice([-9, -1, 1, 8, 2 ** 40, -size]))
        elif kind == 5:
            h["bits"] = int(bits + rng.choice([-65, -64, -9, -1, 1, 7, 8, 63, 64, 2 ** 40, -bits, -bits - 1]))
        elif kind == 6:
            h["n"] = int(n + rng.choice([-513, -512, -1, 1, 511, 512, 2 ** 40, -n - 1]))
        else:
            h["bits"], data = bits + 64, data + bytes(8)
        try:
            out = H.huffman_decode(bytes(data), h)
        except ValueError:
            raised += 1
        else:
            assert out.dtype == np.int64 and out.shape == (h["n"],), (kind, out.shape, h["n"])
            decoded += 1
print("ok", raised, decoded)
'''


def test_mutated_segments_end_in_valueerror_or_an_array_never_a_signal(tmp_path):
    """Bit flips, truncations and cut-out runs inside the book, inside the
    sync offsets and anywhere; shifted / wild sync words; off ``book``,
    ``bits`` and ``n`` — under ``native``, in a process of their own: a wild
    read in the C walk would end it with a signal, not an exception."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _MUTATE, "17", "150"], env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, (out.returncode, out.stderr[-2000:])
    status, raised, decoded = out.stdout.split()
    assert status == "ok" and int(raised) > 300 and int(raised) + int(decoded) == 600


# ----------------------------------------------------------------------
# whole stream directories: backend x executor

_WRITE_STREAMS = '''
import hashlib, sys
from pathlib import Path
import numpy as np
from repro.io.stream import StepStreamReader, StepStreamWriter
from repro.parallel import get_executor

def main(root):
    shape = (48, 40, 40)  # finest class 65 775 symbols: a wide Huffman segment,
    # and at tol 1e-8 (int64 bins) a zlib segment of three sub-blocks
    rng = np.random.default_rng(21)
    base = np.cumsum(rng.standard_normal(shape), axis=0)
    frames = [base + 0.05 * t * np.sin(np.arange(shape[2]) + t) for t in range(4)]
    # the end-to-end stream_huffman workload's shape: float32 steps under noise at
    # a tolerance far below it, so most symbols miss the 4096-entry table and escape
    noisy = [(f + 1e-3 * rng.standard_normal(shape)).astype(np.float32) for f in frames]
    kinds = {"refactored": {}, "zlib": {"tol": 1e-3, "backend": "zlib"},
             "zlib-fine": {"tol": 1e-8, "backend": "zlib"},
             "huffman": {"tol": 1e-4, "backend": "huffman"},
             "huffman-noisy": {"tol": 1e-5, "backend": "huffman", "key_interval": 8},
             "sharded": {"tol": 1e-3, "backend": "zlib", "shards": 4}}
    for spec in ("serial", "thread:2", "process:2"):
        executor = get_executor(spec)
        for kind, options in kinds.items():
            out = Path(root) / f"{kind}-{spec.replace(':', '')}"
            writer = StepStreamWriter(out, shape, executor=executor,
                                      **{"key_interval": 2, **options})
            for t, frame in enumerate(noisy if kind == "huffman-noisy" else frames):
                writer.append(frame, time=float(t))
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\\0" + path.read_bytes())
            if kind in ("huffman-noisy", "zlib-fine"):  # and what the decode makes of them
                reader = StepStreamReader(out)
                for t in range(len(frames)):
                    digest.update(np.ascontiguousarray(reader.read_step(t)).tobytes())
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
    kinds = {kind for _, kind, _ in digests}
    assert len(digests) == 2 * 6 * 3 and len(kinds) == 6
    for kind in kinds:
        assert len({d for (_, k, _), d in digests.items() if k == kind}) == 1, kind
