"""Kernel-launch record builders and the Algorithm-3 launch walk.

Exactly one place in the codebase decides how many bytes, elements,
threads, and launches each operation of the refactoring pipeline costs:
the builder functions below, composed by :func:`iter_decompose_launches`
into one pass of Algorithm 3 over shapes only — no data — so that
paper-scale configurations (4 TB datasets, 4096 GPUs) can be modeled
instantly.  :func:`repro.gpu.analytic.model_pass` turns the records into
modeled seconds.

Design-option knobs (the paper's optimizations) live in
:class:`EngineOptions`; flipping them off yields the ablation baselines
(naive vector-wise kernels, no node packing, divergent thread
assignment, single stream).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..core.grid import TensorHierarchy
from ..gpu.cost import KernelLaunch

__all__ = [
    "EngineOptions",
    "CPU_BASELINE_OPTIONS",
    "CATEGORY",
    "category_of",
    "coefficients_launch",
    "mass_launch",
    "transfer_launch",
    "solve_launch",
    "pack_launch",
    "copy_launch",
    "correction_update_launch",
    "iter_decompose_launches",
]


@dataclass(frozen=True)
class EngineOptions:
    """Design-space options of the paper's GPU implementation.

    Attributes
    ----------
    framework:
        ``"lpf"`` — the paper's linear-processing framework (batched
        vectors, region pipeline, packed access);
        ``"naive"`` — vector-wise parallelism on unpacked data (the
        Fig. 7 baseline, after [14]);
        ``"elementwise"`` — element-parallel out-of-place processing
        (maximum parallelism, 100 % extra footprint; §III-A.2).
    pack_nodes:
        Pack each level's nodes contiguously into the working buffer
        (§III-C optimization 1).  Off ⇒ every kernel pays the level
        stride ``2^(L-l)``.
    divergence_free:
        Use Algorithm 1's warp re-assignment for interpolation types.
        Off ⇒ grid kernels pay a warp-divergence factor.
    n_streams:
        CUDA streams used to overlap per-slice 2D launches on 3D data
        (§III-D optimization 3, Fig. 8).
    occupancy_cap_3d:
        Occupancy bound of the resource-heavy 3D coefficient blocks
        (the paper's explanation for lower 3D speedups, §IV-A).
    lpf_threads_per_vector:
        Thread-block rows cooperating on each vector batch in the
        linear-processing framework (Fig. 6 shows 4×4 blocks).
    """

    framework: str = "lpf"
    pack_nodes: bool = True
    divergence_free: bool = True
    n_streams: int = 1
    occupancy_cap_3d: float = 0.22
    lpf_threads_per_vector: int = 16

    def __post_init__(self):
        if self.framework not in ("lpf", "naive", "elementwise"):
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")


#: How the original CPU implementation behaves in the launch model:
#: vector-wise processing on unpacked (strided) data, one "stream".
CPU_BASELINE_OPTIONS = EngineOptions(framework="naive", pack_nodes=False)

#: Map from kernel-record names to the paper's Table IV row categories.
CATEGORY = {
    "compute_coefficients": "CC",
    "restore_from_coefficients": "CC",
    "mass": "MM",
    "transfer": "TM",
    "solve": "SC",
    "copy": "MC",
    "unpack_store": "MC",
    "pack": "PN",
    "correction_update": "PN",
}

#: Per-kernel calibration: GPU sustained-bandwidth scale and CPU
#: per-element cost scale (relative to ``CpuSpec.element_ns``).  These
#: land the modeled Table IV near the paper's measurements; see
#: EXPERIMENTS.md for the residuals.
_CAL = {
    "compute_coefficients": dict(sustained=0.62, cpu=0.95),
    "restore_from_coefficients": dict(sustained=0.62, cpu=0.95),
    "mass": dict(sustained=0.52, cpu=0.76),
    "transfer": dict(sustained=0.45, cpu=0.67),
    "solve": dict(sustained=0.52, cpu=0.56),
    "copy": dict(sustained=0.85, cpu=0.73),
    "unpack_store": dict(sustained=0.85, cpu=0.73),
    # Packing kernels gather/scatter across the level stride with
    # transposition-like access on both sides; they sustain far less of
    # peak than plain copies (calibrated to the paper's PN row).
    "pack": dict(sustained=0.30, cpu=0.65),
    "correction_update": dict(sustained=0.30, cpu=0.65),
}


def category_of(rec: KernelLaunch) -> str:
    """Table IV row (CC/MM/TM/SC/MC/PN) of a launch record."""
    return CATEGORY[rec.name]


def _prod(shape: tuple[int, ...]) -> int:
    out = 1
    for s in shape:
        out *= s
    return out


def _slice_layout(shape: tuple[int, ...], axis: int) -> tuple[int, int]:
    """(n_launches, vectors_per_launch) of a per-slice linear kernel.

    On 3D data the paper reuses its 2D linear kernels slice by slice
    (§III-D optimization 3): processing dimension ``axis`` batches
    vectors within a 2D plane containing ``axis`` and launches one
    kernel per slice along the remaining axis.  1D/2D data is a single
    launch.
    """
    others = [s for a, s in enumerate(shape) if a != axis]
    if len(others) <= 1:
        return 1, (others[0] if others else 1)
    # plane = axis x (largest other dim); slices along the remaining one
    others.sort()
    n_slices = _prod(tuple(others[:-1]))
    return n_slices, others[-1]


def coefficients_launch(
    shape: tuple[int, ...],
    *,
    opts: EngineOptions,
    level: int,
    stride: int,
    restore: bool = False,
) -> KernelLaunch:
    """Record for the grid-processing kernels (compute/restore coefficients)."""
    name = "restore_from_coefficients" if restore else "compute_coefficients"
    n = _prod(shape)
    ndim = len([s for s in shape if s > 1])
    cal = _CAL[name]
    return KernelLaunch(
        name=name,
        kind="grid",
        elements=n,
        # read the level's nodal values (plus ~25 % re-reads of shared
        # coarse neighbours that spill the tile cache), write the
        # full coefficient plane
        bytes_read=int(n * 8 * 1.25),
        bytes_written=n * 8,
        threads=n,
        stride=stride if not opts.pack_nodes else 1,
        divergence=1.0 if opts.divergence_free else 3.0,
        occupancy_cap=opts.occupancy_cap_3d if ndim >= 3 else 1.0,
        sustained_scale=cal["sustained"],
        cpu_scale=cal["cpu"],
        level=level,
    )


def _linear_common(
    name: str,
    shape: tuple[int, ...],
    axis: int,
    *,
    opts: EngineOptions,
    level: int,
    stride: int,
) -> dict:
    """Thread/launch geometry shared by the three linear-processing kernels."""
    n_launches, per_slice_vectors = _slice_layout(shape, axis)
    n_vectors = _prod(shape) // shape[axis]
    cal = _CAL[name]
    sustained = cal["sustained"]
    if opts.framework == "lpf":
        threads = n_vectors * opts.lpf_threads_per_vector
        eff_stride = stride if not opts.pack_nodes else 1
    elif opts.framework == "naive":
        # vector-wise parallelism on unpacked data: one thread per
        # vector walking its line ([14]-style).  Each thread issues a
        # *dependent* load chain along its vector (no intra-thread
        # latency hiding), which caps the achievable bandwidth well
        # below a pipelined design even at stride 1.
        threads = n_vectors
        eff_stride = stride
        n_launches = 1  # the naive design launches one monolithic kernel
        sustained *= 0.45
    else:  # elementwise
        threads = _prod(shape)
        eff_stride = stride if not opts.pack_nodes else 1
    return dict(
        threads=threads,
        stride=eff_stride,
        n_launches=n_launches,
        n_streams=opts.n_streams,
        sustained_scale=sustained,
        cpu_scale=cal["cpu"],
        level=level,
    )


def mass_launch(
    shape: tuple[int, ...], axis: int, *, opts: EngineOptions, level: int, stride: int
) -> KernelLaunch:
    """Record for the mass-matrix multiplication kernel along ``axis``."""
    n = _prod(shape)
    extra_write = 2.0 if opts.framework == "elementwise" else 1.0
    return KernelLaunch(
        name="mass",
        kind="linear",
        elements=n,
        bytes_read=n * 8,
        bytes_written=int(n * 8 * extra_write),
        **_linear_common("mass", shape, axis, opts=opts, level=level, stride=stride),
    )


def transfer_launch(
    shape: tuple[int, ...],
    axis: int,
    m_coarse: int,
    *,
    opts: EngineOptions,
    level: int,
    stride: int,
) -> KernelLaunch:
    """Record for the transfer-matrix (restriction) kernel along ``axis``."""
    n_in = _prod(shape)
    n_out = n_in // shape[axis] * m_coarse
    return KernelLaunch(
        name="transfer",
        kind="linear",
        elements=n_in,
        bytes_read=n_in * 8,
        bytes_written=n_out * 8,
        **_linear_common("transfer", shape, axis, opts=opts, level=level, stride=stride),
    )


def solve_launch(
    shape_coarse: tuple[int, ...],
    axis: int,
    *,
    opts: EngineOptions,
    level: int,
    stride: int,
) -> KernelLaunch:
    """Record for the tridiagonal correction-solver kernel along ``axis``.

    The forward/backward substitution makes two dependent sweeps over
    the vector; the ``chain_length`` field carries the sequential
    dependence that caps this kernel's parallel efficiency (the paper:
    "solving corrections is naturally less parallelizable").
    """
    n = _prod(shape_coarse)
    m = shape_coarse[axis]
    common = _linear_common("solve", shape_coarse, axis, opts=opts, level=level, stride=stride)
    if opts.framework == "elementwise":
        # element-parallel solve = parallel cyclic reduction: log(m)
        # dependent stages, ~2x the arithmetic/traffic, out-of-place
        # (the "100% extra memory footprint" design of paper §III-A.2)
        common["threads"] = n
        chain = 2 * max(1, m.bit_length())
        bytes_read = n * 8 * 3
        bytes_written = n * 8 * 2
        elements = 4 * n
    else:
        # one thread per vector: the substitution chain is serial
        common["threads"] = n // m
        chain = 2 * m
        bytes_read = int(n * 8 * 1.5)
        bytes_written = n * 8
        elements = 2 * n
    return KernelLaunch(
        name="solve",
        kind="solve",
        elements=elements,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        chain_length=chain,
        **common,
    )


def pack_launch(
    shape: tuple[int, ...],
    *,
    stride: int,
    level: int,
    reason: str = "pack",
    opts: EngineOptions | None = None,
) -> KernelLaunch:
    """Record for gathering/scattering a level into/out of packed storage."""
    n = _prod(shape)
    ndim = len([s for s in shape if s > 1])
    cap = opts.occupancy_cap_3d if (opts is not None and ndim >= 3) else 1.0
    return KernelLaunch(
        name="pack",
        kind="pack",
        elements=n,
        bytes_read=n * 8,
        bytes_written=n * 8,
        threads=n,
        stride=stride,
        occupancy_cap=cap,
        sustained_scale=_CAL["pack"]["sustained"],
        cpu_scale=_CAL["pack"]["cpu"],
        level=level,
        extra={"reason": reason},
    )


def copy_launch(
    shape: tuple[int, ...], *, stride: int = 1, level: int = -1, name: str = "copy",
    reason: str = "copy",
) -> KernelLaunch:
    """Record for a working-buffer copy (Table IV's ``MC`` row)."""
    n = _prod(shape)
    return KernelLaunch(
        name=name,
        kind="copy",
        elements=n,
        bytes_read=n * 8,
        bytes_written=n * 8,
        threads=n,
        stride=stride,
        sustained_scale=_CAL[name]["sustained"],
        cpu_scale=_CAL[name]["cpu"],
        level=level,
        extra={"reason": reason},
    )


def correction_update_launch(
    shape_coarse: tuple[int, ...],
    *,
    stride: int,
    level: int,
    fine_shape: tuple[int, ...] | None = None,
    opts: EngineOptions | None = None,
) -> KernelLaunch:
    """Record for applying/undoing the correction on the coarse nodes.

    Fused with node packing/unpacking in the paper's Algorithm 3 (the
    ``*``/``◦`` annotations), hence categorized under ``PN``.  During
    decomposition the update reads the *fine* level (restriction of the
    nodal values) before adding the correction; pass ``fine_shape`` to
    account for that traffic.
    """
    n = _prod(shape_coarse)
    n_read = (_prod(fine_shape) if fine_shape is not None else n) + n
    ndim = len([s for s in shape_coarse if s > 1])
    cap = opts.occupancy_cap_3d if (opts is not None and ndim >= 3) else 1.0
    return KernelLaunch(
        name="correction_update",
        kind="pack",
        elements=n,
        bytes_read=n_read * 8,
        bytes_written=n * 8,
        threads=n,
        stride=stride,
        occupancy_cap=cap,
        sustained_scale=_CAL["correction_update"]["sustained"],
        cpu_scale=_CAL["correction_update"]["cpu"],
        level=level,
    )


# ----------------------------------------------------------------------
# Shape-only walk of Algorithm 3
# ----------------------------------------------------------------------

def iter_decompose_launches(
    hier: TensorHierarchy,
    opts: EngineOptions,
    operation: str = "decompose",
) -> Iterator[KernelLaunch]:
    """Yield every launch of one decomposition/recomposition pass.

    The level walk is that of :func:`repro.core.decompose.decompose` /
    :func:`~repro.core.decompose.recompose`, over shapes only, and what is
    modeled is the paper's Algorithm 3, not the host's shortcuts:

    * the host evaluates ``R_l M_l`` as one stencil
      (:func:`~repro.core.transfer.mass_transfer_apply`); the paper runs
      a ``mass`` and a ``transfer`` kernel, so both are yielded;
    * the paper's device design keeps a separate output array and working
      buffer ("the size of working memory space is equal to the original
      input size") and pays an output copy, a finest-level pack and a
      full-size coefficient store that the host drivers skip by adopting
      arrays — they are yielded (``MC``/``PN``) as if performed;
    * applying/undoing the correction is fused with node (un)packing
      there, hence a ``correction_update`` (``PN``) per level;
    * designs without node packing operate on the strided data in place:
      with ``pack_nodes`` off the initial gathers are not launches, the
      level stride is charged to every kernel instead.
    """
    if operation not in ("decompose", "recompose"):
        raise ValueError(f"operation must be decompose|recompose, got {operation!r}")
    full = hier.shape
    yield copy_launch(full, level=hier.L, reason="output")
    if hier.L == 0:
        return

    def _level_stride(l: int) -> int:
        return hier.level_stride(l, hier.ndim - 1)

    def correction_launches(l: int) -> Iterator[KernelLaunch]:
        cur = list(hier.level_shape(l))
        st = _level_stride(l)
        for axis in hier.coarsening_dims(l):
            ops = hier.level_ops(l, axis)
            yield mass_launch(tuple(cur), axis, opts=opts, level=l, stride=st)
            yield transfer_launch(
                tuple(cur), axis, ops.m_coarse, opts=opts, level=l, stride=st
            )
            cur[axis] = ops.m_coarse
            yield solve_launch(tuple(cur), axis, opts=opts, level=l, stride=st)

    if operation == "decompose":
        if opts.pack_nodes:
            yield pack_launch(full, stride=1, level=hier.L, reason="pack-finest", opts=opts)
        for l in range(hier.L, 0, -1):
            shape = hier.level_shape(l)
            st = _level_stride(l)
            yield coefficients_launch(shape, opts=opts, level=l, stride=st)
            yield copy_launch(
                shape, stride=st, level=l, name="unpack_store", reason="store-coefficients"
            )
            yield from correction_launches(l)
            yield correction_update_launch(
                hier.level_shape(l - 1),
                stride=2 if opts.pack_nodes else st,
                level=l,
                fine_shape=shape,
                opts=opts,
            )
        yield copy_launch(
            hier.level_shape(0), stride=_level_stride(0),
            level=0, name="unpack_store", reason="store-coarsest",
        )
    else:
        if opts.pack_nodes:
            yield pack_launch(
                hier.level_shape(0), stride=_level_stride(0), level=0,
                reason="pack-coarsest", opts=opts,
            )
        for l in range(1, hier.L + 1):
            shape = hier.level_shape(l)
            st = _level_stride(l)
            yield pack_launch(shape, stride=st, level=l, reason="pack-coefficients", opts=opts)
            yield from correction_launches(l)
            yield correction_update_launch(
                hier.level_shape(l - 1),
                stride=1 if opts.pack_nodes else st,
                level=l,
                opts=opts,
            )
            yield coefficients_launch(shape, opts=opts, level=l, stride=st, restore=True)
        yield copy_launch(
            full, stride=1, level=hier.L, name="unpack_store", reason="store-restored"
        )

