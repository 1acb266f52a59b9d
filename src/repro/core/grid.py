"""Grid hierarchies for multigrid-based data refactoring.

The refactoring algorithms of Ainsworth et al. (the algorithmic core of
MGARD, and the algorithms GPU-accelerated by Chen et al., IPDPS 2021)
operate on *tensor-product* grids: a d-dimensional structured grid whose
node coordinates are the Cartesian product of d one-dimensional coordinate
arrays.  The coordinates may be non-uniformly spaced.

Each dimension carries its own *level hierarchy*: a nested family of index
sets ``N_0 ⊂ N_1 ⊂ … ⊂ N_L`` where ``N_L`` is the full index range of the
dimension.  The paper evaluates grids whose per-dimension size is
``2^L + 1``, in which case ``N_l`` contains every ``2^(L-l)``-th node and
``|N_l| = 2^l + 1``.  This module generalizes that construction to *any*
size ``n ≥ 1`` via the reduction ``n_{l-1} = floor(n_l / 2) + 1``: the
coarse set keeps the even-position nodes and, when the level size is even,
additionally keeps the final node so that every dropped (detail) node has
a coarse neighbour on both sides.  For dyadic sizes this reduces exactly
to the paper's hierarchy; for other sizes it plays the role of the
"special pre-processing decomposition" the paper alludes to in §IV.

Two classes are exported:

``Hierarchy1D``
    The per-dimension hierarchy: level sizes, per-level index sets (as
    indices into the finest array), per-level coordinates, and the
    precomputed :class:`LevelOps` operator data (interpolation weights,
    mass-matrix spacings, Thomas elimination factors, the fused
    mass·transfer band) used by every kernel.

``TensorHierarchy``
    A d-dimensional bundle of ``Hierarchy1D`` with a single *global* level
    counter.  Dimensions with shallower hierarchies simply stop coarsening
    once they reach their coarsest size (the standard MGARD convention),
    which this class encodes via :meth:`TensorHierarchy.dim_level`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..cache import LRUCache

__all__ = [
    "LevelOps",
    "Hierarchy1D",
    "TensorHierarchy",
    "dyadic_size",
    "hierarchy_for",
    "clear_hierarchy_cache",
    "hierarchy_cache_stats",
    "num_levels_for_size",
]


def dyadic_size(L: int) -> int:
    """Return the per-dimension size ``2**L + 1`` used throughout the paper."""
    if L < 0:
        raise ValueError(f"level count must be non-negative, got {L}")
    return (1 << L) + 1


def num_levels_for_size(n: int) -> int:
    """Number of coarsening steps ``L`` for a dimension of size ``n``.

    Repeatedly applies ``n <- floor(n/2) + 1`` until the size no longer
    decreases (i.e. ``n <= 2``).  For ``n = 2^L + 1`` this returns ``L``.
    """
    if n < 1:
        raise ValueError(f"dimension size must be >= 1, got {n}")
    L = 0
    while n > 2:
        n = n // 2 + 1
        L += 1
    return L


@dataclass(frozen=True)
class LevelOps:
    """Precomputed per-(dimension, level) operator data.

    All arrays refer to the *packed* level-``l`` grid of size ``m_fine``
    (the nodes of ``N_l`` gathered contiguously) and its coarse subset of
    size ``m_coarse`` (the nodes of ``N_{l-1}``).

    Attributes
    ----------
    x_fine:
        Coordinates of the level-``l`` nodes, shape ``(m_fine,)``.
    x_coarse:
        Coordinates of the level-``l-1`` nodes, shape ``(m_coarse,)``.
    coarse_pos:
        Positions of the coarse nodes inside the packed fine array,
        shape ``(m_coarse,)``; always ``[0, 2, 4, …]`` plus, when
        ``m_fine`` is even, the trailing index ``m_fine - 1``.
    detail_pos:
        Positions of the detail nodes ``N_l \\ N_{l-1}`` inside the packed
        fine array, shape ``(m_detail,)``.
    has_detail:
        Boolean per coarse *interval* ``[coarse_pos[j], coarse_pos[j+1]]``,
        true when the interval contains an interior detail node.  Shape
        ``(m_coarse - 1,)``.
    interval_detail:
        Per-interval detail position (clipped to a valid index when the
        interval has none; mask with ``has_detail``), shape
        ``(m_coarse - 1,)``.
    w_left / w_right:
        Linear interpolation weights of each interval's detail node with
        respect to the interval's left/right coarse endpoints:
        ``u[d] ≈ w_left * u[jl] + w_right * u[jr]``.  The same weights are
        the entries of the transfer matrix ``R = P^T``.  Entries of
        intervals without a detail node are zero.
    h_fine:
        Spacings of the fine grid, ``h_fine[i] = x_fine[i+1] - x_fine[i]``,
        shape ``(m_fine - 1,)``.
    h_coarse:
        Spacings of the coarse grid, shape ``(m_coarse - 1,)``.
    mass_bands_coarse:
        The coarse mass matrix in LAPACK upper-banded form (shape
        ``(2, m_coarse)``): row 0 the off-diagonal shifted right by one
        (so ``mass_bands_coarse[0, 1:]`` is the Thomas ``lower``), row 1
        the main diagonal.
    thomas_cp / thomas_denom:
        Thomas forward-elimination factors of ``mass_bands_coarse``
        (modified superdiagonal and pivots, both of length ``m_coarse``),
        precomputed once because the matrix depends only on coordinates;
        the ``O(m)`` pivot buffer is the solver kernel's only extra
        memory footprint.
    mass_transfer_bands:
        The pentadiagonal band of ``R_l M_l`` at the coarse nodes, shape
        ``(5, m_coarse)``: ``mass_transfer_bands[k, j]`` multiplies the fine
        value at ``coarse_pos[j] + k - 2`` (zero where that position is off
        the grid).  Read by
        :func:`repro.core.transfer.mass_transfer_apply`.

    The coarse set of the packed fine array is always the basic slice
    ``[0::2]`` plus, when ``m_fine`` is even, the trailing *tail node*
    ``m_fine - 1``; the detail set is ``[1:m_fine-1:2]``.  Every kernel
    in :mod:`repro.core` addresses the two sets through those slices.
    """

    x_fine: np.ndarray
    x_coarse: np.ndarray
    coarse_pos: np.ndarray
    detail_pos: np.ndarray
    has_detail: np.ndarray
    interval_detail: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    h_fine: np.ndarray
    h_coarse: np.ndarray
    mass_bands_coarse: np.ndarray
    thomas_cp: np.ndarray
    thomas_denom: np.ndarray
    mass_transfer_bands: np.ndarray

    @property
    def m_fine(self) -> int:
        return int(self.x_fine.shape[0])

    @property
    def m_coarse(self) -> int:
        return int(self.x_coarse.shape[0])

    @property
    def m_detail(self) -> int:
        return int(self.detail_pos.shape[0])

    @property
    def n_even(self) -> int:
        """Coarse nodes on the ``[0::2]`` progression (all but an even level's tail)."""
        return (self.m_fine + 1) // 2

    @property
    def coarse_slices(self) -> tuple[slice, ...]:
        """The coarse set as basic slices of the packed fine axis."""
        even = (slice(0, None, 2),)
        return even if self.m_fine % 2 else even + (slice(self.m_fine - 1, self.m_fine),)


def along(axis: int, sl) -> tuple:
    """Index tuple applying ``sl`` along ``axis`` (every other axis whole)."""
    return (slice(None),) * axis + (sl,)


def axis_weights(w: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """View of a 1D weight vector that broadcasts along ``axis`` of an ``ndim`` array."""
    return w.reshape((-1,) + (1,) * (ndim - 1 - axis))


def _coarse_positions(m_fine: int) -> np.ndarray:
    """Local positions kept by one coarsening step of a packed array."""
    pos = np.arange(0, m_fine, 2, dtype=np.intp)
    if m_fine % 2 == 0:
        pos = np.concatenate([pos, np.asarray([m_fine - 1], dtype=np.intp)])
    return pos


def _mass_bands(x: np.ndarray) -> np.ndarray:
    """Non-uniform P1 finite-element mass matrix in upper banded form.

    The matrix is tridiagonal with rows (interior node ``i``)::

        M[i, i-1] = h_i / 6
        M[i, i]   = (h_i + h_{i+1}) / 3
        M[i, i+1] = h_{i+1} / 6

    and the natural halved diagonal at the two boundary nodes.  Banded
    storage follows LAPACK convention: row 0 holds the superdiagonal
    (shifted right by one), row 1 holds the main diagonal.
    """
    m = x.shape[0]
    bands = np.zeros((2, m), dtype=np.float64)
    if m == 1:
        bands[1, 0] = 1.0  # degenerate single-node "mass"; keeps solves well-posed
        return bands
    h = np.diff(x).astype(np.float64)
    if np.any(h <= 0):
        raise ValueError("grid coordinates must be strictly increasing")
    diag = np.zeros(m, dtype=np.float64)
    diag[:-1] += h / 3.0
    diag[1:] += h / 3.0
    bands[1, :] = diag
    bands[0, 1:] = h / 6.0
    return bands


def _thomas_factor(bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thomas forward-elimination factors ``(cp, denom)`` of a banded SPD matrix.

    ``cp[i]`` is the modified superdiagonal and ``denom[i]`` the modified
    pivot; the recurrence is sequential, so it runs once per level here
    rather than once per solve.
    """
    off = bands[0, 1:].tolist()  # symmetric: sub- equals super-diagonal
    diag = bands[1].tolist()
    m = len(diag)
    cp = [0.0] * m
    denom = [0.0] * m
    denom[0] = diag[0]
    for i in range(1, m):
        cp[i - 1] = off[i - 1] / denom[i - 1]
        denom[i] = diag[i] - off[i - 1] * cp[i - 1]
    return np.asarray(cp), np.asarray(denom)


def _mass_transfer_bands(
    h_fine: np.ndarray, coarse_pos: np.ndarray, w_left: np.ndarray, w_right: np.ndarray
) -> np.ndarray:
    """Band of ``R_l M_l`` at the coarse nodes, in closed form.

    Row ``j`` of ``R_l`` is the coarse node's own fine value plus ``a`` times
    the detail node on its left and ``b`` times the one on its right
    (``a = w_right[j-1]``, ``b = w_left[j]``, zero where the neighbour is
    not a detail node); ``M_l`` is tridiagonal with diagonal ``d`` and
    off-diagonal ``o``, so at fine position ``p`` the product row is::

        a*o[p-2],  a*d[p-1] + o[p-1],  (a*o[p-1] + d[p]) + b*o[p],
        o[p] + b*d[p+1],  b*o[p+1]
    """
    m = h_fine.shape[0] + 1
    bands = np.zeros((5, coarse_pos.shape[0]), dtype=np.float64)
    if m == 1:
        bands[2, 0] = 1.0  # the degenerate 1x1 "mass" is the identity
        return bands
    # d and o padded by two zeros on either side, so p + k - 2 never leaves them
    d = np.zeros(m + 4)
    d[2:m + 1] += h_fine / 3.0
    d[3:m + 2] += h_fine / 3.0
    o = np.zeros(m + 4)
    o[2:m + 1] = h_fine / 6.0  # o[i + 2] couples fine nodes i and i + 1
    a = np.concatenate([[0.0], w_right])
    b = np.concatenate([w_left, [0.0]])
    p = coarse_pos + 2
    bands[0] = a * o[p - 2]
    bands[1] = a * d[p - 1] + o[p - 1]
    bands[2] = (a * o[p - 1] + d[p]) + b * o[p]
    bands[3] = o[p] + b * d[p + 1]
    bands[4] = b * o[p + 1]
    return bands


def _build_level_ops(x_fine: np.ndarray) -> LevelOps:
    """Construct :class:`LevelOps` for one coarsening step of coordinates."""
    m_fine = x_fine.shape[0]
    coarse_pos = _coarse_positions(m_fine)
    keep = np.zeros(m_fine, dtype=bool)
    keep[coarse_pos] = True
    detail_pos = np.nonzero(~keep)[0].astype(np.intp)
    x_coarse = x_fine[coarse_pos]

    n_int = coarse_pos.shape[0] - 1
    has_detail = np.zeros(n_int, dtype=bool)
    interval_detail = np.zeros(n_int, dtype=np.intp)
    w_left = np.zeros(n_int, dtype=np.float64)
    w_right = np.zeros(n_int, dtype=np.float64)
    # With this hierarchy every interval holds zero or one detail node and
    # detail node d sits in interval j = d // 2.
    if detail_pos.shape[0]:
        j = detail_pos // 2
        has_detail[j] = True
        interval_detail[j] = detail_pos
        xl = x_fine[coarse_pos[j]]
        xr = x_fine[coarse_pos[j + 1]]
        xd = x_fine[detail_pos]
        denom = xr - xl
        w_left[j] = (xr - xd) / denom
        w_right[j] = (xd - xl) / denom

    bands = _mass_bands(x_coarse)
    cp, denom = _thomas_factor(bands)
    h_fine = np.diff(x_fine).astype(np.float64) if m_fine > 1 else np.zeros(0)
    h_coarse = np.diff(x_coarse).astype(np.float64) if x_coarse.shape[0] > 1 else np.zeros(0)
    return LevelOps(
        x_fine=np.asarray(x_fine, dtype=np.float64),
        x_coarse=np.asarray(x_coarse, dtype=np.float64),
        coarse_pos=coarse_pos,
        detail_pos=detail_pos,
        has_detail=has_detail,
        interval_detail=interval_detail,
        w_left=w_left,
        w_right=w_right,
        h_fine=h_fine,
        h_coarse=h_coarse,
        mass_bands_coarse=bands,
        thomas_cp=cp,
        thomas_denom=denom,
        mass_transfer_bands=_mass_transfer_bands(h_fine, coarse_pos, w_left, w_right),
    )


def _mesh_selector(per_dim: tuple[np.ndarray, ...]) -> tuple:
    """Indexer for the open mesh of per-dimension index arrays.

    Arithmetic progressions become basic slices (a strided view, no
    gather).  The index set of a non-dyadic dimension ends in a tail node
    off the progression; one such dimension keeps its index array among
    the slices, two or more fall back to the ``np.ix_`` open mesh.
    """
    sel: list = []
    for idx in per_dim:
        step = int(idx[1] - idx[0]) if idx.shape[0] > 1 else 1
        regular = np.array_equal(idx, idx[0] + step * np.arange(idx.shape[0]))
        sel.append(slice(int(idx[0]), int(idx[-1]) + 1, step) if regular else idx)
    if sum(not isinstance(s, slice) for s in sel) > 1:
        return np.ix_(*per_dim)
    return tuple(sel)


class Hierarchy1D:
    """Level hierarchy of a single dimension.

    Parameters
    ----------
    coords:
        Strictly increasing coordinates of the finest grid, shape ``(n,)``.
        Pass ``None`` with ``size=n`` for a uniform grid on ``[0, 1]``.
    size:
        Alternative to ``coords``: build a uniform grid with ``size`` nodes.
    """

    def __init__(self, coords: np.ndarray | None = None, *, size: int | None = None):
        if coords is None:
            if size is None:
                raise ValueError("provide either coords or size")
            if size < 1:
                raise ValueError(f"dimension size must be >= 1, got {size}")
            coords = np.linspace(0.0, 1.0, size) if size > 1 else np.zeros(1)
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError("coordinates must be one-dimensional")
        if coords.shape[0] > 1 and np.any(np.diff(coords) <= 0):
            raise ValueError("coordinates must be strictly increasing")
        self.coords = coords
        self.n = int(coords.shape[0])
        self.L = num_levels_for_size(self.n)

        # index[l] = finest-grid indices of the level-l node set N_l.
        index: list[np.ndarray] = [np.arange(self.n, dtype=np.intp)]
        ops: list[LevelOps] = []
        cur = coords
        cur_idx = index[0]
        for _ in range(self.L):
            lops = _build_level_ops(cur)
            ops.append(lops)
            cur_idx = cur_idx[lops.coarse_pos]
            cur = cur[lops.coarse_pos]
            index.append(cur_idx)
        index.reverse()  # index[0] = coarsest, index[L] = finest
        ops.reverse()  # ops[l-1] describes the step from level l to l-1
        self._index = index
        self._ops = ops

    # ------------------------------------------------------------------
    def size(self, l: int) -> int:
        """Number of nodes at local level ``l`` (0 = coarsest, L = finest)."""
        return int(self._index[self._check_level(l)].shape[0])

    def index(self, l: int) -> np.ndarray:
        """Finest-grid indices of the level-``l`` node set ``N_l``."""
        return self._index[self._check_level(l)]

    def level_coords(self, l: int) -> np.ndarray:
        """Coordinates of the level-``l`` nodes."""
        return self.coords[self.index(l)]

    def ops(self, l: int) -> LevelOps:
        """Operator data for the coarsening step ``l -> l-1`` (``1 <= l <= L``)."""
        if not 1 <= l <= self.L:
            raise ValueError(f"ops defined for levels 1..{self.L}, got {l}")
        return self._ops[l - 1]

    def _check_level(self, l: int) -> int:
        if not 0 <= l <= self.L:
            raise ValueError(f"level must be in [0, {self.L}], got {l}")
        return l

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hierarchy1D(n={self.n}, L={self.L})"


@dataclass
class TensorHierarchy:
    """A d-dimensional tensor-product hierarchy with a global level counter.

    The *global* number of levels is ``L = max_k L_k``.  At global level
    ``l`` a dimension ``k`` sits at its local level
    ``max(l - (L - L_k), 0)``: the deepest dimensions coarsen at every
    step while shallower dimensions join in once the global level has
    descended to their range and then stay at their coarsest size.
    """

    dims: tuple[Hierarchy1D, ...]
    _memo: dict[tuple[str, int], object] = field(default_factory=dict, repr=False)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_shape(
        cls,
        shape: tuple[int, ...],
        coords: tuple[np.ndarray | None, ...] | None = None,
    ) -> "TensorHierarchy":
        """Build a hierarchy for an array of the given shape.

        ``coords`` optionally supplies non-uniform coordinates per
        dimension (``None`` entries default to uniform on ``[0, 1]``).
        """
        if len(shape) == 0:
            raise ValueError("shape must have at least one dimension")
        if coords is None:
            coords = tuple(None for _ in shape)
        if len(coords) != len(shape):
            raise ValueError("coords must match shape length")
        dims = []
        for n, c in zip(shape, coords):
            if c is not None and len(c) != n:
                raise ValueError(f"coordinate array of length {len(c)} does not match dim {n}")
            dims.append(Hierarchy1D(c, size=n) if c is not None else Hierarchy1D(size=n))
        return cls(dims=tuple(dims))

    # -- basic queries ---------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.n for d in self.dims)

    @cached_property
    def L(self) -> int:
        """Global number of coarsening levels."""
        return max(d.L for d in self.dims)

    def dim_level(self, l: int, k: int) -> int:
        """Local level of dimension ``k`` at global level ``l``."""
        if not 0 <= l <= self.L:
            raise ValueError(f"global level must be in [0, {self.L}], got {l}")
        dk = self.dims[k]
        return max(l - (self.L - dk.L), 0)

    def coarsens(self, l: int, k: int) -> bool:
        """True when dimension ``k`` coarsens at the step ``l -> l-1``."""
        return self.dim_level(l, k) >= 1

    def level_shape(self, l: int) -> tuple[int, ...]:
        """Packed grid shape at global level ``l``."""
        return self._memoized(("shape", l), lambda: tuple(
            d.size(self.dim_level(l, k)) for k, d in enumerate(self.dims)
        ))

    def level_indices(self, l: int) -> tuple[np.ndarray, ...]:
        """Finest-grid index arrays (one per dim) of the level-``l`` node set."""
        return tuple(d.index(self.dim_level(l, k)) for k, d in enumerate(self.dims))

    def _memoized(self, key: tuple[str, int], build):
        """Per-level derived data; values are immutable, so two threads racing
        to build the same entry is harmless."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def level_selector(self, l: int) -> tuple:
        """Indexer of the level-``l`` node set in a finest-grid array.

        ``full[hier.level_selector(l)]`` has the packed level-``l`` shape: a
        strided *view* for dyadic sizes (all slices), a gathered copy
        otherwise (see :func:`_mesh_selector`).
        """
        return self._memoized(("level", l), lambda: _mesh_selector(self.level_indices(l)))

    def coarse_selector(self, l: int) -> tuple:
        """Indexer of the coarse positions ``N_{l-1}`` in a packed level-``l`` array.

        Non-coarsening dimensions contribute their full range, so the
        selection always has the packed shape of level ``l - 1``.
        """
        return self._memoized(("coarse", l), lambda: _mesh_selector(tuple(
            self.level_ops(l, k).coarse_pos if self.coarsens(l, k) else np.arange(n)
            for k, n in enumerate(self.level_shape(l))
        )))

    def detail_mask(self, l: int) -> np.ndarray:
        """Read-only boolean mask over the packed level-``l`` grid, True at detail nodes.

        A node is a detail node of step ``l`` when at least one coarsening
        dimension places it at an odd (dropped) position.
        """
        if not 1 <= l <= self.L:
            raise ValueError(f"detail masks exist for levels 1..{self.L}, got {l}")

        def build() -> np.ndarray:
            mask = np.ones(self.level_shape(l), dtype=bool)
            mask[self.coarse_selector(l)] = False
            mask.flags.writeable = False
            return mask

        return self._memoized(("detail", l), build)

    def class_walk(self, l: int) -> tuple[bytes, int, int]:
        """``native.c``'s walk over class ``l`` of a C-contiguous array — level ``l``'s
        node counts, element offsets and coarse flags per axis (what :meth:`level_selector`
        and :meth:`detail_mask` select) — with the class size and largest offset."""

        def build() -> tuple[bytes, int, int]:
            strides = np.cumprod((self.shape + (1,))[:0:-1])[::-1]
            offsets = [i.astype(np.int64) * s for i, s in zip(self.level_indices(l), strides)]
            flags = [np.zeros(n, dtype=np.int64) for n in self.level_shape(l)]
            for k, f in enumerate(flags if l else ()):  # a non-coarsening axis is all coarse
                f[self.level_ops(l, k).coarse_pos if self.coarsens(l, k) else slice(None)] = 1
            words = np.concatenate([[self.ndim, *self.level_shape(l)], *offsets, *flags]).tobytes()
            size = self.num_nodes(0) if l == 0 else self.detail_count(l)
            return words, size, int(sum(o[-1] for o in offsets))

        return self._memoized(("walk", l), build)

    def level_walk(self, l: int) -> tuple[bytes, np.ndarray]:
        """``native.c``'s description of the step ``l -> l-1``: the words ``nd``, the
        level's node counts and per axis the offset of its operators in the float64
        array (``-1`` where the axis does not coarsen) — per coarsening axis
        ``w_left``, ``w_right``, ``mass_transfer_bands``, the Thomas ``lower``,
        ``thomas_cp`` and ``thomas_denom`` — and that array."""

        def build() -> tuple[bytes, np.ndarray]:
            at, offsets, parts = 0, [], []
            for k in range(self.ndim):
                if not self.coarsens(l, k):
                    offsets.append(-1)
                    continue
                o = self.level_ops(l, k)
                axis = [o.w_left, o.w_right, o.mass_transfer_bands.ravel(),
                        o.mass_bands_coarse[0, 1:], o.thomas_cp, o.thomas_denom]
                offsets.append(at)
                parts += axis
                at += sum(a.size for a in axis)
            words = np.array([self.ndim, *self.level_shape(l), *offsets], dtype=np.int64)
            return words.tobytes(), np.ascontiguousarray(np.concatenate(parts), dtype=np.float64)

        return self._memoized(("level_walk", l), build)

    def level_ops(self, l: int, k: int) -> LevelOps:
        """Operator data for dimension ``k`` at the step ``l -> l-1``.

        Only valid when :meth:`coarsens` is true for ``(l, k)``.
        """
        lk = self.dim_level(l, k)
        if lk < 1:
            raise ValueError(f"dimension {k} does not coarsen at global level {l}")
        return self.dims[k].ops(lk)

    def coarsening_dims(self, l: int) -> tuple[int, ...]:
        """Dimensions that actually coarsen at the step ``l -> l-1``."""
        return tuple(k for k in range(self.ndim) if self.coarsens(l, k))

    def level_stride(self, l: int, k: int) -> int:
        """Index stride of the level-``l`` node set of dim ``k`` in the finest grid.

        For dyadic sizes this is ``2^(L_k - l_k)``: the distance (in array
        elements along that dimension) between neighbouring level-``l``
        nodes when the data is stored *unpacked* at full resolution.  The
        CPU baseline and the "naive" GPU design pay this stride on every
        access; the paper's packed designs reduce it to 1.
        """
        idx = self.dims[k].index(self.dim_level(l, k))
        if idx.shape[0] < 2:
            return 1
        return int(idx[1] - idx[0])

    def num_nodes(self, l: int) -> int:
        """Total node count of the packed level-``l`` grid."""
        out = 1
        for s in self.level_shape(l):
            out *= s
        return out

    def detail_count(self, l: int) -> int:
        """Number of detail nodes ``N_l \\ N_{l-1}`` at the step ``l -> l-1``."""
        if not 1 <= l <= self.L:
            raise ValueError(f"detail levels are 1..{self.L}, got {l}")
        return self.num_nodes(l) - self.num_nodes(l - 1)

    def validate_array(self, data: np.ndarray) -> np.ndarray:
        """Check that ``data`` matches this hierarchy and return it as float."""
        if data.shape != self.shape:
            raise ValueError(f"data shape {data.shape} does not match hierarchy {self.shape}")
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float64)
        return data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorHierarchy(shape={self.shape}, L={self.L})"


# ----------------------------------------------------------------------
# shared hierarchy cache
#
# Building a TensorHierarchy precomputes every level's interpolation
# weights, banded mass matrices, and Thomas factors — work that
# depends only on (shape, coordinates).  Streaming and multi-field
# workloads compress thousands of same-shape arrays, so the hierarchy is
# memoized here and shared by Refactorer, the compression plans, and the
# file/stream readers.


_HIER_CACHE = LRUCache(max_entries=128)


def coords_key(coords) -> tuple | None:
    """Hashable form of per-axis coordinates, for the hierarchy and plan memos."""
    if coords is None:
        return None
    return tuple(
        None if c is None else np.ascontiguousarray(c, dtype=np.float64).tobytes()
        for c in coords
    )


def hierarchy_for(
    shape: tuple[int, ...],
    coords: tuple[np.ndarray | None, ...] | None = None,
) -> TensorHierarchy:
    """A shared, cached :class:`TensorHierarchy` for one grid geometry.

    Equivalent to :meth:`TensorHierarchy.from_shape` but memoized on
    (shape, coordinate values) with LRU eviction, so repeated
    compress/decompress of same-shape fields skips all per-geometry
    setup.  Callers must treat the returned hierarchy as immutable.
    """
    key = (tuple(int(s) for s in shape), coords_key(coords))
    hier = _HIER_CACHE.get(key)
    if hier is None:
        hier = TensorHierarchy.from_shape(tuple(shape), coords)
        _HIER_CACHE.put(key, hier)
    return hier


def clear_hierarchy_cache() -> None:
    """Drop all cached hierarchies (and reset the hit/miss counters)."""
    _HIER_CACHE.clear()


def hierarchy_cache_stats() -> dict:
    """Snapshot of the hierarchy cache: entries, hits, misses."""
    return _HIER_CACHE.stats()
