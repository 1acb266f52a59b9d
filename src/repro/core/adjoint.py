"""Adjoint (transpose) of the recomposition operator.

The reconstruction map ``R : refactored-array -> field`` is linear, so
any linear functional of the field, ``Q(u) = <w, u>``, satisfies
``Q(R(x)) = <R^T w, x>``: one application of the *adjoint* to the weight
field yields the functional's exact sensitivity to every stored
coefficient at once — the one-pass alternative to the basis-forward
route of :mod:`repro.core.qoi` (which the tests use as the oracle).

The adjoint is assembled from the adjoints of recomposition's per-level
stages (recompose runs, per level ``l``: correction from packed
coefficients, ``vc = v - z``, then restore).  Writing the level-``l``
stage as ``x_l = S_l(v_{l-1}, c_l)``, the adjoint runs the levels in
*reverse* (fine to coarse) pushing a cotangent ``ŵ`` of the nodal values
backwards and accumulating cotangents of each level's stored payload:

* restore ``v = c + P vc`` (with exact coarse re-injection) — adjoint:
  ``ĉ += ŵ`` at detail positions, ``v̂c += P^T ŵ_detail + ŵ_coarse``;
* ``vc = v - z``           — adjoint: ``v̂ += v̂c``, ``ẑ = -v̂c``;
* ``z = K c`` with ``K = (M_c^{-1} R M)`` per dimension — adjoint per
  dimension in reverse order: ``M^T R^T M_c^{-T} = M P M_c^{-1}``
  (mass matrices are symmetric, ``R = P^T``), all built from existing
  primitives (``solve`` with the coarse mass matrix, ``prolong``,
  ``mass_apply``);
* the correction's input is the *coarse-zeroed* packed read — adjoint:
  zero the coarse positions of ``ĉ``'s correction contribution.

The result maps the weight field to a full-shape array of sensitivities
in the in-place refactored layout; :func:`qoi_sensitivities` splits it
into per-class vectors.
"""

from __future__ import annotations

import numpy as np

from .classes import extract_classes
from .coefficients import prolong, zero_coarse_entries
from .grid import TensorHierarchy
from .mass import mass_apply
from .solver import solve_correction

__all__ = ["recompose_adjoint", "qoi_sensitivities"]


def _correction_adjoint(z_hat: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Adjoint of :func:`repro.core.correction.compute_correction`.

    Forward, per coarsening axis in order: ``f <- M f``, ``f <- R f``,
    ``f <- M_c^{-1} f``.  Adjoint: reverse the axes and transpose each
    factor: ``g <- M_c^{-1} g`` (symmetric), ``g <- R^T g = P g``,
    ``g <- M g`` (symmetric).
    """
    g = z_hat
    for axis in reversed(hier.coarsening_dims(l)):
        ops = hier.level_ops(l, axis)
        g = solve_correction(g, ops, axis=axis)
        g = prolong(g, ops, axis=axis)
        g = mass_apply(g, ops.h_fine, axis=axis)
    return g


def recompose_adjoint(weights: np.ndarray, hier: TensorHierarchy) -> np.ndarray:
    """Apply ``R^T`` to a weight field.

    Returns an array in the refactored in-place layout whose entry at
    each node is the sensitivity of ``<weights, recompose(.)>`` to the
    payload stored at that node.
    """
    weights = hier.validate_array(np.asarray(weights, dtype=np.float64))
    out = np.zeros(hier.shape)
    if hier.L == 0:
        return weights.copy()
    w = weights.copy()  # cotangent of the level-L nodal values
    for l in range(hier.L, 0, -1):
        mesh = hier.coarse_selector(l)
        # adjoint of restore v_l = c_l + P(vc); coarse positions carry vc
        # exactly (no c contribution there)
        c_hat = w.copy()
        c_hat[mesh] = 0.0
        # v̂c from the interpolation of detail positions + direct coarse copy
        w_detail = w.copy()
        w_detail[mesh] = 0.0
        vc_hat = _prolong_adjoint(w_detail, hier, l) + w[mesh]
        # adjoint of vc = v_{l-1} - z(c_l)
        z_hat = -vc_hat
        c_from_z = _correction_adjoint(z_hat, hier, l)
        zero_coarse_entries(c_from_z, hier, l)  # forward zeroed coarse reads
        c_hat += c_from_z
        # scatter this level's coefficient sensitivities into the output
        out[hier.level_selector(l)] = c_hat
        w = vc_hat  # continue toward the coarser level
    out[hier.level_selector(0)] = w
    return out


def _prolong_adjoint(w_detail: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Adjoint of the multilinear interpolation restricted to detail nodes.

    ``interpolate_coarse`` is the per-axis prolongation ``P = ⊗ P_k``;
    its adjoint is ``⊗ P_k^T`` = the transfer gather, which we apply via
    :func:`repro.core.transfer.transfer_apply` per coarsening axis.  The
    input must be zero at coarse positions (the restore only adds the
    interpolant at detail nodes... at coarse nodes the interpolant is
    overwritten by the exact re-injection, so those paths carry no
    sensitivity), which the caller guarantees.
    """
    from .transfer import transfer_apply

    g = w_detail
    for axis in reversed(hier.coarsening_dims(l)):
        g = transfer_apply(g, hier.level_ops(l, axis), axis=axis)
    return g


def qoi_sensitivities(
    weights: np.ndarray, hier: TensorHierarchy
) -> list[np.ndarray]:
    """Per-class sensitivity vectors of ``Q(u) = <weights, u>``.

    One adjoint pass — exact and fast even on large grids; equals the
    basis-forward sensitivities of :class:`repro.core.qoi.QoIAnalyzer`
    (tested).
    """
    layout = recompose_adjoint(weights, hier)
    return extract_classes(layout, hier)


def _self_test(hier: TensorHierarchy, rng: np.random.Generator) -> float:
    """Adjoint identity check ``<w, R x> == <R^T w, x>``; returns the gap."""
    from .decompose import recompose

    x = rng.standard_normal(hier.shape)
    w = rng.standard_normal(hier.shape)
    lhs = float(np.sum(w * recompose(x, hier)))
    rhs = float(np.sum(recompose_adjoint(w, hier) * x))
    return abs(lhs - rhs) / max(abs(lhs), 1e-30)
