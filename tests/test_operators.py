"""Tests for the per-dimension operators: mass, transfer, solver."""

import numpy as np
import pytest
from scipy.linalg import solve as dense_solve

from repro.core.grid import TensorHierarchy, _build_level_ops
from repro.core.mass import dense_mass_matrix, mass_apply, mass_apply_coarse
from repro.core.solver import solve_correction, thomas_factor, thomas_solve
from repro.core.transfer import dense_transfer_matrix, mass_transfer_apply, transfer_apply

from conftest import nonuniform_coords
from scalar_walks import cholesky_solve, thomas_factor_loop


def _ops(n, rng=None):
    coords = None
    if rng is not None:
        coords = nonuniform_coords((n,), rng)
    h = TensorHierarchy.from_shape((n,), coords)
    return h.level_ops(h.L, 0)


class TestMass:
    @pytest.mark.parametrize("n", [3, 5, 9, 17, 16, 7])
    def test_matches_dense_uniform(self, n, rng):
        ops = _ops(n)
        v = rng.standard_normal(n)
        M = dense_mass_matrix(ops.x_fine)
        np.testing.assert_allclose(mass_apply(v, ops.h_fine), M @ v, rtol=1e-13)

    @pytest.mark.parametrize("n", [5, 9, 33, 12])
    def test_matches_dense_nonuniform(self, n, rng):
        ops = _ops(n, rng)
        v = rng.standard_normal(n)
        M = dense_mass_matrix(ops.x_fine)
        np.testing.assert_allclose(mass_apply(v, ops.h_fine), M @ v, rtol=1e-13)

    def test_mass_is_symmetric_positive(self, rng):
        ops = _ops(17, rng)
        M = dense_mass_matrix(ops.x_fine)
        np.testing.assert_allclose(M, M.T)
        assert np.all(np.linalg.eigvalsh(M) > 0)

    def test_rows_integrate_hat_functions(self):
        # Applying M to all-ones gives the integrals of the hat functions,
        # which sum to the domain length.
        ops = _ops(33)
        out = mass_apply(np.ones(33), ops.h_fine)
        np.testing.assert_allclose(out.sum(), ops.x_fine[-1] - ops.x_fine[0], rtol=1e-13)

    def test_axis_handling(self, rng):
        ops = _ops(9)
        v = rng.standard_normal((4, 9, 3))
        out = mass_apply(v, ops.h_fine, axis=1)
        for i in range(4):
            for j in range(3):
                np.testing.assert_allclose(
                    out[i, :, j], mass_apply(v[i, :, j], ops.h_fine)
                )

    def test_does_not_mutate_input(self, rng):
        ops = _ops(9)
        v = rng.standard_normal(9)
        before = v.copy()
        mass_apply(v, ops.h_fine)
        np.testing.assert_array_equal(v, before)

    def test_coarse_variant(self, rng):
        ops = _ops(9)
        vc = rng.standard_normal(ops.m_coarse)
        Mc = dense_mass_matrix(ops.x_coarse)
        np.testing.assert_allclose(
            mass_apply_coarse(vc, ops.h_coarse), Mc @ vc, rtol=1e-13
        )

    def test_singleton_axis_identity(self):
        out = mass_apply(np.array([[3.0]]), np.zeros(0), axis=1)
        np.testing.assert_array_equal(out, [[3.0]])

    def test_spacing_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="spacing"):
            mass_apply(rng.standard_normal(9), np.ones(3))


class TestTransfer:
    @pytest.mark.parametrize("n", [3, 5, 9, 17, 16, 7, 100])
    def test_matches_dense(self, n, rng):
        ops = _ops(n, rng)
        f = rng.standard_normal(n)
        R = dense_transfer_matrix(ops)
        np.testing.assert_allclose(transfer_apply(f, ops), R @ f, rtol=1e-12, atol=1e-14)

    def test_transfer_is_prolongation_transpose(self, rng):
        # R must equal P^T where P interpolates coarse->fine.
        from repro.core.coefficients import prolong

        ops = _ops(17, rng)
        P = np.zeros((ops.m_fine, ops.m_coarse))
        for j in range(ops.m_coarse):
            e = np.zeros(ops.m_coarse)
            e[j] = 1.0
            P[:, j] = prolong(e, ops)
        np.testing.assert_allclose(dense_transfer_matrix(ops), P.T)

    def test_axis_handling(self, rng):
        ops = _ops(9)
        f = rng.standard_normal((9, 4))
        out = transfer_apply(f, ops, axis=0)
        assert out.shape == (5, 4)
        for j in range(4):
            np.testing.assert_allclose(out[:, j], transfer_apply(f[:, j], ops))

    def test_wrong_length(self, rng):
        ops = _ops(9)
        with pytest.raises(ValueError, match="m_fine"):
            transfer_apply(rng.standard_normal(8), ops)

    def test_constant_preserved_in_mass_sense(self):
        # R M 1 = M_c 1: restriction of the fine load of a constant equals
        # the coarse load of the same constant (partition of unity).
        ops = _ops(17)
        lhs = transfer_apply(mass_apply(np.ones(17), ops.h_fine), ops)
        rhs = mass_apply_coarse(np.ones(ops.m_coarse), ops.h_coarse)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def _level_ops(m, nonuniform, rng):
    """LevelOps of an ``m``-node fine grid, built directly so the sizes 1 and 2
    that a hierarchy never coarsens are covered too."""
    if nonuniform:
        return _build_level_ops(nonuniform_coords((m,), rng)[0])
    return _build_level_ops(np.linspace(0.0, 1.0, m) if m > 1 else np.zeros(1))


@pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("m", range(1, 13))
class TestMassTransfer:
    """The fused ``R_l M_l`` stencil against the two operators it replaces,
    for odd levels, even levels (tail node) and the degenerate sizes."""

    def test_bands_are_the_band_of_the_dense_product(self, m, nonuniform, rng):
        ops = _level_ops(m, nonuniform, rng)
        RM = dense_transfer_matrix(ops) @ dense_mass_matrix(ops.x_fine)
        band = np.zeros((5, ops.m_coarse))
        for j, p in enumerate(ops.coarse_pos):
            for k in range(5):
                if 0 <= p + k - 2 < m:
                    band[k, j] = RM[j, p + k - 2]
                    RM[j, p + k - 2] = 0.0
        assert not RM.any()  # nothing outside the five diagonals
        got = ops.mass_transfer_bands
        assert got.shape == (5, ops.m_coarse)
        # one- and two-term entries repeat the dense arithmetic exactly; the
        # three-term centre may sum in another order
        np.testing.assert_array_equal(got[band == 0.0], 0.0)
        np.testing.assert_array_equal(got[[0, 4]], band[[0, 4]])
        assert np.all(np.abs(got - band) <= 2 * np.spacing(band))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_apply_matches_transfer_of_mass_on_every_axis(self, m, nonuniform, ndim, dtype, rng):
        ops = _level_ops(m, nonuniform, rng)
        for axis in range(ndim):
            shape = [3, 2, 4, 2][:ndim]
            shape[axis] = m
            f = rng.standard_normal(shape).astype(dtype)
            before = f.copy()
            got = mass_transfer_apply(f, ops, axis)
            np.testing.assert_array_equal(f, before)
            ref = transfer_apply(mass_apply(f.astype(np.float64), ops.h_fine, axis), ops, axis)
            assert got.dtype == np.float64 and got.shape == ref.shape and got.flags.c_contiguous
            tol = 8 * np.finfo(np.float64).eps * np.abs(f).max()
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol)
            assert mass_transfer_apply(f, ops, axis - ndim).tobytes() == got.tobytes()

    def test_wrong_length(self, m, nonuniform, rng):
        ops = _level_ops(m, nonuniform, rng)
        with pytest.raises(ValueError):
            mass_transfer_apply(np.zeros(m + 1), ops)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [9, 12])
def test_nonfinite_load_still_reaches_the_solver_check(n, bad, rng):
    """Every stencil weight on the grid is positive, so a NaN/inf anywhere in
    ``f`` is non-finite in the load vector and ``thomas_solve`` rejects it."""
    ops = _ops(n, rng)
    for pos in range(n):
        f = rng.standard_normal((n, 3))
        f[pos, 1] = bad
        load = mass_transfer_apply(f, ops, 0)
        assert not np.isfinite(load[:, 1]).all() and np.isfinite(load[:, [0, 2]]).all()
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
            thomas_solve(load, ops, 0)


class TestSolver:
    @pytest.mark.parametrize("n", [3, 5, 9, 17, 16, 7, 100])
    def test_solve_matches_dense(self, n, rng):
        ops = _ops(n, rng)
        g = rng.standard_normal(ops.m_coarse)
        Mc = dense_mass_matrix(ops.x_coarse)
        np.testing.assert_allclose(
            solve_correction(g, ops), dense_solve(Mc, g), rtol=1e-10
        )

    @pytest.mark.parametrize("n", [5, 17, 16, 100])
    def test_thomas_matches_scipy(self, n, rng):
        ops = _ops(n, rng)
        g = rng.standard_normal((3, ops.m_coarse))
        z = solve_correction(g, ops)
        np.testing.assert_array_equal(thomas_solve(g, ops), z)  # one arithmetic
        ref = cholesky_solve(g, ops)  # LAPACK pbtrs, the solver before the Thomas sweep
        np.testing.assert_allclose(z, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_solve_then_apply_is_identity(self, rng):
        ops = _ops(33)
        g = rng.standard_normal(ops.m_coarse)
        z = solve_correction(g, ops)
        np.testing.assert_allclose(mass_apply_coarse(z, ops.h_coarse), g, rtol=1e-10)

    def test_batched_axis(self, rng):
        ops = _ops(17)
        g = rng.standard_normal((ops.m_coarse, 6))
        out = solve_correction(g, ops, axis=0)
        for j in range(6):
            np.testing.assert_array_equal(out[:, j], solve_correction(g[:, j], ops))

    def test_thomas_factor_shapes(self):
        ops = _ops(17)
        cp, denom = thomas_factor(ops)
        assert cp.shape == denom.shape == (ops.m_coarse,)
        assert np.all(denom > 0)  # SPD matrix pivots stay positive
        assert cp is ops.thomas_cp and denom is ops.thomas_denom  # stored, not recomputed
        ref_cp, ref_denom = thomas_factor_loop(ops)
        np.testing.assert_array_equal(cp, ref_cp)
        np.testing.assert_array_equal(denom, ref_denom)

    def test_wrong_length(self, rng):
        ops = _ops(9)
        with pytest.raises(ValueError, match="m_coarse"):
            solve_correction(rng.standard_normal(9), ops)
        with pytest.raises(ValueError, match="m_coarse"):
            thomas_solve(rng.standard_normal(9), ops)

    def test_does_not_mutate_input(self, rng):
        ops = _ops(9)
        g = rng.standard_normal(ops.m_coarse)
        before = g.copy()
        thomas_solve(g, ops)
        np.testing.assert_array_equal(g, before)
