"""Manufactured cases, error norms, and convergence-slope fitting."""

import numpy as np
import pytest

from fcrkpm import (
    continuous_l2_error_1d,
    convergence_slope,
    discretize,
    external_force,
    nodal_errors,
    poisson_case,
    quadrature_weights,
    solve_static_linear,
)


class TestSourceConsistency:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_laplacian_matches_source(self, dim, rng):
        # -lap(u) == r, checked with central second differences
        case = poisson_case(dim)
        h = 1e-4
        pts = rng.uniform(-0.9, 0.9, size=(100, dim))
        for x in pts:
            lap = 0.0
            for k in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                lap += (
                    case.exact(*xp) - 2.0 * case.exact(*x) + case.exact(*xm)
                ) / h**2
            assert abs(-lap - case.source(*x)) < 1e-5


class TestNodalErrors:
    def test_exact_gives_zero(self, disc2d):
        err = nodal_errors(disc2d.exact_field, disc2d.exact_field, disc2d.chi)
        assert err.e_l2 == 0.0 and err.e_linf == 0.0

    def test_single_node_perturbation(self, disc2d):
        # max |u| = 1 at the origin, so e_linf equals the perturbation
        eps = 1e-3
        u_h = disc2d.exact_field.copy()
        X, Y = disc2d.grid.coordinates()
        interior = np.argwhere(
            (np.abs(X) < 0.5) & (np.abs(Y) < 0.5) & (disc2d.chi > 0.5)
        )[0]
        u_h[tuple(interior)] += eps
        err = nodal_errors(u_h, disc2d.exact_field, disc2d.chi)
        assert err.e_linf == pytest.approx(eps, rel=1e-12)

    def test_rejects_zero_exact(self, disc2d):
        with pytest.raises(ValueError):
            nodal_errors(
                disc2d.exact_field, np.zeros(disc2d.grid.shape), disc2d.chi
            )


class TestContinuousNorm1D:
    def test_exact_coefficients_near_zero(self, disc1d):
        # exact nodal coefficients leave only the interpolation remainder,
        # far below the solve errors this norm measures
        ref = disc1d.reference()
        d = disc1d.chi * disc1d.exact_field
        val = continuous_l2_error_1d(d, disc1d.case.exact, ref)
        assert val < 1e-3

    def test_constant_offset(self, disc1d):
        # u_h = c by partition of unity, exact = 0: error is c * sqrt(2)
        ref = disc1d.reference()
        c = 0.37
        d = c * np.ones(disc1d.grid.shape)
        val = continuous_l2_error_1d(d, lambda x: 0.0 * x, ref)
        assert val == pytest.approx(c * np.sqrt(2.0), rel=1e-12)

    def test_requires_1d(self, disc2d):
        ref = disc2d.reference()
        with pytest.raises(ValueError, match="1D"):
            continuous_l2_error_1d(
                np.zeros(disc2d.grid.shape), disc2d.case.exact, ref
            )


class TestConvergenceSlope:
    def test_quadratic(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        assert convergence_slope(h, h**2) == pytest.approx(2.0, abs=1e-12)

    def test_linear(self):
        h = np.array([0.4, 0.2, 0.1])
        assert convergence_slope(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_uses_finest_points(self):
        # coarse junk must not pollute the finest-3 fit
        h = np.array([1.0, 0.4, 0.2, 0.1])
        e = np.array([50.0, 0.16, 0.04, 0.01])
        assert convergence_slope(h, e) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            convergence_slope([0.1, 0.2], [1.0, 2.0])
        with pytest.raises(ValueError):
            convergence_slope([0.1, 0.2, -0.3], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            convergence_slope([0.1, 0.2, 0.3], [1.0, 0.0, 3.0])

    def test_repeated_h_rejected(self):
        # three fits of one h leave the slope undefined; a repeat among
        # the coarse points outside the fit does not matter
        with pytest.raises(ValueError, match="repeat an h"):
            convergence_slope([0.1, 0.1, 0.1], [1.0, 1.1, 1.2])
        with pytest.raises(ValueError, match="repeat an h"):
            convergence_slope([0.4, 0.1, 0.1, 0.05], [4.0, 1.0, 1.1, 0.3])
        h = np.array([0.4, 0.4, 0.2, 0.1, 0.05])
        assert convergence_slope(h, h**2) == pytest.approx(2.0, abs=1e-12)


class TestErrorSymmetry:
    def test_1d_even_problem(self):
        # the problem and node set are symmetric about the origin; the
        # extension lives outside the domain, so the error field must be too
        disc = discretize(poisson_case(1), counts=32)
        rhs = external_force(disc.r, disc.precomp)
        _, u_h, _ = solve_static_linear(
            disc.precomp, disc.chi_omega, rhs, dirichlet=disc.dirichlet
        )
        err = (u_h - disc.exact_field) * disc.chi
        x = disc.grid.axes()[0]
        active = np.flatnonzero(disc.chi > 0.5)
        for i in active:
            if x[i] > 1e-12:
                j = int(np.argmin(np.abs(x + x[i])))
                assert err[i] == pytest.approx(err[j], abs=1e-10)


class TestDiscretize:
    def test_counts_and_masks(self, disc3d):
        assert disc3d.grid.counts == (8, 8, 8)
        assert disc3d.n_omega == int(np.sum(disc3d.chi))
        assert np.all(disc3d.r[disc3d.chi < 0.5] == 0.0)

    def test_dirichlet_field_zero(self, disc2d):
        assert np.all(disc2d.dirichlet == 0.0)

    @pytest.mark.parametrize("dim,mode", [
        (1, {"counts": 32}), (1, {"spacing": 0.125}),
        (2, {"counts": 16}), (2, {"spacing": 0.25}),
        (3, {"counts": 8}), (3, {"spacing": 0.5}),
    ])
    def test_derived_attributes_are_the_precomps(self, dim, mode):
        # the setup objects are read from the precomp, not kept twice
        disc = discretize(poisson_case(dim), **mode)
        pc = disc.precomp
        assert disc.grid is pc.grid and disc.table is pc.table
        assert pc.grid is pc.table.grid
        assert disc.chi is pc.chi and disc.V is pc.V
        assert disc.basis is pc.table.basis
        assert disc.kernel is pc.table.kernel
        # the masked weights equal the plain ones bit for bit: V is
        # already zero wherever chi is
        V = quadrature_weights(disc.grid, disc.chi)
        assert disc.V.tobytes() == V.tobytes()
        assert np.array_equal(disc.chi_omega, disc.chi - disc.chi_gamma_g)
