"""Static CG, Newton over it, Dirichlet freezing, and transient stepping."""

import itertools
import math
import warnings

import numpy as np
import pytest

from fcrkpm import (
    CountingFFTProvider,
    KernelSpec,
    PeriodicGrid,
    SolverConfig,
    build_basis_table,
    build_moment_precomp,
    convergence_slope,
    discretize,
    enumerate_basis,
    evaluate_field,
    explicit_stable_dt,
    external_force,
    internal_force,
    lumped_mass,
    nodal_errors,
    poisson_case,
    quadrature_weights,
    run_transient,
    solve_static_linear,
    solve_static_nonlinear,
    step_transient_diffusion,
)
from fcrkpm import solvers
from fcrkpm.errors import LineSearchError
from fcrkpm.solvers import (
    TransientState,
    _cyclic_extent,
    _fast_preconditioner,
    _free_box,
    _masked_cg,
    interior_symbol,
)
from fcrkpm.verify import rel_err, symbol_checks

from conftest import ScipyFrontEndProvider


def _solve_poisson(disc, **kwargs):
    rhs = external_force(disc.r, disc.precomp)
    return solve_static_linear(
        disc.precomp, disc.chi_omega, rhs, dirichlet=disc.dirichlet, **kwargs
    )


class TestStaticLinear:
    def test_cg_matches_sparse_direct_solve(self):
        disc = discretize(poisson_case(1), counts=16)
        ref = disc.reference()
        d_cg, _, report = _solve_poisson(disc)
        assert report.converged
        d_direct = ref.solve_sparse(ref.f_r_direct(disc.r))
        assert rel_err(d_cg, d_direct) < 1e-10

    def test_1d_solution_quality(self, disc1d):
        d, u_h, report = _solve_poisson(disc1d)
        assert report.converged and report.residual <= 1e-12
        x = disc1d.grid.axes()[0]
        i0 = int(np.argmin(np.abs(x)))
        assert abs(u_h[i0] - 1.0) < 1e-2

    def test_1d_matches_reference_solution(self, disc1d):
        _, u_fc, _ = _solve_poisson(disc1d)
        ref = disc1d.reference()
        d_ref = ref.solve_sparse(ref.f_r_direct(disc1d.r))
        u_ref = ref.u_h_direct(d_ref)
        e_fc = nodal_errors(u_fc, disc1d.exact_field, disc1d.chi)
        e_ref = nodal_errors(u_ref, disc1d.exact_field, disc1d.chi)
        assert abs(e_fc.e_linf - e_ref.e_linf) < 1e-10
        assert abs(e_fc.e_l2 - e_ref.e_l2) < 1e-10

    def test_zero_problem_zero_iterations(self, disc2d):
        zero = np.zeros(disc2d.grid.shape)
        d, u_h, report = solve_static_linear(
            disc2d.precomp, disc2d.chi_omega, zero
        )
        assert report.iterations == 0 and report.converged
        assert np.all(d == 0.0) and np.all(u_h == 0.0)

    def test_2d_error_uniformity(self):
        disc = discretize(poisson_case(2), counts=64)
        _, u_h, report = _solve_poisson(disc)
        assert report.converged
        err = nodal_errors(u_h, disc.exact_field, disc.chi)
        ratio = max(err.e_l2, err.e_linf) / min(err.e_l2, err.e_linf)
        assert ratio < 1.5

    def test_masked_operator_symmetry(self, disc2d, rng):
        mask = disc2d.chi_omega
        scale = None
        for _ in range(5):
            d1 = mask * rng.standard_normal(disc2d.grid.shape)
            d2 = mask * rng.standard_normal(disc2d.grid.shape)
            A1 = mask * internal_force(mask * d1, disc2d.precomp)
            A2 = mask * internal_force(mask * d2, disc2d.precomp)
            if scale is None:
                scale = np.linalg.norm(A1) / np.linalg.norm(d1)
            gap = abs(np.vdot(d1, A2) - np.vdot(d2, A1))
            assert gap <= 1e-10 * np.linalg.norm(d1) * np.linalg.norm(d2) * scale

    def test_dirichlet_frozen_bitwise(self):
        # nonzero boundary data: u = x on the boundary of the square
        disc = discretize(poisson_case(2), counts=16)
        X, _ = disc.grid.coordinates()
        g_field = disc.chi_gamma_g * X
        rhs = np.zeros(disc.grid.shape)
        d, _, _ = solve_static_linear(
            disc.precomp, disc.chi_omega, rhs, dirichlet=g_field
        )
        frozen = disc.chi_gamma_g > 0.5
        assert np.array_equal(d[frozen], g_field[frozen])

    def test_not_converged_flagged(self, disc2d):
        rhs = external_force(disc2d.r, disc2d.precomp)
        with pytest.warns(UserWarning, match="CG stopped"):
            _, _, report = solve_static_linear(
                disc2d.precomp,
                disc2d.chi_omega,
                rhs,
                config=SolverConfig(tol=1e-14, max_iter=2),
            )
        assert not report.converged
        assert report.iterations == 2

    def test_non_finite_rhs_fails_fast(self, disc2d):
        # one NaN in the load stops CG before it iterates, instead of
        # running to the 10 x n_active cap on a NaN residual
        rhs = external_force(disc2d.r, disc2d.precomp)
        rhs[np.unravel_index(np.argmax(disc2d.chi_omega), rhs.shape)] = np.nan
        with pytest.warns(UserWarning, match="CG stopped"):
            _, _, report = solve_static_linear(
                disc2d.precomp, disc2d.chi_omega, rhs
            )
        assert not report.converged
        assert report.iterations <= 1
        assert np.isnan(report.residual)


class TestPeriodicControl:
    @pytest.mark.parametrize(
        "n,a_tilde", [(1, 1.5), (1, 2.5), (1, 3.5), (2, 2.5), (2, 3.5)]
    )
    def test_whole_periodic_box_is_second_order(self, n, a_tilde):
        # chi = 1 on the whole periodic 1D box: no boundary and no Dirichlet
        # nodes, so the rate is that of the interior discretization alone
        hs, errs = [], []
        for N in (64, 128, 256):
            grid = PeriodicGrid(x_min=(0.0,), length=(1.0,), counts=(N,))
            chi = np.ones(grid.shape)
            kernel = KernelSpec(support=(a_tilde * grid.spacing[0],))
            table = build_basis_table(grid, enumerate_basis(n, 1), kernel)
            precomp = build_moment_precomp(chi, quadrature_weights(grid, chi), table)
            (x,) = grid.coordinates()
            u = np.sin(2.0 * np.pi * x)
            rhs = external_force(4.0 * np.pi**2 * u, precomp)
            _, u_h, report = solve_static_linear(precomp, chi, rhs)
            assert report.converged
            hs.append(grid.spacing[0])
            errs.append(nodal_errors(u_h, u, chi).e_l2)
        assert 1.8 <= convergence_slope(hs, errs) <= 2.2

    def test_whole_periodic_box_reproduces_constants(self, disc2d):
        # chi = 1 on the whole 2D box: no boundary truncates a support, so
        # the partition of unity holds at every node
        chi = np.ones(disc2d.grid.shape)
        V = quadrature_weights(disc2d.grid, chi)
        precomp = build_moment_precomp(chi, V, disc2d.table)
        u1 = evaluate_field(np.ones(disc2d.grid.shape), precomp)
        assert np.max(np.abs(u1 - 1.0)) <= 1e-10


def _masked_precomp(disc, chi):
    """The precomp of disc's grid and basis table on the mask chi."""
    V = quadrature_weights(disc.grid, chi)
    return build_moment_precomp(chi, V, disc.table)


def _preconditioner_case(disc, kind):
    """(precomp, mask) of the free sets the preconditioner distinguishes:
    a Dirichlet box (sine transform), the same box rolled across the seam
    (a wrapped extent), a disk (a free set that is not a box), a strip that
    spans axis 1 whole (sine transform over that whole axis) and the whole
    periodic box (DFT).  The disk and the strip hold their boundary nodes
    (a cut quadrature weight) fixed."""
    X, Y = disc.grid.coordinates()
    half = [n // 2 for n in disc.grid.shape]
    if kind == "box":
        return disc.precomp, disc.chi_omega
    if kind == "rolled":
        mask = np.roll(disc.chi_omega, half, (0, 1))
        return _masked_precomp(disc, np.roll(disc.chi, half, (0, 1))), mask
    chi = {
        "disk": X**2 + Y**2 <= 0.8**2,
        "strip": np.abs(X) <= 0.6,
        "periodic": np.ones(X.shape, dtype=bool),
    }[kind].astype(float)
    precomp = _masked_precomp(disc, chi)
    return precomp, chi * (precomp.V == disc.grid.cell_volume)


class TestPreconditioner:
    def test_symmetric_positive_on_masked_subspace(self, disc2d, rng):
        cases = ("box", "rolled", "disk", "strip", "periodic")
        for kind, (w0, w1) in itertools.product(cases, ((0, 1), (3, 0.5))):
            precomp, mask = _preconditioner_case(disc2d, kind)
            precondition = _fast_preconditioner(precomp, w0, w1, mask, None)
            for _ in range(5):
                r1 = mask * rng.standard_normal(mask.shape)
                r2 = mask * rng.standard_normal(mask.shape)
                if kind == "periodic" and w0 == 0:
                    # the periodic stiffness symbol vanishes at the constant
                    # mode: positive only off it
                    r1 -= r1.mean()
                    r2 -= r2.mean()
                P1, P2 = precondition(r1), precondition(r2)
                assert np.array_equal(P1, mask * P1)
                a, b = np.vdot(r1, P2), np.vdot(r2, P1)
                # both sums round at the scale of their terms, which a
                # draw that cancels leaves far above |a| and |b|
                terms = np.sum(np.abs(r1 * P2) + np.abs(r2 * P1))
                assert abs(a - b) <= 1e-15 * terms
                assert np.vdot(r1, P1) > 0.0 and np.vdot(r2, P2) > 0.0

    def test_free_box(self, disc2d):
        # the box the preconditioner and criterion 9 share, per free set
        free = {kind: _preconditioner_case(disc2d, kind)[1] > 0.5
                for kind in ("box", "rolled", "strip", "periodic")}
        N = disc2d.grid.shape[0]
        box, thetas, periodic = _free_box(free["box"])
        idx = np.flatnonzero(free["box"].any(axis=1))
        n = idx.size
        assert box == (slice(idx[0], idx[-1] + 1),) * 2 and not periodic
        for theta in thetas:
            assert np.array_equal(theta,
                                  np.pi * np.arange(1, n + 1) / (n + 1))
        # rolled by half the box: an np.ix_ index that wraps the seam
        rolled, thetas_r, periodic_r = _free_box(free["rolled"])
        wrapped = (idx + N // 2) % N
        assert wrapped[0] > wrapped[-1] and not periodic_r
        for ax, index in enumerate(rolled):
            assert np.array_equal(index.ravel(), wrapped)
            assert index.shape == tuple(n if k == ax else 1 for k in (0, 1))
        assert np.array_equal(free["rolled"][rolled], free["box"][box])
        assert all(np.array_equal(a, b) for a, b in zip(thetas_r, thetas))
        # the strip spans axis 1 whole: a sine block of all N nodes there
        strip, thetas_s, periodic_s = _free_box(free["strip"])
        assert strip[1] == slice(0, N) and len(thetas_s[1]) == N
        assert strip[0] != slice(0, N) and not periodic_s
        box, _, periodic = _free_box(free["periodic"])
        assert box == (slice(0, N),) * 2 and periodic
        empty = np.zeros(disc2d.grid.shape, dtype=bool)
        assert [_cyclic_extent(empty, ax) for ax in (0, 1)] == [(0, N)] * 2
        box, _, periodic = _free_box(empty)
        assert box == (slice(0, N),) * 2 and periodic

    @pytest.mark.parametrize("kind", ["disk", "strip"])
    def test_masked_cg_converges(self, disc2d, kind):
        precomp, mask = _preconditioner_case(disc2d, kind)
        rhs = external_force(precomp.chi, precomp)
        d, converged, history = _masked_cg(
            lambda x: internal_force(x, precomp), rhs,
            np.zeros(mask.shape), mask, 1e-12, 200,
            _fast_preconditioner(precomp, 0.0, 1.0, mask, None),
        )
        assert converged and len(history) - 1 <= 30
        assert np.array_equal(d, mask * d)

    def test_symbol_at_dft_frequencies_is_the_basis_spectra(
        self, disc1d, disc2d
    ):
        # the separable build against V_c sum_k w_k |sum_p c[k, p] c_p
        # hat_Ha[p]|^2, the symbol the operators apply off the band
        disc3d = discretize(poisson_case(3), n=2, a_tilde=2.5, counts=8)
        for disc in (disc1d, disc2d, disc3d):
            pc, table = disc.precomp, disc.table
            odd = np.isin(np.arange(table.size), table.parity_split[1])
            H = table.hat_Ha.reshape(table.size, -1)
            re = np.where(odd, 0.0, pc.c) @ H
            im = np.where(odd, pc.c, 0.0) @ H
            for w0, w1 in ((0.0, 1.0), (3.0, 0.5)):
                w = np.array([w0] + [w1] * pc.dim) * disc.grid.cell_volume
                spectra = (w @ (re * re + im * im)).reshape(disc.grid.shape)
                assert rel_err(interior_symbol(pc, w0, w1), spectra) <= 1e-12

    @pytest.mark.parametrize(
        "dim,counts,n,a_tilde,bound",
        [(2, 128, 1, 1.5, 6), (3, 32, 1, 1.5, 6), (2, 64, 2, 2.5, 30)],
    )
    def test_iteration_count_bound(self, dim, counts, n, a_tilde, bound):
        # the floored circulant took 71, 34 and 203 iterations here
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=counts)
        _, _, report = _solve_poisson(disc)
        assert report.converged and report.iterations <= bound

    def test_box_rolled_across_the_seam(self):
        # the free set's extent wraps the periodic seam: the sine transform
        # runs on the wrapped block and the solve is the rolled one
        disc = discretize(poisson_case(2), counts=64)
        half = [n // 2 for n in disc.grid.shape]

        def roll(field):
            return np.roll(field, half, (0, 1))

        precomp = _masked_precomp(disc, roll(disc.chi))
        rhs = external_force(roll(disc.r), precomp)
        _, u_rolled, rolled = solve_static_linear(
            precomp, roll(disc.chi_omega), rhs, dirichlet=roll(disc.dirichlet)
        )
        _, u_h, report = _solve_poisson(disc)
        assert rolled.converged and rolled.iterations == report.iterations
        assert rel_err(u_rolled, roll(u_h)) <= 1e-10

    def test_symbol_ignores_where_the_mask_sits(self, disc2d):
        # the symbol reads only the interior rows and the spectra
        rolled = build_moment_precomp(
            np.roll(disc2d.chi, (5, 9), axis=(0, 1)),
            np.roll(disc2d.V, (5, 9), axis=(0, 1)), disc2d.table,
        )
        for w0, w1 in ((0.0, 1.0), (3.0, 0.5)):
            assert np.array_equal(
                interior_symbol(rolled, w0, w1),
                interior_symbol(disc2d.precomp, w0, w1),
            )

    def test_symbol_check_needs_a_deep_node(self):
        # at 8^3 no footprint's footprint (9 nodes wide at a_tilde = 2.5)
        # fits the domain: the oracle check fails instead of passing empty
        disc = discretize(poisson_case(3), n=2, a_tilde=2.5, counts=8)
        checks = symbol_checks(disc.precomp, disc.chi_omega, "8")
        assert len(checks) == 8 and not any(c["passed"] for c in checks)

    def test_masked_cg_leaves_rhs_and_start_untouched(self, disc2d, rng):
        # CG updates its own iterate, residual and direction in place
        rhs = external_force(disc2d.r, disc2d.precomp)
        d0 = disc2d.dirichlet + disc2d.chi_omega * rng.standard_normal(
            disc2d.grid.shape
        )
        before = rhs.tobytes(), d0.tobytes()
        d, converged, _ = _masked_cg(
            lambda x: internal_force(x, disc2d.precomp), rhs, d0,
            disc2d.chi_omega, 1e-12, 500,
            _fast_preconditioner(
                disc2d.precomp, 0.0, 1.0, disc2d.chi_omega, None
            ),
        )
        assert converged and d is not d0
        assert (rhs.tobytes(), d0.tobytes()) == before

    def test_2d_64_iteration_count(self):
        # plain CG took 107 iterations on this case, the floored circulant 39
        disc = discretize(poisson_case(2), counts=64)
        _, _, report = _solve_poisson(disc)
        assert report.converged and report.iterations <= 6

    def test_transform_count(self, disc2d):
        # per solve: each iteration applies the operator once, and so does
        # the initial residual unless the start is zero; the symbol takes
        # no transform; each preconditioning takes two, and the converged
        # iteration skips it; evaluate_field closes with s + 1
        s = disc2d.precomp.size
        rhs = external_force(disc2d.r, disc2d.precomp)
        assert not disc2d.dirichlet.any()
        for start, applies in ((disc2d.dirichlet, 0), (disc2d.chi_gamma_g, 1)):
            prov = CountingFFTProvider()
            _, _, report = solve_static_linear(
                disc2d.precomp, disc2d.chi_omega, rhs, dirichlet=start,
                provider=prov,
            )
            k = report.iterations
            assert report.converged and k > 0
            assert prov.total == (
                (k + applies) * 2 * (s + 1) + 2 * k + (s + 1)
            )

    def test_residual_history(self, disc2d):
        _, _, report = _solve_poisson(disc2d)
        hist = report.residual_history
        assert len(hist) == report.iterations + 1
        assert hist[0] == 1.0 and hist[-1] == report.residual
        assert hist[-1] <= 1e-12 < min(hist[:-1])

    @pytest.mark.parametrize("dim,counts,n,a_tilde", [
        (3, 24, 1, 1.5), (2, 64, 1, 3.5), (2, 64, 2, 2.5),
    ])
    def test_true_residual_tracks_the_recursive_one(self, dim, counts, n,
                                                    a_tilde):
        # CG stops on its recursive residual; the true one, formed once at
        # exit, stays within 25 % of it (measured 1.0006, 1.1160 and
        # 1.0637 times it)
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=counts)
        d, _, report = _solve_poisson(disc)
        rhs = external_force(disc.r, disc.precomp)
        mask = disc.chi_omega
        r0 = np.linalg.norm(
            mask * (rhs - internal_force(disc.dirichlet, disc.precomp)))
        true = np.linalg.norm(mask * (rhs - internal_force(d, disc.precomp)))
        assert report.converged
        assert true / r0 <= 1.25 * report.residual


def _cubic_rhs(disc):
    X = disc.grid.coordinates()[0]
    return external_force(
        disc.chi * (2.0 + (1.0 - X**2) ** 3), disc.precomp
    )


class TestStaticNonlinear:
    def test_degenerate_nonlinearity_matches_linear(self, disc1d):
        rhs = external_force(disc1d.r, disc1d.precomp)
        _, u_lin, _ = solve_static_linear(disc1d.precomp, disc1d.chi_omega, rhs)
        _, u_non, report = solve_static_nonlinear(
            disc1d.precomp,
            disc1d.chi_omega,
            rhs,
            nonlinearity=lambda u: 0.0 * u,
            nonlinearity_prime=lambda u: 0.0 * u,
        )
        assert report.converged
        assert np.max(np.abs(u_non - u_lin)) < 1e-9

    def test_cubic_manufactured_convergence(self):
        # -u'' + u^3 = 2 + (1-x^2)^3 has the exact solution u = 1 - x^2
        hs, es = [], []
        for N in (16, 32, 64):
            disc = discretize(poisson_case(1), counts=N)
            _, u_h, report = solve_static_nonlinear(
                disc.precomp,
                disc.chi_omega,
                _cubic_rhs(disc),
                nonlinearity=lambda u: u**3,
                nonlinearity_prime=lambda u: 3 * u**2,
                config=SolverConfig(tol=1e-8, max_iter=40 * N),
            )
            assert report.converged
            hs.append(disc.grid.spacing[0])
            es.append(nodal_errors(u_h, disc.exact_field, disc.chi).e_linf)
        assert 1.8 <= convergence_slope(hs, es) <= 2.2

    def test_monotone_residual_decrease(self):
        disc = discretize(poisson_case(1), counts=32)
        _, _, report = solve_static_nonlinear(
            disc.precomp,
            disc.chi_omega,
            _cubic_rhs(disc),
            nonlinearity=lambda u: u**3,
            nonlinearity_prime=lambda u: 3 * u**2,
            config=SolverConfig(tol=1e-9, max_iter=2000),
        )
        hist = np.array(report.residual_history)
        assert np.all(np.diff(hist) < 0.0)

    def test_residual_history_is_relative(self):
        # same meaning as the linear solve: ||R_i|| / ||R_0||
        disc = discretize(poisson_case(1), counts=16)
        _, _, report = solve_static_nonlinear(
            disc.precomp,
            disc.chi_omega,
            _cubic_rhs(disc),
            nonlinearity=lambda u: u**3,
            nonlinearity_prime=lambda u: 3 * u**2,
            config=SolverConfig(tol=1e-9, max_iter=2000),
        )
        hist = report.residual_history
        assert report.converged
        assert len(hist) == report.iterations + 1
        assert hist[0] == 1.0 and hist[-1] == report.residual

    def test_reaches_default_tol_in_few_newton_steps(self):
        # the default tol 1e-12, at 1D 128 and 2D 64^2
        for dim, N in ((1, 128), (2, 64)):
            disc = discretize(poisson_case(dim), counts=N)
            _, _, report = solve_static_nonlinear(
                disc.precomp,
                disc.chi_omega,
                _cubic_rhs(disc),
                nonlinearity=lambda u: u**3,
                nonlinearity_prime=lambda u: 3 * u**2,
            )
            assert report.converged and report.iterations <= 8
            assert report.residual <= 1e-12

    def test_newton_transform_count(self, monkeypatch):
        # 2D 64^2: the start residual, one residual per full Newton step and
        # every Jacobian application are one weak form each, 2(s+1)
        # transforms, the symbol none, each preconditioning 2; the zero
        # start of every inner CG costs none.  Feeding that skipped
        # application through the right-hand side costs 2(s+1) per step
        # and changes no bit of d.
        disc = discretize(poisson_case(2), counts=64)
        s = disc.precomp.size

        def solve():
            prov = CountingFFTProvider()
            d, _, report = solve_static_nonlinear(
                disc.precomp,
                disc.chi_omega,
                _cubic_rhs(disc),
                nonlinearity=lambda u: u**3,
                nonlinearity_prime=lambda u: 3 * u**2,
                provider=prov,
            )
            return d, report, prov

        d, report, prov = solve()
        # the report's inner CG total under the Eisenstat-Walker forcing
        # term; it moves with the rounding of c
        steps, k = report.iterations, sum(report.inner_iterations)
        assert report.converged and steps == len(report.inner_iterations) == 4
        assert k == 9
        assert prov.forward_count == prov.inverse_count
        assert prov.total == (
            2 * (s + 1) * (1 + steps) + (2 * (s + 1) + 2) * k
        )
        masked_cg = solvers._masked_cg
        monkeypatch.setattr(
            solvers, "_masked_cg",
            lambda apply_op, rhs, d0, *args, **kwargs: masked_cg(
                apply_op, rhs - apply_op(d0), d0, *args, **kwargs
            ),
        )
        d_applied, _, prov_applied = solve()
        assert prov_applied.total - prov.total == steps * 2 * (s + 1)
        assert np.array_equal(d, d_applied)

    def test_not_converged_warning_names_inner_iterations(self):
        # the cap bounds the Newton steps; the forcing term lets every
        # inner CG stop below it
        disc = discretize(poisson_case(1), counts=32)
        with pytest.warns(UserWarning, match=r"4 inner CG iterations: "
                                             r"\[1, 1, 2\]"):
            _, _, report = solve_static_nonlinear(
                disc.precomp,
                disc.chi_omega,
                _cubic_rhs(disc),
                nonlinearity=lambda u: u**3,
                nonlinearity_prime=lambda u: 3 * u**2,
                config=SolverConfig(max_iter=3),
            )
        assert not report.converged and report.inner_iterations == [1, 1, 2]

    def test_non_finite_rhs_fails_fast(self):
        # as the linear solve: one NaN in the load stops Newton before its
        # first step, after the start residual's 2(s+1) transforms, instead
        # of halving a NaN step until the line search gives up
        disc = discretize(poisson_case(2), counts=32)
        rhs = _cubic_rhs(disc)
        rhs[np.unravel_index(np.argmax(disc.chi_omega), rhs.shape)] = np.nan
        prov = CountingFFTProvider()
        with pytest.warns(UserWarning, match="residual nan after 0 iter"):
            _, _, report = solve_static_nonlinear(
                disc.precomp,
                disc.chi_omega,
                rhs,
                nonlinearity=lambda u: u**3,
                nonlinearity_prime=lambda u: 3 * u**2,
                provider=prov,
            )
        assert not report.converged and report.iterations == 0
        assert np.isnan(report.residual)
        assert len(report.residual_history) == 1
        assert np.isnan(report.residual_history[0])
        assert report.inner_iterations == []
        assert prov.total == 2 * (disc.precomp.size + 1)

    def test_decreasing_nonlinearity_raises(self):
        # N' < 0 makes the Jacobian indefinite: the inner CG stops on
        # non-positive curvature and no step length reduces the residual
        disc = discretize(poisson_case(1), counts=32)
        with pytest.raises(LineSearchError, match="Newton iteration 1"):
            solve_static_nonlinear(
                disc.precomp,
                disc.chi_omega,
                external_force(disc.r, disc.precomp),
                nonlinearity=lambda u: -50.0 * u,
                nonlinearity_prime=lambda u: np.full_like(u, -50.0),
            )


@pytest.fixture(scope="module")
def transient_setup():
    disc = discretize(poisson_case(2), counts=24)
    rhs = external_force(disc.r, disc.precomp)
    _, u_static, _ = solve_static_linear(disc.precomp, disc.chi_omega, rhs)
    return disc, rhs, u_static


class TestTransient:
    def test_zero_stays_zero(self, transient_setup):
        disc, _, _ = transient_setup
        zero = np.zeros(disc.grid.shape)
        for scheme in ("explicit-euler", "implicit-euler"):
            cfg = SolverConfig(dt=1e-3, n_steps=3, scheme=scheme)
            state = run_transient(disc.precomp, disc.chi_omega, zero, cfg)
            assert np.all(state.d == 0.0)

    def test_explicit_reaches_static(self, transient_setup):
        disc, rhs, u_static = transient_setup
        Ml = lumped_mass(disc.precomp)
        dt = 0.5 * explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        n_steps = int(np.ceil(2.5 / dt))
        cfg = SolverConfig(dt=dt, n_steps=n_steps, scheme="explicit-euler")
        state = run_transient(disc.precomp, disc.chi_omega, rhs, cfg)
        u_t = evaluate_field(state.d, disc.precomp)
        active = disc.chi > 0.5
        gap = np.max(np.abs(u_t[active] - u_static[active]))
        assert gap / np.max(np.abs(u_static[active])) < 1e-4

    def test_implicit_large_step_reaches_static(self, transient_setup):
        disc, rhs, u_static = transient_setup
        Ml = lumped_mass(disc.precomp)
        dt_explicit = explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        cfg = SolverConfig(
            dt=100 * dt_explicit,
            n_steps=30,
            scheme="implicit-euler",
            tol=1e-10,
        )
        state = run_transient(disc.precomp, disc.chi_omega, rhs, cfg)
        u_t = evaluate_field(state.d, disc.precomp)
        active = disc.chi > 0.5
        gap = np.max(np.abs(u_t[active] - u_static[active]))
        assert gap / np.max(np.abs(u_static[active])) < 1e-4

    def test_implicit_march_equals_its_steps(self, transient_setup):
        # a march equals its steps called one by one, in bits and in
        # transform count: every step builds its own preconditioner, at no
        # transform
        disc, rhs, _ = transient_setup
        Ml = lumped_mass(disc.precomp)
        dt = 100 * explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        cfg = SolverConfig(dt=dt, n_steps=30, scheme="implicit-euler", tol=1e-10)
        marched = CountingFFTProvider()
        state = run_transient(
            disc.precomp, disc.chi_omega, rhs, cfg, provider=marched
        )
        stepped = CountingFFTProvider()
        alone = TransientState(t=0.0, d=np.zeros(disc.grid.shape))
        for _ in range(cfg.n_steps):
            alone = step_transient_diffusion(
                alone, disc.precomp, disc.chi_omega, rhs, cfg, provider=stepped
            )
        assert stepped.total == marched.total
        assert np.array_equal(state.d, alone.d) and state.converged

    def test_implicit_step_transform_count(self, transient_setup,
                                           monkeypatch):
        # increment form: the force rhs - nu K d costs 2(s+1), and the inner
        # CG starts from a zero increment, which costs no application; its
        # k iterations apply M/dt + nu K once each, as one weak form
        # (2(s+1)), and run k preconditionings (2 each): one before the
        # first iteration and none after the converged one
        disc, rhs, u_static = transient_setup
        s = disc.precomp.size
        iterations = []
        masked_cg = solvers._masked_cg

        def recording(*args):
            d, converged, history = masked_cg(*args)
            iterations.append(len(history) - 1)
            return d, converged, history

        monkeypatch.setattr(solvers, "_masked_cg", recording)
        # a nonzero state: the count does not depend on d
        start = TransientState(t=0.0, d=disc.chi_omega * u_static)
        cfg = SolverConfig(dt=1e-2, n_steps=1, scheme="implicit-euler")
        for _ in range(3):
            prov = CountingFFTProvider()
            start = step_transient_diffusion(
                start, disc.precomp, disc.chi_omega, rhs, cfg, provider=prov
            )
            k = iterations[-1]
            assert start.converged and k > 0
            assert prov.total == 2 * (s + 1) + k * (2 * (s + 1) + 2)

    def test_implicit_not_converged_flagged(self, transient_setup):
        disc, rhs, _ = transient_setup
        state = TransientState(t=0.0, d=np.zeros(disc.grid.shape))
        cfg = SolverConfig(
            dt=1e-2, n_steps=1, scheme="implicit-euler", tol=1e-14, max_iter=1
        )
        with pytest.warns(UserWarning, match="implicit step 1"):
            state = step_transient_diffusion(
                state, disc.precomp, disc.chi_omega, rhs, cfg
            )
        assert not state.converged
        # a later converged step does not clear the flag
        cfg = SolverConfig(dt=1e-2, n_steps=1, scheme="implicit-euler")
        state = step_transient_diffusion(
            state, disc.precomp, disc.chi_omega, rhs, cfg
        )
        assert not state.converged and state.step == 2

    def test_implicit_non_finite_rhs_fails_fast(self, transient_setup):
        # the inner CG stops before its first iteration on a NaN load: the
        # step warns, keeps d and counts no more transforms than a step
        # that converges at once from d = 0 on a zero load
        disc, rhs, _ = transient_setup
        bad = rhs.copy()
        bad[np.unravel_index(np.argmax(disc.chi_omega), bad.shape)] = np.nan
        state = TransientState(t=0.0, d=np.zeros(disc.grid.shape))
        cfg = SolverConfig(dt=1e-2, n_steps=1, scheme="implicit-euler")
        zero = CountingFFTProvider()
        step_transient_diffusion(
            state, disc.precomp, disc.chi_omega, 0.0 * rhs, cfg, provider=zero
        )
        counting = CountingFFTProvider()
        with pytest.warns(UserWarning, match="implicit step 1: CG residual nan"):
            after = step_transient_diffusion(
                state, disc.precomp, disc.chi_omega, bad, cfg,
                provider=counting,
            )
        assert not after.converged
        assert np.array_equal(after.d, state.d)
        assert counting.total <= zero.total

    def test_explicit_stability_scaling(self):
        # halving dx should shrink the stable step by about 4x
        limits = {}
        for N in (16, 32):
            disc = discretize(poisson_case(2), counts=N)
            Ml = lumped_mass(disc.precomp)
            limits[N] = explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        ratio = limits[16] / limits[32]
        assert 3.0 <= ratio <= 5.0

    def test_nan_abort_reports_step(self, transient_setup):
        # the error names the first step whose d holds a NaN: the callback
        # saw every step before it, and none after
        disc, rhs, _ = transient_setup
        Ml = lumped_mass(disc.precomp)
        dt = 10.0 * explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        cfg = SolverConfig(dt=dt, n_steps=2000, scheme="explicit-euler")
        seen = []
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError) as info:
                run_transient(disc.precomp, disc.chi_omega, rhs, cfg,
                              callback=seen.append)
        assert all(not np.isnan(st.d).any() for st in seen)
        assert str(info.value) == (
            f"NaN detected at transient step {seen[-1].step + 1}"
        )

    def test_explicit_update_masked_at_inactive_nodes(self, transient_setup):
        # a zero or negative lumped mass where chi_omega is off is never
        # divided by: no RuntimeWarning under warnings-as-errors, and the
        # update there is exactly 0
        disc, rhs, _ = transient_setup
        Ml = lumped_mass(disc.precomp)
        inactive = np.argwhere(disc.chi_omega <= 0.5)
        zero_at, negative_at = tuple(inactive[0]), tuple(inactive[-1])
        Ml[zero_at], Ml[negative_at] = 0.0, -1.0
        d = np.random.default_rng(5).standard_normal(disc.grid.shape)
        state = TransientState(t=0.0, d=d)
        cfg = SolverConfig(dt=1e-3, n_steps=1, scheme="explicit-euler")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            after = step_transient_diffusion(
                state, disc.precomp, disc.chi_omega, rhs, cfg, Ml
            )
        inactive = disc.chi_omega <= 0.5
        assert np.array_equal(after.d[inactive], d[inactive])
        assert not np.array_equal(after.d, d)

    def test_explicit_nan_at_active_node_reports_step(self, transient_setup):
        disc, rhs, _ = transient_setup
        Ml = lumped_mass(disc.precomp)
        Ml[np.unravel_index(np.argmax(disc.chi_omega), Ml.shape)] = np.nan
        state = TransientState(t=0.0, d=np.zeros(disc.grid.shape))
        cfg = SolverConfig(dt=1e-3, n_steps=1, scheme="explicit-euler")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="transient step 1"):
                step_transient_diffusion(
                    state, disc.precomp, disc.chi_omega, rhs, cfg, Ml
                )

    def test_explicit_requires_lumped_mass(self, transient_setup):
        disc, rhs, _ = transient_setup
        state = TransientState(t=0.0, d=np.zeros(disc.grid.shape))
        cfg = SolverConfig(dt=1e-3, n_steps=1, scheme="explicit-euler")
        with pytest.raises(ValueError, match="lumped"):
            step_transient_diffusion(
                state, disc.precomp, disc.chi_omega, rhs, cfg
            )

    def test_dt_required(self, transient_setup):
        disc, rhs, _ = transient_setup
        cfg = SolverConfig(n_steps=1)
        with pytest.raises(ValueError, match="config.dt"):
            run_transient(disc.precomp, disc.chi_omega, rhs, cfg)
        state = TransientState(t=0.0, d=np.zeros(disc.grid.shape))
        with pytest.raises(ValueError, match="config.dt"):
            step_transient_diffusion(
                state, disc.precomp, disc.chi_omega, rhs, cfg
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(scheme="leapfrog")


def _written_euler(d, precomp, chi_omega, rhs, lumped, nu, dt, n_steps,
                   provider):
    """The forward-Euler march as the scheme is written, one temporary per
    operation: f = rhs - nu K d, its quotient by the lumped mass on the
    free nodes (0 elsewhere), and d + dt times that."""
    for _ in range(n_steps):
        f = rhs - nu * internal_force(d, precomp, provider)
        upd = np.zeros(precomp.grid.shape)
        np.divide(f, lumped, out=upd, where=chi_omega > 0.5)
        d = d + dt * upd
    return d


class TestExplicitStep:
    @pytest.mark.parametrize("dim, counts, n_steps", [
        (2, 64, 200), (1, 32, 200), (3, 10, 50),
    ])
    def test_march_bit_identical_to_the_written_scheme(self, dim, counts,
                                                       n_steps):
        # run_transient on the default provider against the written
        # formula on scipy.fft's public transforms: the same d to the bit,
        # and the same stable step
        disc = discretize(poisson_case(dim), counts=counts)
        rhs = external_force(disc.r, disc.precomp)
        Ml = lumped_mass(disc.precomp)
        dt = explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        front = ScipyFrontEndProvider()
        assert dt == explicit_stable_dt(disc.precomp, disc.chi_omega, Ml,
                                        provider=front)
        cfg = SolverConfig(dt=0.5 * dt, n_steps=n_steps, nu=0.7,
                           scheme="explicit-euler")
        state = run_transient(disc.precomp, disc.chi_omega, rhs, cfg,
                              dirichlet=disc.dirichlet)
        expected = _written_euler(disc.dirichlet.copy(), disc.precomp,
                                  disc.chi_omega, rhs, Ml, cfg.nu, cfg.dt,
                                  n_steps, front)
        assert state.step == n_steps
        assert state.d.tobytes() == expected.tobytes()


def _dense_top_eigenvalue(disc, Ml):
    """Largest eigenvalue of the dense M_l^-1/2 K_ff M_l^-1/2, with K_ff
    the direct-summation stiffness over the free nodes and M_l the FFT
    path's lumped mass."""
    ref = disc.reference()
    free = ~ref.gamma_mask
    K_ff = ref.assemble_stiffness()[free][:, free].toarray()
    scale = ref.restrict(Ml)[free] ** -0.5
    return np.linalg.eigvalsh(scale[:, None] * K_ff * scale)[-1]


@pytest.fixture(scope="module")
def explicit_64():
    disc = discretize(poisson_case(2), counts=64)
    Ml = lumped_mass(disc.precomp)
    return disc, Ml, _dense_top_eigenvalue(disc, Ml)


class TestExplicitStableDt:
    @pytest.mark.parametrize("dim, counts, n, a_tilde", [
        (2, 16, 1, 1.5), (2, 16, 2, 2.5), (2, 24, 1, 3.5), (1, 64, 1, 1.5),
        (3, 10, 1, 1.5),
    ])
    def test_matches_dense_eigenvalue(self, dim, counts, n, a_tilde):
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=counts)
        Ml = lumped_mass(disc.precomp)
        lam = 2.0 / explicit_stable_dt(disc.precomp, disc.chi_omega, Ml)
        assert rel_err(lam, _dense_top_eigenvalue(disc, Ml)) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_eigenvalue_at_64(self, explicit_64, seed):
        disc, Ml, dense = explicit_64
        dt = explicit_stable_dt(disc.precomp, disc.chi_omega, Ml, seed=seed)
        assert rel_err(2.0 / dt, dense) < 1e-5

    def test_one_internal_force_per_step(self, explicit_64, monkeypatch):
        # each Lanczos step applies the operator once and transforms
        # nothing else: k steps run exactly k 2(s+1) transforms
        disc, Ml, _ = explicit_64
        calls = []

        def counting(*args):
            calls.append(1)
            return internal_force(*args)

        monkeypatch.setattr(solvers, "internal_force", counting)
        prov = CountingFFTProvider()
        explicit_stable_dt(disc.precomp, disc.chi_omega, Ml, provider=prov)
        k = len(calls)
        assert 0 < k <= 40
        assert prov.total == k * 2 * (disc.precomp.size + 1)

    @pytest.mark.parametrize("dim, counts, n, a_tilde", [
        (1, 32, 1, 1.5), (1, 32, 2, 2.5), (1, 48, 1, 3.5), (2, 12, 1, 1.5),
        (2, 16, 2, 2.5), (2, 20, 2, 2.5), (2, 16, 1, 3.5), (3, 8, 1, 1.5),
        (3, 10, 2, 2.5),
    ])
    def test_within_the_probabilistic_bound(self, dim, counts, n, a_tilde):
        # the docstring's guarantee over 12 seeded starts: after k steps on
        # n free nodes, theta_k >= (1 - eps) lambda_max, with eps where
        # 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1)) = 1e-3, and theta_k never
        # above lambda_max beyond rounding.  2D 20^2 n = 2 at seed 1 stops
        # 1.1e-3 below lambda_max, inside its eps = 0.026
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=counts)
        Ml = lumped_mass(disc.precomp)
        lam = _dense_top_eigenvalue(disc, Ml)
        free = int(np.count_nonzero(disc.chi_omega > 0.5))
        for seed in range(12):
            prov = CountingFFTProvider()
            theta = 2.0 / explicit_stable_dt(disc.precomp, disc.chi_omega,
                                             Ml, seed=seed, provider=prov)
            k = prov.total // (2 * (disc.precomp.size + 1))
            eps = (math.log(1.648 * math.sqrt(free) / 1e-3) / (2 * k - 1)) ** 2
            assert (1.0 - eps) * lam <= theta <= lam * (1.0 + 1e-12), seed

    def test_cap_warns(self, disc2d, monkeypatch):
        Ml = lumped_mass(disc2d.precomp)
        prov = CountingFFTProvider()
        monkeypatch.setattr(solvers, "LANCZOS_MAX_STEPS", 3)
        with pytest.warns(UserWarning, match="after 3 steps"):
            dt = explicit_stable_dt(disc2d.precomp, disc2d.chi_omega, Ml,
                                    provider=prov)
        assert np.isfinite(dt) and dt > 0.0
        assert prov.total == 3 * 2 * (disc2d.precomp.size + 1)

    def test_non_positive_mass_raises(self, disc2d):
        Ml = lumped_mass(disc2d.precomp)
        node = np.unravel_index(np.argmax(disc2d.chi_omega), Ml.shape)
        Ml[node] = -1.0
        with pytest.raises(ValueError, match="is not positive"):
            explicit_stable_dt(disc2d.precomp, disc2d.chi_omega, Ml)

    def test_no_free_node_raises(self, disc2d):
        Ml = lumped_mass(disc2d.precomp)
        with pytest.raises(ValueError, match="free node"):
            explicit_stable_dt(disc2d.precomp, 0.0 * disc2d.chi_omega, Ml)
