"""Basis enumeration, kernel profile, row layout, and the adjusted arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrkpm import (
    KernelSpec,
    build_basis_table,
    discretize,
    enumerate_basis,
    eval_kernel_1d,
    poisson_case,
    weighted_monomials,
)
from fcrkpm import verify
from fcrkpm.basis import monomial
from fcrkpm.grid import build_grid, plan_extension
from fcrkpm.moment import _b_rows
from fcrkpm.spectral import CountingFFTProvider, forward
from fcrkpm.verify import spectra_check


class TestEnumerateBasis:
    @pytest.mark.parametrize(
        "n,d,s", [(1, 3, 4), (2, 3, 10), (1, 2, 3), (0, 1, 1), (3, 2, 10)]
    )
    def test_sizes(self, n, d, s):
        basis = enumerate_basis(n, d)
        assert basis.size == s
        assert basis.size == math.comb(n + d, d)

    def test_2d_linear_tuples(self):
        basis = enumerate_basis(1, 2)
        assert basis.exponents == ((0, 0), (1, 0), (0, 1))

    def test_2d_quadratic_order(self):
        # 1, x, y, x^2, xy, y^2
        basis = enumerate_basis(2, 2)
        assert basis.exponents == (
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        )

    def test_3d_quadratic_order(self):
        # 1, x, y, z, x^2, xy, xz, y^2, yz, z^2
        basis = enumerate_basis(2, 3)
        assert basis.exponents == (
            (0, 0, 0),
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        )

    @given(n=st.integers(0, 4), d=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_graded_ordering(self, n, d):
        basis = enumerate_basis(n, d)
        degrees = [sum(a) for a in basis.exponents]
        assert degrees == sorted(degrees)
        assert len(set(basis.exponents)) == basis.size


class TestKernel:
    def test_center(self):
        assert eval_kernel_1d(0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_branch_agreement_at_half(self):
        # both polynomial branches evaluated independently at z = 1/2:
        # 2/3 - 4/4 + 4/8 = 1/6 and 4/3 - 2 + 1 - 4/24 = 1/6
        z = 0.5
        inner = 2.0 / 3.0 - 4.0 * z**2 + 4.0 * z**3
        outer = 4.0 / 3.0 - 4.0 * z + 4.0 * z**2 - (4.0 / 3.0) * z**3
        assert inner == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert outer == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert eval_kernel_1d(0.5, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_vanishing_outside_support(self):
        assert eval_kernel_1d(1.0, 1.0) == 0.0
        assert eval_kernel_1d(1.5, 1.0) == 0.0
        assert np.all(eval_kernel_1d(np.linspace(1, 5, 20), 1.0) == 0.0)

    def test_monotone_nonincreasing(self):
        z = np.linspace(0.0, 1.0, 400)
        vals = eval_kernel_1d(z, 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_c2_at_breakpoints(self):
        # centered finite differences across z = 1/2 and z = 1
        h = 1e-5
        for z0 in (0.5, 1.0):
            f = lambda z: eval_kernel_1d(z, 1.0)
            d_left = (f(z0) - f(z0 - h)) / h
            d_right = (f(z0 + h) - f(z0)) / h
            assert d_left == pytest.approx(d_right, abs=1e-4)
            dd_left = (f(z0) - 2 * f(z0 - h) + f(z0 - 2 * h)) / h**2
            dd_right = (f(z0 + 2 * h) - 2 * f(z0 + h) + f(z0)) / h**2
            assert dd_left == pytest.approx(dd_right, abs=1e-3)

    def test_value_at_two_thirds(self):
        # used by the frozen moment-matrix values: phi(z=2/3) = 4/81
        assert eval_kernel_1d(2.0 / 3.0, 1.0) == pytest.approx(4.0 / 81.0, rel=1e-14)


class TestRowLayout:
    """The moment inversion reads the shape-function row at 0 and the
    implicit-gradient row of axis ax at 1 + ax."""

    def test_value_and_gradient_rows(self):
        for d in (1, 2, 3):
            for n in (1, 2, 3):
                exps = enumerate_basis(n, d).exponents
                assert exps[0] == (0,) * d
                for ax in range(d):
                    unit = tuple(int(k == ax) for k in range(d))
                    assert exps[1 + ax] == unit

    def test_degree_zero_rejected(self):
        # degree 0 has no gradient rows, so the inversion refuses it
        with pytest.raises(ValueError, match="degree >= 1"):
            discretize(poisson_case(2), n=0, counts=16)


def _invert_constant(n, d):
    """Run the row helper of invert_moments on one well-conditioned SPD
    moment matrix M at every node of an 8^d lattice, as the (s^2, 8^d)
    column table with the identity index; return inv(M) and the
    (1 + d, s, 8^d) rows."""
    s = enumerate_basis(n, d).size
    A = np.random.default_rng(7).standard_normal((s, s))
    M = A @ A.T + s * np.eye(s)
    cols = np.repeat(M.reshape(s * s, 1), 8**d, axis=1)
    rows = _b_rows(cols, np.arange(s * s).reshape(s, s), d,
                   lambda i: ((i,), (i,)))
    return np.linalg.inv(M), rows


class TestSelectors:
    """The b-rows apply the value selector e_1 and the gradient selector
    -e_(1+ax) to the inverse moment matrix."""

    def test_gradient_selector_2d(self):
        basis = enumerate_basis(1, 2)
        assert basis.exponents[1] == (1, 0)
        assert basis.exponents[2] == (0, 1)
        minv, rows = _invert_constant(1, 2)
        bgrad = rows[1:]
        for ax, sel in enumerate(([0, -1, 0], [0, 0, -1])):
            row = minv @ np.array(sel, dtype=float)
            for p in range(basis.size):
                np.testing.assert_allclose(
                    bgrad[ax][p], row[p], rtol=1e-12, atol=1e-15
                )

    def test_gradient_selector_3d_z(self):
        basis = enumerate_basis(1, 3)
        assert basis.exponents[3] == (0, 0, 1)
        minv, rows = _invert_constant(1, 3)
        row = minv @ np.array([0, 0, 0, -1], dtype=float)
        bgrad = rows[1:]
        for p in range(basis.size):
            np.testing.assert_allclose(
                bgrad[2][p], row[p], rtol=1e-12, atol=1e-15
            )

    def test_value_selector(self):
        basis = enumerate_basis(2, 2)
        assert basis.exponents[0] == (0, 0)
        assert all(sum(a) > 0 for a in basis.exponents[1:])
        minv, rows = _invert_constant(2, 2)
        e1 = np.zeros(basis.size)
        e1[0] = 1.0
        row = minv @ e1
        b0 = rows[0]
        for p in range(basis.size):
            np.testing.assert_allclose(
                b0[p], row[p], rtol=1e-12, atol=1e-15
            )


def _table_1d(n_nodes=16, a_tilde=1.5, degree=1):
    plan = plan_extension(2.0, a_tilde, counts=n_nodes)
    grid = build_grid(plan, -1.0)
    basis = enumerate_basis(degree, 1)
    kernel = KernelSpec(support=plan.kernel_support)
    return grid, build_basis_table(grid, basis, kernel)


def _Ha(table):
    """The kernel-weighted basis fields H_p^a behind the table's spectra."""
    return list(
        weighted_monomials(table.grid, table.kernel, table.basis.exponents)
    )


class TestBasisTable:
    def test_center_value(self):
        _, table = _table_1d()
        Ha = _Ha(table)
        assert Ha[0][0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_wrap_value_last_node(self):
        grid, table = _table_1d()
        Ha = _Ha(table)
        dx = grid.spacing[0]
        a = 1.5 * dx
        expected = -dx * eval_kernel_1d(dx, a)
        assert Ha[1][-1] == pytest.approx(expected, rel=1e-14)

    def test_reflection_of_linear_entry(self):
        # the reflection Hbar_a(xi) = Ha(-xi) at node 1 is Ha at node N-1,
        # which for the odd linear monomial is the sign-flipped Ha at node 1
        _, table = _table_1d()
        Ha = _Ha(table)
        assert Ha[1][-1] == -Ha[1][1]
        assert Ha[1][1] != 0.0

    def test_reflection_identity_everywhere(self):
        # the index reflection Ha[-i mod N] is the parity-signed Ha, bit for
        # bit, which is what lets the operators derive the reflected spectra
        for dim in (1, 2, 3):
            for n_nodes in (9, 10):  # odd, and even with the L/2 tie
                plan = plan_extension((2.0,) * dim, 1.5, counts=(n_nodes,) * dim)
                grid = build_grid(plan, (-1.0,) * dim)
                kernel = KernelSpec(support=plan.kernel_support)
                for degree in (0, 1, 2):
                    basis = enumerate_basis(degree, dim)
                    table = build_basis_table(grid, basis, kernel)
                    Ha = _Ha(table)
                    reflect = np.ix_(*[(-np.arange(n)) % n for n in grid.shape])
                    for p, alpha in enumerate(basis.exponents):
                        ha = Ha[p]
                        sign = (-1.0) ** sum(alpha)
                        assert np.array_equal(ha[reflect], sign * ha)

    def test_compact_support(self):
        grid, table = _table_1d(n_nodes=32, a_tilde=1.5)
        Ha = _Ha(table)
        xi = grid.wrapped_offsets()[0]
        outside = np.abs(xi) >= 1.5 * grid.spacing[0]
        for p in range(table.size):
            assert np.all(Ha[p][outside] == 0.0)

    def test_odd_symmetry_sum(self):
        grid, table = _table_1d(n_nodes=32, degree=2)
        Ha = _Ha(table)
        for p, alpha in enumerate(table.basis.exponents):
            if sum(alpha) % 2 == 1:
                bound = 1e-12 * grid.counts[0] * np.max(np.abs(Ha[p]))
                assert abs(np.sum(Ha[p])) <= bound

    def test_support_exceeding_half_period_rejected(self):
        plan = plan_extension(2.0, 1.5, counts=16)
        grid = build_grid(plan, -1.0)
        basis = enumerate_basis(1, 1)
        too_wide = KernelSpec(support=(grid.length[0] / 2,))
        with pytest.raises(ValueError, match="half the box"):
            build_basis_table(grid, basis, too_wide)

    def test_corner_copy_equivalence_2d(self):
        """Minimal-image wrapping equals the literal 2^d corner-block
        construction: evaluate the centered function shifted to each box
        corner, masked to that corner's quadrant."""
        plan = plan_extension((2.0, 2.0), 1.5, counts=(8, 8))
        grid = build_grid(plan, (-1.0, -1.0))
        basis = enumerate_basis(1, 2)
        kernel = KernelSpec(support=plan.kernel_support)
        table = build_basis_table(grid, basis, kernel)
        Ha = _Ha(table)

        Nx, Ny = grid.counts
        dx, dy = grid.spacing
        X = np.arange(Nx)[:, None] * dx * np.ones((1, Ny))
        Y = np.ones((Nx, 1)) * np.arange(Ny)[None, :] * dy
        Lx, Ly = grid.length
        corners = [(0.0, 0.0), (Lx, 0.0), (0.0, Ly), (Lx, Ly)]

        def quadrant_mask(cx, cy):
            mx = (X < Lx / 2) if cx == 0.0 else (X >= Lx / 2)
            my = (Y < Ly / 2) if cy == 0.0 else (Y >= Ly / 2)
            return mx & my

        for p, alpha in enumerate(basis.exponents):
            rebuilt = np.zeros(grid.shape)
            for cx, cy in corners:
                shifted = (X - cx, Y - cy)
                phi = eval_kernel_1d(shifted[0], kernel.support[0]) * eval_kernel_1d(
                    shifted[1], kernel.support[1]
                )
                rebuilt += quadrant_mask(cx, cy) * monomial(shifted, alpha) * phi
            assert np.max(np.abs(rebuilt - Ha[p])) < 1e-14 * max(
                np.max(np.abs(Ha[p])), 1.0
            )

    def test_spectra_transform_weighted_fields(self):
        # hat_Ha[p] is the real part of F(H_p^a) for even |alpha_p| and the
        # imaginary part for odd, in one real array; it is derived in
        # closed form, so it matches the transform to rounding, and the
        # part it drops is rounding noise
        _, table = _table_1d(degree=2)
        assert table.hat_Ha.dtype == np.float64
        assert table.parity_split == ((0, 2), (1,))
        odd = table.parity_split[1]
        for p, (hat, ha) in enumerate(zip(table.hat_Ha, _Ha(table), strict=True)):
            spectrum = forward(ha)
            kept, dropped = spectrum.real, spectrum.imag
            if p in odd:
                kept, dropped = dropped, kept
            scale = np.abs(kept).max()
            assert np.abs(hat - kept).max() <= 1e-15 * scale
            assert np.abs(dropped).max() <= 1e-14 * scale
        assert table.persistent_nbytes() == sum(h.nbytes for h in table.hat_Ha)

    @pytest.mark.parametrize(
        "lengths,a_tilde,counts,n",
        [((2.0,), 1.5, 32, 1), ((2.0,), 2.5, 32, 2),
         ((2.0, 2.0), 1.5, 32, 1), ((2.0, 2.0), 2.5, 32, 2),
         ((2.0,) * 3, 1.5, 16, 1), ((2.0,) * 3, 2.5, 16, 2),
         ((1.0, 3.0), (1.5, 2.5), (32, 16), 2),
         ((2.0, 2.0), 2.0, 32, 2), ((2.0,) * 3, 2.0, 16, 1)],
        ids=["1d-n1", "1d-n2", "2d-n1", "2d-n2", "3d-n1", "3d-n2",
             "anisotropic", "2d-whole-a", "3d-whole-a"],
    )
    def test_closed_form_spectra_match_the_fft(self, lengths, a_tilde,
                                               counts, n):
        # both parity components of every entry, against the FFT of the
        # weighted fields, relative to max|kept|; a whole-number a_tilde
        # puts a kernel zero on a lattice node, which the reach leaves out
        plan = plan_extension(lengths, a_tilde, counts=counts)
        grid = build_grid(plan, tuple(-L / 2 for L in lengths))
        basis = enumerate_basis(n, grid.dim)
        table = build_basis_table(grid, basis, KernelSpec(plan.kernel_support))
        assert spectra_check(table, "cell")["error"] <= 1e-15

    def test_build_runs_no_transform(self):
        # the whole setup runs the moment stack's 1 + D transforms (D = 35
        # distinct exponent sums in 3D at n = 2) and nothing else
        prov = CountingFFTProvider()
        discretize(poisson_case(3), n=2, a_tilde=2.5, counts=16,
                   provider=prov)
        assert (prov.forward_count, prov.inverse_count) == (1, 35)

    def test_parity_split_3d_quadratic(self):
        # 1 | x y z | x^2 xy xz y^2 yz z^2: odd exactly at degree 1
        basis = enumerate_basis(2, 3)
        plan = plan_extension((2.0, 2.0, 2.0), 1.5, counts=8)
        grid = build_grid(plan, (-1.0, -1.0, -1.0))
        table = build_basis_table(grid, basis, KernelSpec(plan.kernel_support))
        assert table.parity_split == ((0, 4, 5, 6, 7, 8, 9), (1, 2, 3))

    def test_non_even_weighted_field_fails_spectra_check(self, monkeypatch):
        # a field shifted off the origin is neither even nor odd, so its
        # spectrum has both components; the closed form cannot produce one,
        # so verify's FFT oracle is what must refuse it, by measured error
        _, table = _table_1d(degree=1)
        clean = verify.weighted_monomials

        def shifted(*args):
            for field in clean(*args):
                yield np.roll(field, 1)

        assert spectra_check(table, "clean")["passed"]
        monkeypatch.setattr(verify, "weighted_monomials", shifted)
        check = spectra_check(table, "shifted")
        assert not check["passed"]
        assert check["tolerance"] < check["error"] < float("inf")
