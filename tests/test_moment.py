"""Moment assembly, nodewise inversion, and reproducing conditions."""

import numpy as np
import pytest

from fcrkpm import (
    KernelSpec,
    assemble_moment_fields,
    build_basis_table,
    build_grid,
    build_moment_precomp,
    enumerate_basis,
    evaluate_field,
    evaluate_gradient,
    invert_moments,
    plan_extension,
    quadrature_weights,
)
from fcrkpm.errors import SingularMomentError


def _setup_1d(n_nodes=16):
    plan = plan_extension(2.0, 1.5, counts=n_nodes)
    grid = build_grid(plan, -1.0)
    x = grid.axes()[0]
    chi = (x <= 1.0 + 1e-9).astype(float)
    basis = enumerate_basis(1, 1)
    kernel = KernelSpec(support=plan.kernel_support)
    table = build_basis_table(grid, basis, kernel)
    V = quadrature_weights(grid, chi)
    return grid, chi, V, table


class TestAssembly:
    def test_identity_outside_domain(self):
        grid, chi, V, table = _setup_1d()
        fields = assemble_moment_fields(chi, table)
        outside = chi < 0.5
        assert np.any(outside)
        assert np.allclose(fields[(0, 0)][outside], 1.0)
        assert np.allclose(fields[(1, 1)][outside], 1.0)
        assert np.allclose(fields[(0, 1)][outside], 0.0)

    def test_interior_values_1d(self):
        # interior node with neighbors at offsets {-dx, 0, +dx}:
        # M11 = 2*phi(dx) + phi(0) = 2*(4/81) + 54/81 = 62/81
        # M12 = 0 by odd symmetry, M22 = 2*dx^2*phi(dx) = 8*dx^2/81
        grid, chi, V, table = _setup_1d()
        fields = assemble_moment_fields(chi, table)
        dx = grid.spacing[0]
        mid = 5  # interior node of the physical domain
        assert fields[(0, 0)][mid] == pytest.approx(62.0 / 81.0, rel=1e-13)
        assert fields[(0, 1)][mid] == pytest.approx(0.0, abs=1e-15)
        assert fields[(1, 1)][mid] == pytest.approx(8.0 * dx**2 / 81.0, rel=1e-13)

    def test_matches_direct_sum_oracle(self, disc2d, ref2d):
        fields = assemble_moment_fields(disc2d.chi, disc2d.table)
        direct = ref2d.moment_fields_direct()
        for key, vals in direct.items():
            fc = ref2d.restrict(fields[key])
            scale = max(np.max(np.abs(vals)), 1e-300)
            assert np.max(np.abs(fc - vals)) < 1e-11 * scale

    def test_spd_at_active_nodes(self, disc2d):
        fields = assemble_moment_fields(disc2d.chi, disc2d.table)
        grid = disc2d.grid
        s = disc2d.table.size
        active = np.flatnonzero(grid.ravel(disc2d.chi) > 0.5)
        mats = np.empty((active.size, s, s))
        for p in range(s):
            for q in range(p, s):
                flat = grid.ravel(fields[(p, q)])[active]
                mats[:, p, q] = flat
                mats[:, q, p] = flat
        np.linalg.cholesky(mats)  # raises if any matrix is not SPD


class TestInversion:
    def test_identity_rows_outside(self):
        grid, chi, V, table = _setup_1d()
        precomp = build_moment_precomp(chi, V, table, release=False)
        outside = chi < 0.5
        assert np.allclose(precomp.b0[0][outside], 1.0)
        assert np.allclose(precomp.b0[1][outside], 0.0)
        assert np.allclose(precomp.bgrad[0][0][outside], 0.0)
        assert np.allclose(precomp.bgrad[0][1][outside], -1.0)
        assert np.all(precomp.V[outside] == 0.0)

    def test_interior_b0_1d(self):
        # the 2x2 moment matrix is diag(62/81, 8 dx^2/81), so b0 = [81/62, 0]
        grid, chi, V, table = _setup_1d()
        precomp = build_moment_precomp(chi, V, table, release=False)
        mid = 5
        assert precomp.b0[0][mid] == pytest.approx(81.0 / 62.0, rel=1e-12)
        assert precomp.b0[1][mid] == pytest.approx(0.0, abs=1e-12)

    def test_3d_quadratic_inverts(self, disc3d):
        # 27 neighbors suffice for s = 4; also check s = 10 with wider support
        assert disc3d.precomp.b0[0].shape == disc3d.grid.shape

    def test_matches_numpy_inverse(self, disc2d):
        fields = assemble_moment_fields(disc2d.chi, disc2d.table)
        grid = disc2d.grid
        s = disc2d.table.size
        mats = np.empty((grid.total_nodes, s, s))
        for p in range(s):
            for q in range(p, s):
                flat = grid.ravel(fields[(p, q)])
                mats[:, p, q] = flat
                mats[:, q, p] = flat
        inv_np = np.linalg.inv(mats)
        precomp = invert_moments(fields, disc2d.chi, disc2d.V, disc2d.table)
        for p in range(s):
            mine = grid.ravel(precomp.b0[p])
            assert np.max(np.abs(mine - inv_np[:, 0, p])) < 1e-12 * np.max(
                np.abs(inv_np[:, 0, :])
            )

    def test_ill_conditioned_warns(self):
        import warnings

        from fcrkpm.errors import IllConditionedMomentWarning

        grid, chi, V, table = _setup_1d()
        fields = assemble_moment_fields(chi, table)
        # squeeze the second diagonal towards singular (pivot still above
        # the 1e-14 threshold, condition estimate beyond 1e12)
        fields[(1, 1)] = np.where(chi > 0.5, 1e-13, fields[(1, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedMomentWarning):
                invert_moments(fields, chi, V, table)

    def test_singular_node_reported(self):
        # an isolated active node has 1 neighbor < s = 2: singular
        plan = plan_extension(2.0, 1.5, counts=16)
        grid = build_grid(plan, -1.0)
        x = grid.axes()[0]
        chi = np.zeros(grid.shape)
        chi[5] = 1.0
        basis = enumerate_basis(1, 1)
        table = build_basis_table(grid, basis, KernelSpec(plan.kernel_support))
        V = quadrature_weights(grid, chi)
        fields = assemble_moment_fields(chi, table)
        with pytest.raises(SingularMomentError) as err:
            invert_moments(fields, chi, V, table)
        assert err.value.node_index == (5,)
        assert err.value.coordinate[0] == pytest.approx(x[5])


class TestReproducingConditions:
    def test_partition_of_unity(self, disc2d):
        # sum_I Psi_I(x_J) = 1 at active nodes <=> u_h of d = 1 equals 1
        ones = np.ones(disc2d.grid.shape)
        u = evaluate_field(ones, disc2d.precomp)
        active = disc2d.chi > 0.5
        assert np.max(np.abs(u[active] - 1.0)) < 1e-10

    def test_linear_reproduction(self, disc2d):
        X, Y = disc2d.grid.coordinates()
        field = 0.7 * X - 0.3 * Y + 0.1
        u = evaluate_field(field, disc2d.precomp)
        active = disc2d.chi > 0.5
        assert np.max(np.abs(u[active] - field[active])) < 1e-9 * np.max(
            np.abs(field[active])
        )

    def test_gradient_consistency(self, disc2d):
        # implicit gradient of nodal samples of x is 1, of a constant is 0
        X, _ = disc2d.grid.coordinates()
        active = disc2d.chi > 0.5
        gx = evaluate_gradient(X, disc2d.precomp)[0]
        assert np.max(np.abs(gx[active] - 1.0)) < 1e-8
        g1 = evaluate_gradient(np.ones(disc2d.grid.shape), disc2d.precomp)[0]
        assert np.max(np.abs(g1[active])) < 1e-8


class TestMemoryStory:
    def test_released_table_blocks_reassembly(self):
        grid, chi, V, table = _setup_1d()
        build_moment_precomp(chi, V, table, release=True)
        assert table.H == []
        with pytest.raises(ValueError, match="released"):
            assemble_moment_fields(chi, table)

    def test_persistent_inventory_scales_with_s_and_d(self, disc2d):
        nbytes = disc2d.precomp.persistent_nbytes()
        n_total = disc2d.grid.total_nodes
        s, d = disc2d.table.size, disc2d.grid.dim
        # chi + V + (1 + d)s b-row fields + 2s real-equivalents of spectra
        expected_fields = 2 + (1 + d) * s + 2 * s
        # the fixture table still holds H and Ha (release=False)
        expected_fields += 2 * s
        assert nbytes == expected_fields * n_total * 8
