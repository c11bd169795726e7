"""Extension planning, lattice layout, masks, and quadrature weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrkpm import (
    boundary_face_weights,
    build_grid,
    build_masks,
    plan_extension,
    quadrature_weights,
)


class TestPlanExtension:
    def test_fix_count_1d(self):
        # L=2, a_tilde=1.5, N=64: m=1, l_e = 4/62 = 2/31, dx = (2+2/31)/64
        plan = plan_extension(2.0, 1.5, counts=64)
        assert plan.m == (1,)
        assert plan.extension[0] == pytest.approx(2.0 / 31.0, rel=1e-15)
        assert plan.spacing[0] == pytest.approx((2.0 + 2.0 / 31.0) / 64.0, rel=1e-15)

    def test_fix_spacing_integer_support(self):
        # a_tilde=2.0 floors to m=2, so l_e >= 3*dx; the minimal 43 nodes
        # grow to the next fast FFT size, 44
        dx = 0.05
        plan = plan_extension(2.0, 2.0, spacing=dx)
        assert plan.m == (2,)
        assert plan.extension[0] >= 3 * dx
        assert plan.extension[0] == pytest.approx(4 * dx, rel=1e-15)
        assert plan.counts == (44,)

    def test_fix_count_2d(self):
        # per-axis l_e = 4/254 at N=2^8
        plan = plan_extension((2.0, 2.0), 1.5, counts=(256, 256))
        for ext in plan.extension:
            assert ext == pytest.approx(4.0 / 254.0, rel=1e-15)

    def test_support_below_extension(self):
        for at in (1.0, 1.5, 2.0, 2.5, 3.7):
            plan = plan_extension(2.0, at, counts=64)
            assert plan.kernel_support[0] < plan.extension[0]

    def test_rejects_consumed_box(self):
        # m + 1 = 4 spacings of extension would leave nothing for the domain
        with pytest.raises(ValueError, match="too small"):
            plan_extension(2.0, 3.5, counts=4)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            plan_extension(-1.0, 1.5, counts=16)
        with pytest.raises(ValueError):
            plan_extension(2.0, 0.5, counts=16)
        with pytest.raises(ValueError):
            plan_extension(2.0, 1.5)

    def test_fix_spacing_indivisible(self):
        with pytest.raises(ValueError, match="does not divide"):
            plan_extension(2.0, 1.5, spacing=0.3)

    def test_fix_spacing_pads_to_fast_count(self):
        # 19 + (m+1) = 23 nodes minimum, a prime, grows to 24
        plan = plan_extension(2.0, 3.5, spacing=2.0 / 19.0)
        assert plan.extension[0] >= (plan.m[0] + 1) * plan.spacing[0]
        n = plan.counts[0]
        while n % 2 == 0:
            n //= 2
        while n % 3 == 0:
            n //= 3
        while n % 5 == 0:
            n //= 5
        assert n == 1  # 5-smooth


class TestBuildGrid:
    def test_1d_nodes(self):
        plan = plan_extension(2.0, 1.5, counts=64)
        grid = build_grid(plan, -1.0)
        ax = grid.axes()[0]
        assert ax[0] == -1.0
        assert ax[1] == pytest.approx(-1.0 + grid.spacing[0], rel=1e-15)

    def test_2d_node_coordinate(self):
        from fcrkpm.grid import PeriodicGrid

        grid = PeriodicGrid(x_min=(0.0, 0.0), length=(1.0, 1.0), counts=(4, 4))
        assert grid.node_coordinate((3, 3)) == (0.75, 0.75)

    def test_far_boundary_on_node(self):
        for N in (8, 12, 64, 100):
            plan = plan_extension(2.0, 1.5, counts=N)
            grid = build_grid(plan, -1.0)
            ax = grid.axes()[0]
            assert np.min(np.abs(ax - 1.0)) < 1e-12 * grid.length[0]


class TestWrapCoordinate:
    def test_examples(self):
        from fcrkpm.grid import PeriodicGrid

        grid = PeriodicGrid(x_min=(0.0,), length=(8.0,), counts=(8,))
        dx = grid.spacing[0]
        xi = grid.wrapped_offsets()[0]
        assert xi[0] == 0.0
        assert xi[7] == -dx
        # tie at exactly L/2 goes to the negative side
        assert xi[4] == -4.0

    @given(n=st.integers(4, 64), i=st.data())
    @settings(max_examples=50, deadline=None)
    def test_minimal_image(self, n, i):
        from fcrkpm.grid import PeriodicGrid

        grid = PeriodicGrid(x_min=(0.0,), length=(float(n),), counts=(n,))
        idx = i.draw(st.integers(0, n - 1))
        xi = grid.wrapped_offsets()[0][idx]
        assert -n / 2 <= xi < n / 2
        assert (xi - idx) % n == pytest.approx(0.0, abs=1e-12)

    def test_reflection_exact(self):
        from fcrkpm.grid import PeriodicGrid

        grid = PeriodicGrid(x_min=(0.0,), length=(2.3,), counts=(9,))
        xi = grid.wrapped_offsets()[0]
        for i in range(1, 9):
            assert xi[9 - i] == -xi[i]  # bitwise, both are integer * dx


class TestMasks:
    def test_box_masks_and_algebra(self, disc2d):
        chi, chi_g, chi_o = disc2d.chi, disc2d.chi_gamma_g, disc2d.chi_omega
        assert np.array_equal(chi * chi, chi)
        assert np.array_equal((1 - chi) * chi, np.zeros_like(chi))
        assert np.array_equal(chi_o + chi_g, chi)
        assert np.all(chi_g <= chi)

    def test_extension_nodes_outside(self, disc1d):
        grid = disc1d.grid
        x = grid.axes()[0]
        in_extension = x > 1.0 + 1e-9
        assert np.all(disc1d.chi[in_extension] == 0.0)

    def test_boundary_nodes_active(self, disc1d):
        # closure convention: Dirichlet nodes carry chi = 1
        x = disc1d.grid.axes()[0]
        i_left = int(np.argmin(np.abs(x + 1.0)))
        i_right = int(np.argmin(np.abs(x - 1.0)))
        assert disc1d.chi[i_left] == 1.0 and disc1d.chi[i_right] == 1.0
        assert disc1d.chi_gamma_g[i_left] == 1.0
        assert disc1d.chi_omega[i_right] == 0.0

    def test_gamma_outside_domain_rejected(self, disc1d):
        grid = disc1d.grid
        with pytest.raises(ValueError, match="outside"):
            build_masks(grid, lambda x: np.abs(x) <= 0.5, lambda x: x > 0.8)

    def test_periodic_special_case(self):
        plan = plan_extension(2.0, 1.5, counts=16)
        grid = build_grid(plan, -1.0)
        chi, _, _ = build_masks(grid, lambda x: np.ones_like(x, dtype=bool))
        assert np.all(chi == 1.0)


class TestBoundaryFaceWeights:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_face_areas_sum_to_the_side(self, disc2d, axis, side):
        face, area = boundary_face_weights(
            disc2d.grid, disc2d.chi, disc2d.case.bounds, axis, side
        )
        target = disc2d.case.bounds[axis][side == "hi"]
        on_face = np.abs(disc2d.grid.coordinates()[axis] - target) < 1e-9
        assert np.array_equal(face > 0.5, on_face & (disc2d.chi > 0.5))
        assert np.sum(area) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("axis,side", [(0, "low"), (0, "HI"), (0, None),
                                           (-1, "hi"), (2, "lo")])
    def test_bad_side_or_axis_rejected(self, disc2d, axis, side):
        # "low" used to give the hi face, and axis = -1 the right face with
        # its own axis weighted in: areas summing to 0.143 on this 16^2
        # box, not 2
        with pytest.raises(ValueError, match="side|axis"):
            boundary_face_weights(
                disc2d.grid, disc2d.chi, disc2d.case.bounds, axis, side
            )


class TestQuadratureWeights:
    def test_values_2d(self, disc2d):
        grid, chi, V = disc2d.grid, disc2d.chi, disc2d.V
        cell = grid.cell_volume
        X, Y = grid.coordinates()
        interior = (np.abs(X) < 1 - 1e-9) & (np.abs(Y) < 1 - 1e-9) & (chi > 0.5)
        edge = (chi > 0.5) & (
            ((np.abs(np.abs(X) - 1) < 1e-9) & (np.abs(Y) < 1 - 1e-9))
            | ((np.abs(np.abs(Y) - 1) < 1e-9) & (np.abs(X) < 1 - 1e-9))
        )
        corner = (np.abs(np.abs(X) - 1) < 1e-9) & (np.abs(np.abs(Y) - 1) < 1e-9)
        assert np.allclose(V[interior], cell)
        assert np.allclose(V[edge], cell / 2)
        assert np.allclose(V[corner], cell / 4)
        assert np.all(V[chi < 0.5] == 0.0)

    @pytest.mark.parametrize("dim,counts", [(1, 64), (2, 16), (3, 8)])
    def test_sums_to_volume(self, dim, counts, disc1d, disc2d, disc3d):
        disc = {1: disc1d, 2: disc2d, 3: disc3d}[dim]
        vol = 2.0**dim
        assert np.sum(disc.chi * disc.V) == pytest.approx(vol, rel=1e-12)

    def test_periodic_case_full_volume(self):
        plan = plan_extension(2.0, 1.5, counts=16)
        grid = build_grid(plan, -1.0)
        chi = np.ones(grid.shape)
        V = quadrature_weights(grid, chi)
        assert np.allclose(V, grid.cell_volume)
        assert np.sum(V) == pytest.approx(grid.length[0], rel=1e-12)
