"""Integration coverage beyond the square manufactured cases: anisotropic
grids, shifted boxes, a non-box (disk) domain through the mask machinery,
a mixed Dirichlet/Neumann solve, and operator thread safety."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fcrkpm as fc
from fcrkpm import operators as ops
from fcrkpm.basis import KernelSpec, build_basis_table, enumerate_basis
from fcrkpm.grid import (
    boundary_face_weights,
    box_predicates,
    build_grid,
    build_masks,
    plan_extension,
    quadrature_weights,
)
from fcrkpm.moment import build_moment_precomp
from fcrkpm.reference import ReferenceModel
from fcrkpm.verify import oracle_checks, reproduction_checks

from conftest import failed, footprint_band


def _pipeline(plan, x_min, inside, on_gamma=None, n=1):
    grid = build_grid(plan, x_min)
    chi, chi_g, chi_o = build_masks(grid, inside, on_gamma)
    V = quadrature_weights(grid, chi)
    basis = enumerate_basis(n, grid.dim)
    kernel = KernelSpec(plan.kernel_support)
    table = build_basis_table(grid, basis, kernel)
    precomp = build_moment_precomp(chi, V, table)
    ref = ReferenceModel(grid, chi, V, basis, kernel, chi_g)
    return grid, chi, chi_g, chi_o, V, precomp, ref


@pytest.fixture(scope="module")
def aniso_setup():
    bounds = [(0.0, 1.0), (-2.0, 1.0)]
    plan = plan_extension((1.0, 3.0), (1.5, 2.5), counts=(32, 16))
    inside, on_gamma = box_predicates(bounds)
    return _pipeline(plan, (0.0, -2.0), inside, on_gamma)


@pytest.fixture(scope="module")
def disk_setup():
    plan = plan_extension((2.0, 2.0), 1.5, counts=(32, 32))
    inside = lambda x, y: x**2 + y**2 <= 0.8**2
    return _pipeline(plan, (-1.0, -1.0), inside)


def _mixed_pipeline(N):
    """[-1, 1]^2 with Dirichlet nodes on the x faces only."""
    plan = plan_extension((2.0, 2.0), 1.5, counts=(N, N))
    inside, _ = box_predicates([(-1.0, 1.0), (-1.0, 1.0)])
    tol = 1e-9

    def on_gamma(x, y):
        on_x_face = (np.abs(x - 1) <= tol) | (np.abs(x + 1) <= tol)
        return on_x_face & inside(x, y)

    return _pipeline(plan, (-1.0, -1.0), inside, on_gamma)


@pytest.fixture(scope="module")
def mixed_setup():
    return _mixed_pipeline(32)


@pytest.mark.parametrize("setup", ["aniso_setup", "disk_setup",
                                   "mixed_setup"])
def test_band_is_the_footprint_boundary(setup, request):
    # per-axis reach (1 and 2 nodes on the anisotropic box) and a curved
    # boundary: the band is exactly the nodes whose box footprint leaves chi
    grid, chi, _, _, _, precomp, _ = request.getfixturevalue(setup)
    support = precomp.table.kernel.support
    assert np.array_equal(precomp.band, footprint_band(chi, grid, support))


class TestAnisotropicShiftedBox:
    """Different counts, supports, and extents per axis on [0,1] x [-2,1]."""

    def test_volume(self, aniso_setup):
        _, chi, _, _, V, _, _ = aniso_setup
        assert np.sum(chi * V) == pytest.approx(3.0, rel=1e-12)

    def test_cross_method(self, aniso_setup, rng):
        *_, precomp, ref = aniso_setup
        assert not failed(oracle_checks(precomp, ref, rng, "aniso"))

    def test_linear_reproduction(self, aniso_setup):
        grid, chi, _, _, _, precomp, _ = aniso_setup
        X, Y = grid.coordinates()
        lin = 0.3 * X - 0.7 * Y + 0.2
        u = ops.evaluate_field(lin, precomp)
        active = chi > 0.5
        assert np.max(np.abs(u[active] - lin[active])) < 1e-9 * np.max(
            np.abs(lin[active])
        )

    def test_neighbor_stencil_anisotropic(self, aniso_setup):
        # 3 nodes per axis at a_tilde=1.5 and 5 at 2.5 make 15 interior
        _, _, _, _, _, _, ref = aniso_setup
        assert np.max(ref.find_neighbors().counts) == 15


class TestDiskDomain:
    """A disk embedded in the box: the masks carry all the geometry."""

    def test_masks_follow_geometry(self, disk_setup):
        grid, chi, _, _, V, _, _ = disk_setup
        X, Y = grid.coordinates()
        assert np.all(chi[X**2 + Y**2 > 0.8**2 + 1e-9] == 0.0)
        # staircase volume lands near pi r^2 (first-order geometric error)
        assert abs(np.sum(chi * V) - np.pi * 0.64) < 0.25

    def test_cross_method(self, disk_setup, rng):
        *_, precomp, ref = disk_setup
        assert not failed(oracle_checks(precomp, ref, rng, "disk"))

    def test_reproducing_conditions(self, disk_setup):
        *_, precomp, _ = disk_setup
        assert not failed(reproduction_checks(precomp))


class TestMixedBoundaryConditions:
    """u = (1 - x^2) + x y: Dirichlet on the x faces, fluxes on the y faces.

    Strong coefficient freezing plus nodal boundary quadrature costs some
    convergence rate relative to the clean zero-data cases; the check is a
    robust factor-2 error drop per refinement, not the full quadratic band.
    """

    def _solve(self, N):
        bounds = [(-1.0, 1.0), (-1.0, 1.0)]
        grid, chi, chi_g, chi_o, V, precomp, _ = _mixed_pipeline(N)
        X, Y = grid.coordinates()
        exact = (1 - X**2) + X * Y
        rhs = ops.external_force(chi * (2.0 + 0.0 * X), precomp)
        for side, sign in (("hi", 1.0), ("lo", -1.0)):
            face, area = boundary_face_weights(grid, chi, bounds, 1, side)
            rhs = rhs + ops.boundary_force(face * sign * X, area, precomp)
        _, u_h, report = fc.solve_static_linear(
            precomp, chi_o, rhs, dirichlet=chi_g * exact,
            config=fc.SolverConfig(tol=1e-12),
        )
        assert report.converged
        active = chi > 0.5
        return float(
            np.max(np.abs(u_h[active] - exact[active]))
            / np.max(np.abs(exact[active]))
        )

    def test_converges_under_refinement(self):
        e32 = self._solve(32)
        e64 = self._solve(64)
        assert e32 < 0.02
        assert e32 / e64 > 2.0


class TestThreadSafety:
    def test_concurrent_operator_calls(self, disc2d, rng):
        fields = [
            disc2d.chi * rng.standard_normal(disc2d.grid.shape)
            for _ in range(8)
        ]
        serial = [ops.internal_force(d, disc2d.precomp) for d in fields]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda d: ops.internal_force(d, disc2d.precomp), fields)
            )
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)
