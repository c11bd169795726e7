"""Manufactured Poisson problems, error norms, and the setup harness.

Three manufactured cases on the box [-1, 1]^d with homogeneous Dirichlet
data, exact solutions prod_k (1 - x_k^2), and the matching sources for
-lap(u) = r, derived from u as r = sum_k 2 prod_{j != k} (1 - x_j^2):

    1D: u = 1 - x^2,                  r = 2
    2D: u = (1-x^2)(1-y^2),           r = 4 - 2x^2 - 2y^2
    3D: u = (1-x^2)(1-y^2)(1-z^2),    r = 2[3 - 2(x^2+y^2+z^2)
                                             + x^2 y^2 + x^2 z^2 + y^2 z^2]

Errors are the normalized nodal l2 and l-infinity norms restricted to the
active nodes; in 1D a continuous L2 norm is also available, integrated cell
by cell with 5-point Gauss quadrature using the off-node reference shape
functions.  Convergence rates come from a least-squares fit of log(e)
against log(h) over the SLOPE_POINTS finest points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .basis import KernelSpec, enumerate_basis, build_basis_table
from .grid import (
    box_predicates,
    build_grid,
    build_masks,
    plan_extension,
    quadrature_weights,
)
from .moment import MomentPrecomp, build_moment_precomp

if TYPE_CHECKING:  # the oracle (and scipy.sparse) loads on first use only
    from .reference import ReferenceModel

__all__ = [
    "ManufacturedCase",
    "poisson_case",
    "ErrorReport",
    "nodal_errors",
    "continuous_l2_error_1d",
    "convergence_slope",
    "Discretization",
    "discretize",
]

# convergence rates are fitted over this many of the finest points
SLOPE_POINTS = 3


@dataclass(frozen=True)
class ManufacturedCase:
    """The case poisson-<dim>d on the box [-1, 1]^dim with zero Dirichlet
    data: the exact solution prod_k (1 - x_k^2) and its load -lap(u), both
    derived for any dim (the module docstring lists them)."""

    dim: int

    name = property(lambda self: f"poisson-{self.dim}d")
    bounds = property(lambda self: [(-1.0, 1.0)] * self.dim)

    @staticmethod
    def exact(*coords):
        u = 1.0 - coords[0] ** 2
        for x in coords[1:]:
            u = u * (1.0 - x**2)
        return u

    @staticmethod
    def source(*coords):
        """-lap of exact: sum_k 2 prod_{j != k} (1 - x_j^2)."""
        two = np.full(np.broadcast(*coords).shape, 2.0)
        f = [1.0 - x**2 for x in coords]
        return sum(math.prod(f[:k] + f[k + 1:], start=two)
                   for k in range(len(f)))

    @staticmethod
    def dirichlet(*coords):
        return np.zeros(coords[0].shape)


def poisson_case(dim: int) -> ManufacturedCase:
    """The manufactured case poisson-<dim>d, dim in {1, 2, 3}."""
    if dim not in (1, 2, 3):
        raise ValueError(f"no manufactured case for dim {dim}")
    return ManufacturedCase(dim)


@dataclass
class ErrorReport:
    e_l2: float
    e_linf: float


def nodal_errors(u_h, exact_field, chi) -> ErrorReport:
    """Normalized nodal errors restricted to the active nodes."""
    active = chi > 0.5
    diff = u_h[active] - exact_field[active]
    ref_sq = float(np.sum(exact_field[active] ** 2))
    ref_max = float(np.max(np.abs(exact_field[active])))
    if ref_sq == 0.0 or ref_max == 0.0:
        raise ValueError("exact solution vanishes on the active nodes")
    return ErrorReport(
        e_l2=float(np.sqrt(np.sum(diff**2) / ref_sq)),
        e_linf=float(np.max(np.abs(diff)) / ref_max),
    )


def continuous_l2_error_1d(d, exact, model: ReferenceModel) -> float:
    """sqrt of the integral of |u_h - u|^2 over the 1D domain.

    u_h is reconstructed off-node from the coefficients through the
    reference shape functions; the integral uses 5 Gauss points per
    inter-node cell.
    """
    if model.grid.dim != 1:
        raise ValueError("continuous norm is implemented in 1D only")
    d_omega = model.restrict(d)
    xs = model.coords[:, 0]
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(5)
    total = 0.0
    for left, right in zip(xs[:-1], xs[1:]):
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        for gx, gw in zip(gauss_x, gauss_w):
            x = mid + half * gx
            ids, psi, _ = model.shape_functions_at([x])
            u_h = float(psi @ d_omega[ids])
            total += gw * half * (u_h - float(exact(np.asarray(x)))) ** 2
    return float(np.sqrt(total))


def convergence_slope(h, e) -> float:
    """Least-squares slope of log(e) vs log(h) over the SLOPE_POINTS
    finest points, which must be SLOPE_POINTS distinct h."""
    h = np.asarray(h, dtype=float)
    e = np.asarray(e, dtype=float)
    if h.size != e.size or h.size < SLOPE_POINTS:
        raise ValueError("need at least as many (h, e) pairs as fit points")
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("h and e must be positive for a log-log fit")
    order = np.argsort(h)
    h, e = h[order][:SLOPE_POINTS], e[order][:SLOPE_POINTS]
    if np.unique(h).size < h.size:
        raise ValueError(f"the fit points repeat an h: {h.tolist()}")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


@dataclass
class Discretization:
    """Everything a solver run needs, assembled from a manufactured case.

    The grid, the basis table (with its basis and kernel), chi and the
    masked quadrature weights V are the precomp's own; chi_omega is
    chi - chi_gamma_g, the nodes the solvers update.
    """

    case: ManufacturedCase
    chi_gamma_g: np.ndarray
    precomp: MomentPrecomp
    r: np.ndarray
    exact_field: np.ndarray
    dirichlet: np.ndarray

    grid = property(lambda self: self.precomp.grid)
    table = property(lambda self: self.precomp.table)
    basis = property(lambda self: self.precomp.table.basis)
    kernel = property(lambda self: self.precomp.table.kernel)
    chi = property(lambda self: self.precomp.chi)
    V = property(lambda self: self.precomp.V)
    chi_omega = property(lambda self: self.chi - self.chi_gamma_g)

    @property
    def n_omega(self) -> int:
        return int(np.count_nonzero(self.chi))

    def reference(self) -> ReferenceModel:
        from .reference import ReferenceModel

        return ReferenceModel(
            self.grid, self.chi, self.V, self.basis, self.kernel,
            self.chi_gamma_g,
        )


def _plan_case(case: ManufacturedCase, a_tilde, counts=None, spacing=None):
    """The extension plan of the case's box (grid.plan_extension: pure, no
    array is built), as discretize takes it."""
    lengths = tuple(hi - lo for lo, hi in case.bounds)
    return plan_extension(lengths, a_tilde, counts=counts, spacing=spacing)


def discretize(
    case: ManufacturedCase,
    *,
    n: int = 1,
    a_tilde=1.5,
    counts=None,
    spacing=None,
    provider=None,
) -> Discretization:
    """Build grid, masks, weights, basis table, and moment precomputation.

    `counts` selects fix-count extension (total nodes per axis, FFT-friendly
    powers of two recommended); `spacing` selects fix-spacing.
    """
    dim = case.dim
    plan = _plan_case(case, a_tilde, counts, spacing)
    grid = build_grid(plan, tuple(lo for lo, _ in case.bounds))
    inside, on_gamma = box_predicates(case.bounds)
    chi, chi_g, _ = build_masks(grid, inside, on_gamma)
    V = quadrature_weights(grid, chi)
    kernel = KernelSpec(support=plan.kernel_support)
    table = build_basis_table(grid, enumerate_basis(n, dim), kernel)
    precomp = build_moment_precomp(chi, V, table, provider)
    coords = grid.coordinates()
    return Discretization(
        case=case,
        chi_gamma_g=chi_g,
        precomp=precomp,
        r=chi * case.source(*coords),
        exact_field=case.exact(*coords),
        dirichlet=chi_g * case.dirichlet(*coords),
    )
