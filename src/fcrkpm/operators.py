"""Convolution-form weak-form operators: forces, field evaluation, mass.

Every neighbor-loop summation of the Galerkin system is expressed as a
circular convolution on the extended periodic box and evaluated through the
cached kernel spectra.  No stiffness or mass matrix is ever materialized;
each operator is a fixed pipeline of elementwise products and transforms:

    internal force   f_int = chi o F^-1{ sum_p F(sum_ax Cax_p o Aax) o Fbar_p }
                     with Aax = sum_q bax_q o F^-1[F(chi o d) o Fa_q]
    external force   f_r   = chi o F^-1{ sum_p F(C0_p o r) o Fbar_p }
    field evaluation u_h   = sum_p (chi o b0_p) o F^-1[F(chi o d) o Fa_p]
    boundary force   f_q   = chi o F^-1{ sum_p F(chi o A o b0_p o q) o Fbar_p }
    mass term        f_m   = like f_int with b0/C0 in place of the gradient rows
    lumped mass      M_l   = chi o F^-1{ sum_p F(C0_p) o Fbar_p }

where Fa_p / Fbar_p are the cached spectra of the kernel-weighted monomial
fields and their reflections.  Transform counts are exact and fixed:
2(s+1) for the internal force and the mass term, s+1 for everything else.
Inputs are masked by chi inside each operator, so feeding a pre-masked
field changes nothing.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NonPositiveLumpedMassWarning
from .moment import MomentPrecomp
from .spectral import FFTProvider, forward, inverse

__all__ = [
    "internal_force",
    "external_force",
    "evaluate_field",
    "evaluate_gradient",
    "boundary_force",
    "nonlinear_force_gradient",
    "mass_force",
    "lumped_mass",
]


def internal_force(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Stiffness action K d as a single convolution pipeline (2(s+1) transforms)."""
    grid = precomp.grid
    grid.check_field(d, "d")
    table = precomp.table
    s = precomp.size
    d_hat = forward(precomp.chi * d, provider)
    acc = [np.zeros(grid.shape) for _ in range(precomp.dim)]
    for p in range(s):
        Dp = inverse(d_hat * table.hat_Ha[p], provider)
        for ax in range(precomp.dim):
            acc[ax] += precomp.bgrad[ax][p] * Dp
    B_hat = np.zeros(grid.shape, dtype=complex)
    for p in range(s):
        mixed = precomp.Cgrad[0][p] * acc[0]
        for ax in range(1, precomp.dim):
            mixed += precomp.Cgrad[ax][p] * acc[ax]
        B_hat += forward(mixed, provider) * table.hat_Hbar_a[p]
    return precomp.chi * inverse(B_hat, provider)


def external_force(
    r: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Load vector of a body source r (s+1 transforms)."""
    precomp.grid.check_field(r, "r")
    B_hat = np.zeros(precomp.grid.shape, dtype=complex)
    for p in range(precomp.size):
        B_hat += forward(precomp.C0[p] * r, provider) * precomp.table.hat_Hbar_a[p]
    return precomp.chi * inverse(B_hat, provider)


def evaluate_field(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Nodal values of the approximated field u_h from the coefficients
    (s+1 transforms).  Off-node evaluation is not supported on this path."""
    precomp.grid.check_field(d, "d")
    d_hat = forward(precomp.chi * d, provider)
    u = np.zeros(precomp.grid.shape)
    for p in range(precomp.size):
        u += precomp.chi_b0[p] * inverse(d_hat * precomp.table.hat_Ha[p], provider)
    return u


def evaluate_gradient(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> list[np.ndarray]:
    """Nodal implicit-gradient values of u_h, one field per axis."""
    precomp.grid.check_field(d, "d")
    d_hat = forward(precomp.chi * d, provider)
    out = [np.zeros(precomp.grid.shape) for _ in range(precomp.dim)]
    for p in range(precomp.size):
        Dp = inverse(d_hat * precomp.table.hat_Ha[p], provider)
        for ax in range(precomp.dim):
            out[ax] += precomp.bgrad[ax][p] * Dp
    return [precomp.chi * g for g in out]


def boundary_force(
    q: np.ndarray,
    area: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Flux boundary integral with the extension trick: q and the nodal
    boundary areas vanish off the boundary nodes, so the sum runs over the
    whole box (s+1 transforms)."""
    precomp.grid.check_field(q, "q")
    precomp.grid.check_field(area, "area")
    w = precomp.chi * area * q
    B_hat = np.zeros(precomp.grid.shape, dtype=complex)
    for p in range(precomp.size):
        B_hat += forward(w * precomp.b0[p], provider) * precomp.table.hat_Hbar_a[p]
    return precomp.chi * inverse(B_hat, provider)


def nonlinear_force_gradient(
    N_u_axes: list[np.ndarray],
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Projection of a vector nonlinearity against the implicit gradients
    (s+1 transforms)."""
    if len(N_u_axes) != precomp.dim:
        raise ValueError(
            f"need {precomp.dim} component fields, got {len(N_u_axes)}"
        )
    for g in N_u_axes:
        precomp.grid.check_field(g, "N_u")
    B_hat = np.zeros(precomp.grid.shape, dtype=complex)
    for p in range(precomp.size):
        mixed = precomp.Cgrad[0][p] * N_u_axes[0]
        for ax in range(1, precomp.dim):
            mixed += precomp.Cgrad[ax][p] * N_u_axes[ax]
        B_hat += forward(mixed, provider) * precomp.table.hat_Hbar_a[p]
    return precomp.chi * inverse(B_hat, provider)


def mass_force(
    d_dot: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Consistent-mass action M d_dot (2(s+1) transforms)."""
    precomp.grid.check_field(d_dot, "d_dot")
    d_hat = forward(precomp.chi * d_dot, provider)
    A0 = np.zeros(precomp.grid.shape)
    for p in range(precomp.size):
        A0 += precomp.b0[p] * inverse(d_hat * precomp.table.hat_Ha[p], provider)
    B_hat = np.zeros(precomp.grid.shape, dtype=complex)
    for p in range(precomp.size):
        B_hat += forward(precomp.C0[p] * A0, provider) * precomp.table.hat_Hbar_a[p]
    return precomp.chi * inverse(B_hat, provider)


def lumped_mass(
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Row sums of the consistent mass as a diagonal field (s+1 transforms).

    Warns when the result is non-positive at an active node, which signals
    a boundary-truncation pathology for explicit stepping.
    """
    B_hat = np.zeros(precomp.grid.shape, dtype=complex)
    for p in range(precomp.size):
        B_hat += forward(precomp.C0[p], provider) * precomp.table.hat_Hbar_a[p]
    Ml = precomp.chi * inverse(B_hat, provider)
    active = precomp.chi > 0.5
    if np.any(Ml[active] <= 0.0):
        idx = np.argwhere(active & (Ml <= 0.0))[0]
        warnings.warn(
            f"lumped mass {Ml[tuple(idx)]:.3e} <= 0 at active node "
            f"{tuple(idx)}; explicit stepping will be unstable there",
            NonPositiveLumpedMassWarning,
            stacklevel=2,
        )
    return Ml
