"""Convolution-form weak-form operators: forces, field evaluation, mass.

Every neighbor-loop summation of the Galerkin system is a circular
convolution on the extended periodic box, evaluated through the cached
spectra F_a,p = F(H_p^a) of the kernel-weighted monomial fields.  No
stiffness or mass matrix is ever materialized.  Every operator is a
composition of two primitives over one or more row sets (b0, or the d
implicit-gradient rows bgrad):

    gather   G_row   = sum_p row_p o F^-1[F(chi o d) o F_a,p]
                       (1 forward + s inverse transforms)
    scatter  S(f, row) = chi o F^-1{ sum_p (-1)^|alpha_p| F_a,p
                                    o F(sum_k row_k,p o f_k) }
                       (s forward + 1 inverse transforms)

Both take their k row sets stacked, as one (k, s, *grid) slice of
precomp.rows, and the scatter takes its k fields as one (k, *grid) array.
Per basis entry p they read the single view rows[:, p] and do one
broadcast multiply-add over all k row sets; the scatter's mixed field is
one .sum(axis=0).  The transform counts above do not depend on k.

The scatter is the correlation with the reflected fields H_p^a(-xi); since
the kernel is even, their spectrum is the parity-signed F_a,p (exact, see
basis.py), so no reflected array is stored.  With the masked quadrature
weights V (V = 0 off the domain):

    internal force   f_int = S(V o G_bgrad, bgrad)
    external force   f_r   = S(V o r, b0)
    field evaluation u_h   = chi o G_b0
    gradient         g     = chi o G_bgrad
    boundary force   f_q   = S(chi o A o q, b0)
    gradient force   f_N   = S(V o N, bgrad)
    mass term        f_m   = S(V o G_b0, b0)
    lumped mass      M_l   = S(V, b0)

Transform counts are exact and fixed: 2(s+1) for the internal force and
the mass term, s+1 for everything else.  Inputs are masked by chi inside
each operator, so feeding a pre-masked field changes nothing.
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


def _gather(d, rows, precomp: MomentPrecomp, provider) -> np.ndarray:
    """sum_p rows[:, p] o F^-1[F(chi o d) o F_a,p], one field per row set."""
    d_hat = forward(precomp.chi * d, provider)
    out = np.zeros((len(rows),) + precomp.grid.shape)
    for p, spectrum in enumerate(precomp.table.hat_Ha):
        out += rows[:, p] * inverse(d_hat * spectrum, provider)
    return out


def _scatter(fields, rows, precomp: MomentPrecomp, provider) -> np.ndarray:
    """chi o F^-1{sum_p (-1)^|alpha_p| F(sum_k rows[k, p] o fields[k]) o F_a,p}."""
    table = precomp.table
    B_hat = np.zeros(precomp.grid.shape, dtype=complex)
    for p, (alpha, spectrum) in enumerate(zip(table.basis.exponents, table.hat_Ha)):
        term = forward((rows[:, p] * fields).sum(axis=0), provider) * spectrum
        if sum(alpha) % 2:
            B_hat -= term
        else:
            B_hat += term
    return precomp.chi * inverse(B_hat, provider)


def internal_force(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Stiffness action K d (2(s+1) transforms)."""
    precomp.grid.check_field(d, "d")
    fields = precomp.V * _gather(d, precomp.bgrad, precomp, provider)
    return _scatter(fields, precomp.bgrad, precomp, provider)


def external_force(
    r: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Load vector of a body source r (s+1 transforms)."""
    precomp.grid.check_field(r, "r")
    return _scatter((precomp.V * r)[None], precomp.rows[:1], precomp, provider)


def evaluate_field(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Nodal values of the approximated field u_h from the coefficients
    (s+1 transforms).  Off-node evaluation is not supported on this path."""
    precomp.grid.check_field(d, "d")
    return precomp.chi * _gather(d, precomp.rows[:1], precomp, provider)[0]


def evaluate_gradient(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> list[np.ndarray]:
    """Nodal implicit-gradient values of u_h, one field per axis."""
    precomp.grid.check_field(d, "d")
    return list(precomp.chi * _gather(d, precomp.bgrad, precomp, provider))


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
    return _scatter(
        (precomp.chi * area * q)[None], precomp.rows[:1], precomp, provider
    )


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
    return _scatter(
        precomp.V * np.stack(N_u_axes), precomp.bgrad, precomp, provider
    )


def mass_force(
    d_dot: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Consistent-mass action M d_dot (2(s+1) transforms)."""
    precomp.grid.check_field(d_dot, "d_dot")
    fields = precomp.V * _gather(d_dot, precomp.rows[:1], precomp, provider)
    return _scatter(fields, precomp.rows[:1], precomp, provider)


def lumped_mass(
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Row sums of the consistent mass as a diagonal field (s+1 transforms).

    Warns when the result is non-positive at an active node, which signals
    a boundary-truncation pathology for explicit stepping.
    """
    Ml = _scatter(precomp.V[None], precomp.rows[:1], precomp, provider)
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
