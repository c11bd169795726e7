"""Convolution-form weak-form operators: forces, field evaluation, mass.

Every neighbor-loop summation of the Galerkin system is a circular
convolution on the extended periodic box, evaluated through the cached
spectra F_a,p = c_p hat_Ha[p] of the kernel-weighted monomial fields,
where hat_Ha is real and c_p is 1 for even |alpha_p| and i for odd
(basis.py).  No stiffness or mass matrix is ever materialized.  Every
operator is a composition of two primitives over one or more row sets (b0,
or the d implicit-gradient rows bgrad):

    gather   G_row   = sum_p row_p o F^-1[c_p F(chi o d) o hat_Ha[p]]
                       (1 forward + s inverse transforms)
    scatter  S(f, w, row) = chi o F^-1{ sum_even hat_Ha[p] o F(m_p)
                                        - i sum_odd hat_Ha[p] o F(m_p) },
                       m_p = sum_k row_k,p o f_k o w
                       (s forward + 1 inverse transforms)

Both take their k row sets as a slice of the 1 + d row sets of the
precomp's band layout (moment.py): the whole box is contracted with the
interior constant c as one (k x s)(s x N) matrix product, and the band
nodes are then overwritten from their own rows, gathered and written by
flat index.  Inactive nodes carry c, which is harmless: every gather
result reaches the output through chi or V and every mixed field carries
V or chi, all zero there.  The gather stacks its s inverse transforms,
even entries first, then F(chi o d) times i once, in place, for the odd
ones.  The scatter weights its s mixed fields by w in place, sums the odd
terms first and multiplies that sum by -i once.  Spectrum products are
taken in place on fresh transforms, and each inverse transform consumes
its input.

The scatter is the correlation with the reflected fields H_p^a(-xi); since
the kernel is even, their spectrum is (-1)^|alpha_p| F_a,p (exact, see
basis.py), so no reflected array is stored.  For odd entries that sign
and c_p = i make the factor -i above.  With the masked quadrature
weights V (V = 0 off the domain):

    internal force   f_int = S(G_bgrad, V, bgrad)
    external force   f_r   = S(r, V, b0)
    field evaluation u_h   = chi o G_b0
    gradient         g     = chi o G_bgrad
    boundary force   f_q   = S(A o q, chi, b0)
    gradient force   f_N   = S(N, V, bgrad)
    mass term        f_m   = S(G_b0, V, b0)
    lumped mass      M_l   = S(chi, V, b0)

A weak form that mixes the two row sets is one gather over both, a
pointwise weighting of its rows and one scatter (_form); the scatter is
linear in its row sets, so the terms add inside it:

    w0 M + w1 K      f     = S((w0 G_b0, w1 G_bgrad), V, b0 + bgrad)

with w0 a scalar (backward Euler: 1/dt, nu) or a field (the Newton
Jacobian: N'(u_h), 1), or N(u_h) in place of w0 G_b0 (the nonlinear
residual f_int + f_ext(N(u_h))).  G_b0 stands in for u_h = chi o G_b0
because V vanishes wherever chi does.  The internal force and the mass
term are its one-row-set cases, K = (None, 1) and M = (1, None).

Transform counts are exact and fixed: 2(s+1) for the internal force, the
mass term and every mixed form, s+1 for everything else.  Inputs are
masked by chi inside each operator, so feeding a pre-masked field changes
nothing.
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

# the row sets of the band layout: b0, and the d implicit-gradient rows
B0 = slice(0, 1)
BGRAD = slice(1, None)


def _gather(d, rows: slice, precomp: MomentPrecomp, provider) -> np.ndarray:
    """sum_p row_k,p o F^-1[c_p F(chi o d) o hat_Ha[p]] for the row sets
    k in `rows`, one field per row set."""
    hat_Ha = precomp.table.hat_Ha
    even, odd = precomp.table.parity_split
    d_hat = forward(precomp.chi * d, provider)
    G = np.empty(hat_Ha.shape)
    for p in even:
        G[p] = inverse(d_hat * hat_Ha[p], provider)
    d_hat *= 1j
    for p in odd:
        G[p] = inverse(d_hat * hat_Ha[p], provider)
    G = G.reshape(len(G), -1)
    band = precomp.band
    out = precomp.c[rows] @ G
    on_band = np.einsum(
        "kpb,pb->kb", precomp.band_rows[rows], G.take(band, axis=1)
    )
    for o, b in zip(out, on_band):
        o[band] = b
    return out.reshape((-1,) + hat_Ha.shape[1:])


def _scatter(fields, w, rows: slice, precomp: MomentPrecomp, provider):
    """chi o F^-1{sum_p (-1)^|alpha_p| c_p hat_Ha[p] o F(m_p)},
    m_p = w o sum_k row_k,p o fields[k] over the row sets k in `rows`."""
    hat_Ha = precomp.table.hat_Ha
    even, odd = precomp.table.parity_split
    f = fields.reshape(len(fields), -1)
    c, band = precomp.c[rows], precomp.band
    # (s x k)(k x N); matmul runs the k = 1 outer product slowly
    m = np.multiply.outer(c[0], f[0]) if len(f) == 1 else c.T @ f
    on_band = np.einsum(
        "kpb,kb->pb", precomp.band_rows[rows], f.take(band, axis=1)
    )
    for mp, b in zip(m, on_band):
        mp[band] = b
    m *= w.reshape(-1)
    m = m.reshape(hat_Ha.shape)
    B_hat = None
    for p in odd + even:  # odd is never empty: the degree is at least 1
        F = forward(m[p], provider)
        F *= hat_Ha[p]
        if p == even[0]:
            B_hat *= -1j
        B_hat = F if B_hat is None else np.add(B_hat, F, out=B_hat)
    return precomp.chi * inverse(B_hat, provider)


def _form(d, w0, w1, precomp: MomentPrecomp, provider):
    """(w0 M + w1 K) d in one gather and one scatter (2(s+1) transforms),
    and u_h = chi o G_b0 when w0 is callable (else None).

    A weight that is None drops its row set from both, and one that is the
    scalar 1 runs no weighting pass.  w1 is a scalar; it scales G_bgrad.
    w0 is a scalar or a field, which scales G_b0 in place (N'(u_h) gives
    the Newton Jacobian), or a callable N, whose N(u_h) replaces G_b0 (the
    residual f_int(d) + f_ext(N(u_h)) at w1 = 1).
    """
    rows = slice(0 if w0 is not None else 1, 1 if w1 is None else None)
    G = _gather(d, rows, precomp, provider)
    u = None
    if callable(w0):
        u = precomp.chi * G[0]
        G[0] = w0(u)
    elif np.ndim(w0) or w0 not in (None, 1):
        G[0] *= w0
    if w1 not in (None, 1):
        G[int(w0 is not None):] *= w1
    return _scatter(G, precomp.V, rows, precomp, provider), u


def internal_force(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Stiffness action K d (2(s+1) transforms)."""
    precomp.grid.check_field(d, "d")
    return _form(d, None, 1.0, precomp, provider)[0]


def external_force(
    r: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Load vector of a body source r (s+1 transforms)."""
    precomp.grid.check_field(r, "r")
    return _scatter(r[None], precomp.V, B0, precomp, provider)


def evaluate_field(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Nodal values of the approximated field u_h from the coefficients
    (s+1 transforms).  Off-node evaluation is not supported on this path."""
    precomp.grid.check_field(d, "d")
    return precomp.chi * _gather(d, B0, precomp, provider)[0]


def evaluate_gradient(
    d: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> list[np.ndarray]:
    """Nodal implicit-gradient values of u_h, one field per axis."""
    precomp.grid.check_field(d, "d")
    return list(precomp.chi * _gather(d, BGRAD, precomp, provider))


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
        (area * q)[None], precomp.chi, B0, precomp, provider
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
        np.stack(N_u_axes), precomp.V, BGRAD, precomp, provider
    )


def mass_force(
    d_dot: np.ndarray,
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Consistent-mass action M d_dot (2(s+1) transforms)."""
    precomp.grid.check_field(d_dot, "d_dot")
    return _form(d_dot, 1.0, None, precomp, provider)[0]


def lumped_mass(
    precomp: MomentPrecomp,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """Row sums of the consistent mass as a diagonal field (s+1 transforms).

    Warns when the result is non-positive at an active node, which signals
    a boundary-truncation pathology for explicit stepping.
    """
    Ml = _scatter(
        precomp.chi[None], precomp.V, B0, precomp, provider
    )
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
