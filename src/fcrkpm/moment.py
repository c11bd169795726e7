"""Moment matrices via FFT, nodewise inversion, and the b-row fields.

The moment matrix at an active node I is M_pq(x_I) = [chi (*) H_p H_q^a]_I,
a circular convolution of the domain mask with the kernel-weighted
monomial of the exponent sum alpha_p + alpha_q, so it depends on that sum
alone (Liu, Jun and Zhang 1995).  assemble_moment_fields keeps one field
per distinct sum, (D, *grid), unmasked since only active nodes are read,
and _exponent_sums indexes entry (p, q) into it.  Each integrand's
spectrum is a product of per-axis trig sums (basis.axis_sums,
basis.kept_spectrum), so the mask is transformed once and each sum costs
one inverse, 1 + D transforms; no integrand is evaluated on the grid
(basis.weighted_monomials, which does, is the oracle of `fcrkpm verify`).

One helper, _b_rows, inverts symmetric matrices given as a column table
M (K, n) and an (s, s) index, entry (p, q) of node J read as
M[index[p, q], J]: the (D, 1 + n_band) columns of M_c and the band with
_exponent_sums' index (invert_moments), or the direct-summation oracle's
(s, s, n) stack as (s^2, n) with the identity index (reference.py), so no
s x s stack is built from the D fields.  It runs an unpivoted LDL^T
factorization, one whole-slab operation per scalar step, over slabs of
the nodes, checks them, and writes their rows out, so the transient is
O(slab s^2) next to the rows.  No pivoting is needed: M is a Gram matrix,
sum_J chi_J phi(x_I - x_J) H(x_I - x_J) H(x_I - x_J)^T with a nonnegative
kernel, hence symmetric positive semidefinite, and definite once the node
sees enough neighbors, where LDL^T is backward stable without row
exchanges.

A node with too few neighbors shows up as a pivot |D_k| < 1e-14 max|M|
(SingularMomentError), an ill-conditioned one as an estimate
||M||_inf ||M^-1||_inf above 1e12 (IllConditionedMomentWarning).  Lattice
nodes with too few neighbors give exactly or nearly zero pivots, but a
generic dense rank-deficient matrix can keep its last pivot above the
threshold by rounding (a few percent of random rank-(s-1) Gram matrices);
every such case tried had a condition estimate above 1e16, so it is
reported by the warning, which stays a warning (tests/test_moment.py pins
that no such matrix passes silently).  The b-rows are the row extracts

    rows[0, p]      =  [M^-1]_{1p}         (shape function row b0)
    rows[1 + ax, p] = -[M^-1]_{2+ax, p}    (implicit-gradient rows bgrad)

Off a boundary band they are one constant.  An active node whose kernel
footprint (r_k = ceil(a_tilde) - 1 nodes per axis, wrapped) holds no
inactive node sees the full lattice stencil, so its moment matrix is the
interior one, M_c: the interior of the method is a pure convolution.  M_c is
derived, not sampled (interior_moments), and so is the band, from the
geometry alone (boundary_band, a periodic box dilation of the inactive
mask); invert_moments checks loudly that every active node off it carries
M_c to INTERIOR_RTOL relative (off_band_deviation, which `fcrkpm verify`
also records per cell).  Only the band nodes and M_c are inverted.  What
persists is

    c          (1 + d, s)            the rows of every off-band node
    band_rows  (1 + d, s, n_band)    the rows of the band nodes
    band       (n_band,)             their flat C-order node indices

next to chi and the quadrature weights, which are stored masked
(V = chi o V) so that no operator has to multiply by chi o V again.  The
operators read the rows only where chi or V is nonzero, so inactive nodes
carry c like the interior (the tests spread the layout over the grid to
compare it with the oracle).  The band grows with the surface and
with a_tilde (about 11.5 % of a 48^3 box at a_tilde = 1.5, 21 % at 2.5):
this part of the memory is not independent of the support size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisTable, _footprint_reach, axis_sums, kept_spectrum
from .errors import (
    IllConditionedMomentWarning,
    InteriorMomentError,
    SingularMomentError,
)
from .spectral import FFTProvider, forward, inverse

__all__ = [
    "MomentPrecomp",
    "assemble_moment_fields",
    "interior_moments",
    "boundary_band",
    "off_band_deviation",
    "invert_moments",
    "build_moment_precomp",
]

SINGULAR_PIVOT_RTOL = 1e-14
CONDITION_WARN = 1e12
# off-band moment matrices against the interior one, relative to max|M_c|;
# FFT rounding leaves them below 1e-15
INTERIOR_RTOL = 1e-12

# nodes per slab of the inversion in _b_rows; bounds its transient memory
_SLAB_NODES = 2048


@dataclass
class MomentPrecomp:
    """Persistent per-node arrays extracted from the inverse moment matrices.

    The b-rows are c, shaped (1 + d, s), at every node off the band, and
    band_rows, shaped (1 + d, s, n_band), at the flat C-order node indices
    band; row set 0 is b0, row sets 1..d are bgrad (module docstring).  V
    is the masked quadrature weight field (zero off the domain).  The grid
    is the table's.
    """

    table: BasisTable
    chi: np.ndarray
    V: np.ndarray
    c: np.ndarray
    band_rows: np.ndarray
    band: np.ndarray

    grid = property(lambda self: self.table.grid)

    @property
    def size(self) -> int:
        return self.table.size

    @property
    def dim(self) -> int:
        return self.grid.dim

    def persistent_nbytes(self) -> int:
        """Bytes held by the precomputed arrays (masks and weights included)."""
        return (
            self.chi.nbytes + self.V.nbytes + self.c.nbytes
            + self.band_rows.nbytes + self.band.nbytes
            + self.table.persistent_nbytes()
        )


def _exponent_sums(basis):
    """(sums, index): the distinct exponent sums alpha_p + alpha_q of a
    basis in order of first appearance over p <= q, and the symmetric
    (s, s) index of each pair's sum, so that M_pq = M[index[p, q]]."""
    exps = basis.exponents
    index = np.empty((basis.size, basis.size), dtype=np.intp)
    sums = {}
    for p in range(basis.size):
        for q in range(p, basis.size):
            alpha = tuple(a + b for a, b in zip(exps[p], exps[q]))
            index[p, q] = index[q, p] = sums.setdefault(alpha, len(sums))
    return list(sums), index


def assemble_moment_fields(
    chi: np.ndarray,
    table: BasisTable,
    provider: FFTProvider | None = None,
) -> np.ndarray:
    """The (D, *grid.shape) moment fields, one per exponent sum alpha of
    _exponent_sums: the mask spectrum times i^(|alpha| mod 2)
    kept_spectrum, inverse-transformed (1 forward transform and D
    inverses), unmasked."""
    grid = table.grid
    grid.check_field(chi, "chi")
    chi_hat = forward(chi, provider)
    spectra = axis_sums(grid, table.kernel, 2 * table.basis.degree)
    sums, _ = _exponent_sums(table.basis)
    M = np.empty((len(sums),) + grid.shape)
    for k, alpha in enumerate(sums):
        spectrum = chi_hat * kept_spectrum(spectra, alpha)
        if sum(alpha) % 2:
            spectrum *= 1j
        M[k] = inverse(spectrum, provider)
    return M


def _invert_symmetric(M: np.ndarray, index: np.ndarray):
    """Invert symmetric s x s matrices given as a column table.

    M has shape (K, n) and index (s, s): entry (p, q) of node J is
    M[index[p, q], J], so every entry is one contiguous field and no
    (s, s, n) stack is built.  It is factored as M = L D L^T without
    pivoting, reading the lower triangle, by one whole-field operation per
    scalar step:

        D_j  = M_jj - sum_{k<j} L_jk^2 D_k
        L_ij = (M_ij - sum_{k<j} L_ik L_jk D_k) / D_j          (i > j)

    then W = L^-1 replaces L row by row (W_ij = -L_ij - sum_{j<k<i}
    L_ik W_kj), and M^-1 = W^T D^-1 W, i.e. [M^-1]_pq = sum_{k>=q}
    W_kp W_kq / D_k for p <= q.  Only the strict lower triangles of L and
    W are stored.  Every division goes through a zero-safe denominator, so
    an exactly zero pivot (or an all-zero matrix) raises no RuntimeWarning;
    the caller rejects such a node by the returned pivot ratio.

    Returns:
        (inverse, min_pivot): the full inverse, shaped (s, s, n), and
        min_k |D_k| / max|M| per node (0 where M is all zeros).
    """
    s = len(index)
    L = {}  # (i, j) -> field for i > j
    D = np.empty((s, M.shape[1]))
    for j in range(s):
        LD = [L[j, k] * D[k] for k in range(j)]
        d = M[index[j, j]].copy()
        for k in range(j):
            d -= L[j, k] * LD[k]
        D[j] = d
        safe = np.where(d == 0.0, 1.0, d)
        for i in range(j + 1, s):
            v = M[index[i, j]].copy()
            for k in range(j):
                v -= L[i, k] * LD[k]
            L[i, j] = v / safe
    W = L
    for i in range(s):
        for j in range(i):
            v = -W[i, j]
            for k in range(j + 1, i):
                v -= W[i, k] * W[k, j]
            W[i, j] = v
    D_inv = 1.0 / np.where(D == 0.0, 1.0, D)
    inv = np.empty((s, s, M.shape[1]))
    for p in range(s):
        for q in range(p, s):
            v = D_inv[q] * (W[q, p] if q > p else 1.0)
            for k in range(q + 1, s):
                v += W[k, p] * W[k, q] * D_inv[k]
            inv[p, q] = v
            inv[q, p] = v
    scale = np.max(np.abs(M), axis=0)
    return inv, np.min(np.abs(D), axis=0) / np.where(scale == 0.0, 1.0, scale)


def _b_rows(M: np.ndarray, index: np.ndarray, dim: int, locate) -> np.ndarray:
    """Invert the moment matrices of the column table M (K, n), entry
    (p, q) of node J at M[index[p, q], J], check every matrix, and return
    the (1 + d, s, n) b-rows (module docstring).

    The n nodes are taken in slabs of _SLAB_NODES, so the transient memory
    is O(_SLAB_NODES s^2) next to the rows: each slab is factored, checked
    and written into the rows, and its inverse released, before the next.
    Slabs run in order, so the first singular slab holds the first
    singular node; the condition warning waits for the worst estimate over
    every slab.  locate maps the column of that node to the
    (node_index, coordinate) that SingularMomentError reports.  The
    degree-1 monomial of axis ax sits at 1 + ax in the graded basis order.
    """
    n = M.shape[1]
    rows = np.empty((1 + dim, len(index), n))
    worst = 0.0
    for start in range(0, n, _SLAB_NODES):
        slab = slice(start, start + _SLAB_NODES)
        Ms = M[:, slab]
        inv, min_pivot = _invert_symmetric(Ms, index)
        bad = min_pivot < SINGULAR_PIVOT_RTOL
        if np.any(bad):
            i = int(np.argmax(bad))
            scale = np.max(np.abs(Ms[:, i]))
            raise SingularMomentError(*locate(start + i), min_pivot[i] * scale)
        rows[..., slab] = inv[: 1 + dim]
        # ||M||_inf ||M^-1||_inf, the max row sum of |entries| per node;
        # |M^-1| overwrites the inverse, whose rows are already copied out
        inv_norm = np.abs(inv, out=inv).sum(axis=1).max(axis=0)
        del inv
        cond = np.abs(Ms)[index].sum(axis=1).max(axis=0) * inv_norm
        worst = max(worst, float(cond.max()))
    if worst > CONDITION_WARN:
        warnings.warn(
            f"moment matrix condition estimate up to {worst:.2e} at active "
            "nodes; results may lose accuracy",
            IllConditionedMomentWarning,
            stacklevel=3,
        )
    np.negative(rows[1:], out=rows[1:])
    return rows


def interior_moments(table: BasisTable) -> np.ndarray:
    """The (D,) moment values of a node whose footprint is all active, M_c
    per exponent sum: each integrand summed over the footprint offsets,
    its spectrum at theta = 0, the product of the per-axis sums r_m(0)
    (zero for odd m)."""
    spectra = axis_sums(table.grid, table.kernel, 2 * table.basis.degree,
                        [np.zeros(1)] * table.grid.dim)
    sums, _ = _exponent_sums(table.basis)
    return np.array([kept_spectrum(spectra, alpha).item() for alpha in sums])


def boundary_band(chi: np.ndarray, table: BasisTable) -> np.ndarray:
    """Flat C-order indices of the active nodes whose kernel footprint
    holds an inactive node, the only nodes whose moment matrix can differ
    from the interior one.

    A periodic dilation of the inactive mask by the footprint box
    (_footprint_reach) marks every node that some inactive node's footprint
    reaches.  The box is separable, so the dilation runs axis by axis, an
    OR of the 2r + 1 rolled masks of each axis.
    """
    active = chi > 0.5
    near = ~active
    for axis, r in enumerate(_footprint_reach(table.grid, table.kernel)):
        grown = near.copy()
        for shift in range(1, r + 1):
            grown |= np.roll(near, shift, axis)
            grown |= np.roll(near, -shift, axis)
        near = grown
    return np.flatnonzero(active & near)


def off_band_deviation(
    M: np.ndarray, chi: np.ndarray, band: np.ndarray, mc: np.ndarray
):
    """(deviation, worst): the max over the active nodes I off the band and
    the D sums k of |M[k](x_I) - mc[k]| / max|mc|, with mc the interior
    values (interior_moments), and the flat index of the node that attains
    it; (0.0, 0) when every active node lies on the band."""
    flat = M.reshape(len(mc), -1)
    worst = np.zeros(flat.shape[1])
    for field, value in zip(flat, mc):
        np.maximum(worst, np.abs(field - value), out=worst)
    off = chi.reshape(-1) > 0.5
    off[band] = False
    worst[~off] = 0.0
    i = int(np.argmax(worst))
    return float(worst[i] / np.max(np.abs(mc))), i


def invert_moments(
    M: np.ndarray,
    chi: np.ndarray,
    V: np.ndarray,
    table: BasisTable,
) -> MomentPrecomp:
    """Invert M_c (interior_moments) and the matrices of the moment fields
    M (D, *grid.shape) on the boundary band, in that order, and keep the
    b-rows in the band layout: c holds M_c's rows on every mask.

    The band is inverted in C order, so the first singular active node is
    the one reported.  A singular M_c is reported at the first active node:
    every active node's moment matrix sums a subset of M_c's positive
    semidefinite terms, so it is singular too.

    Raises:
        ValueError: basis degree 0 (no implicit-gradient rows).
        InteriorMomentError: an active node off the band whose moment
            matrix differs from M_c by more than INTERIOR_RTOL * max|M_c|.
        SingularMomentError: a node with chi = 1 has a pivot below
            1e-14 * max|M|, i.e. too few effective neighbors.

    Warns:
        IllConditionedMomentWarning: condition estimate above 1e12 at some
            active node.
    """
    grid = table.grid
    if table.basis.degree < 1:
        raise ValueError("the implicit-gradient rows need basis degree >= 1")

    def node(i):
        multi = tuple(int(k) for k in np.unravel_index(int(i), grid.shape))
        return multi, grid.node_coordinate(multi)

    band = boundary_band(chi, table)
    mc = interior_moments(table)
    deviation, worst = off_band_deviation(M, chi, band, mc)
    if deviation > INTERIOR_RTOL:
        raise InteriorMomentError(*node(worst), deviation)
    _, index = _exponent_sums(table.basis)
    cols = np.concatenate([mc[:, None], M.reshape(len(mc), -1)[:, band]], 1)
    at = np.concatenate([[np.argmax(chi > 0.5)], band])
    rows = _b_rows(cols, index, grid.dim, lambda i: node(at[i]))
    return MomentPrecomp(
        table=table, chi=chi, V=chi * V,
        c=rows[..., 0].copy(), band_rows=rows[..., 1:], band=band,
    )


def build_moment_precomp(
    chi: np.ndarray,
    V: np.ndarray,
    table: BasisTable,
    provider: FFTProvider | None = None,
) -> MomentPrecomp:
    """Assemble the moment fields, derive the boundary band, check the
    interior, and invert the band (invert_moments).

    The D moment fields are only needed here; afterwards the operators
    run on the spectra, one interior row constant and the band rows, which
    keeps the persistent memory at O(N s) for the spectra plus
    O(n_band (1 + d) s) for the rows.
    """
    M = assemble_moment_fields(chi, table, provider)
    return invert_moments(M, chi, V, table)
