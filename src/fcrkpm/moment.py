"""Masked moment matrices via FFT, nodewise inversion, and the b-row fields.

The moment matrix at node I is

    M_pq(x_I) = (1 - chi_I) delta_pq + chi_I [chi (*) H_p H_q^a]_I,

i.e. a circular convolution of the domain mask with the monomial-pair
kernels; the (1 - chi) identity block outside the domain exists only so the
inverse is defined everywhere (its rows are masked away downstream).  The
integrand H_p H_q^a is the kernel-weighted monomial of the exponent sum
alpha_p + alpha_q, so it is generated from grid, basis and kernel
(basis.weighted_monomials) rather than stored, and pairs with equal sums
share one convolution: one forward and one inverse transform per distinct
sum, against a mask spectrum computed once.

The s x s matrices are stacked node-last, (s, s, *grid.shape), and all
inverted at once by an unpivoted LDL^T factorization that takes one
whole-field operation per scalar step.  No pivoting is needed: on the
domain M is a Gram matrix, sum_J chi_J phi(x_I - x_J) H(x_I - x_J)
H(x_I - x_J)^T with a nonnegative kernel, hence symmetric positive
semidefinite, and positive definite once the node sees enough neighbors,
where LDL^T is backward stable without row exchanges; off the domain it is
the identity.  A node with too few neighbors shows up as a pivot
|D_k| < 1e-14 max|M| (SingularMomentError), an ill-conditioned one as an
estimate ||M||_inf ||M^-1||_inf above 1e12 (IllConditionedMomentWarning).
Lattice nodes with too few neighbors give exactly or nearly zero pivots,
but a generic dense rank-deficient matrix can keep its last pivot above
the threshold by rounding (13 of 200 random rank-3 4 x 4 Gram matrices);
every such case tried still tripped the condition warning.  Only the row
extracts survive:

    b0_p = [M^-1]_{1p}    (shape function row)
    bx_p = -[M^-1]_{2p}   (implicit-gradient rows, one per axis)
    ...

Only these (1 + d) s row fields persist, next to chi and the quadrature
weights, which are stored masked (V = chi o V) so that no operator has to
multiply by chi o V again.  Products such as chi o V o b0_p are formed
inside the operators, on the fly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisTable, weighted_monomials
from .errors import IllConditionedMomentWarning, SingularMomentError
from .grid import PeriodicGrid
from .spectral import FFTProvider, forward, inverse

__all__ = [
    "MomentPrecomp",
    "assemble_moment_fields",
    "invert_moments",
    "build_moment_precomp",
]

SINGULAR_PIVOT_RTOL = 1e-14
CONDITION_WARN = 1e12


@dataclass
class MomentPrecomp:
    """Persistent per-node arrays extracted from the inverse moment matrices.

    Lists are indexed by basis entry p; bgrad is indexed [axis][p].  V is
    the masked quadrature weight field (zero off the domain).
    """

    grid: PeriodicGrid
    table: BasisTable
    chi: np.ndarray
    V: np.ndarray
    b0: list[np.ndarray]
    bgrad: list[list[np.ndarray]]

    @property
    def size(self) -> int:
        return self.table.size

    @property
    def dim(self) -> int:
        return self.grid.dim

    def persistent_nbytes(self) -> int:
        """Bytes held by the precomputed arrays (masks and weights included)."""
        arrays = [self.chi, self.V] + self.b0
        for rows in self.bgrad:
            arrays += rows
        return sum(a.nbytes for a in arrays) + self.table.persistent_nbytes()


def assemble_moment_fields(
    chi: np.ndarray,
    table: BasisTable,
    provider: FFTProvider | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Per-(p, q) moment fields, upper triangle only (M is symmetric).

    One convolution per distinct exponent sum alpha_p + alpha_q, i.e.
    1 + 2 * (number of distinct sums) transforms; off-diagonal pairs with
    equal sums share the same array.
    """
    grid = table.grid
    grid.check_field(chi, "chi")
    exps = table.basis.exponents
    pairs_by_sum = {}
    for p in range(table.size):
        for q in range(p, table.size):
            alpha = tuple(a + b for a, b in zip(exps[p], exps[q]))
            pairs_by_sum.setdefault(alpha, []).append((p, q))
    chi_hat = forward(chi, provider)
    integrands = weighted_monomials(grid, table.kernel, pairs_by_sum)
    fields = {}
    for pairs, integrand in zip(pairs_by_sum.values(), integrands):
        m = chi * inverse(chi_hat * forward(integrand, provider), provider)
        for p, q in pairs:
            fields[(p, q)] = m + (1.0 - chi) if p == q else m
    return fields


def _invert_symmetric(M: np.ndarray):
    """Invert a stack of symmetric s x s matrices, node axes last.

    M has shape (s, s, *nodes), so every M[p, q] is one contiguous field.
    It is factored as M = L D L^T without pivoting, by one whole-field
    operation per scalar step:

        D_j  = M_jj - sum_{k<j} L_jk^2 D_k
        L_ij = (M_ij - sum_{k<j} L_ik L_jk D_k) / D_j          (i > j)

    then W = L^-1 replaces L row by row (W_ij = -L_ij - sum_{j<k<i}
    L_ik W_kj), and M^-1 = W^T D^-1 W, i.e. [M^-1]_pq = sum_{k>=q}
    W_kp W_kq / D_k for p <= q.  Only the strict lower triangles of L and
    W are stored.  Every division goes through a zero-safe denominator, so
    an exactly zero pivot raises no RuntimeWarning; the caller rejects such
    a node by the returned pivot ratio.

    Returns:
        (inverse, min_pivot): the full inverse, shaped like M, and
        min_k |D_k| / max|M| per node.
    """
    s = M.shape[0]
    L = {}  # (i, j) -> field for i > j
    D = np.empty(M.shape[1:])
    for j in range(s):
        LD = [L[j, k] * D[k] for k in range(j)]
        d = M[j, j].copy()
        for k in range(j):
            d -= L[j, k] * LD[k]
        D[j] = d
        safe = np.where(d == 0.0, 1.0, d)
        for i in range(j + 1, s):
            v = M[i, j].copy()
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
    inv = np.empty_like(M)
    for p in range(s):
        for q in range(p, s):
            v = D_inv[q] * (W[q, p] if q > p else 1.0)
            for k in range(q + 1, s):
                v += W[k, p] * W[k, q] * D_inv[k]
            inv[p, q] = v
            inv[q, p] = v
    scale = np.max(np.abs(M), axis=(0, 1))
    return inv, np.min(np.abs(D), axis=0) / scale


def invert_moments(
    moment_fields: dict[tuple[int, int], np.ndarray],
    chi: np.ndarray,
    V: np.ndarray,
    table: BasisTable,
) -> MomentPrecomp:
    """Invert the per-node moment matrices and extract the b-row fields.

    Raises:
        SingularMomentError: a node with chi = 1 has a pivot below
            1e-14 * max|M|, i.e. too few effective neighbors.

    Warns:
        IllConditionedMomentWarning: condition estimate above 1e12 at some
            active node.
    """
    grid = table.grid
    s = table.size
    d = grid.dim
    if table.basis.degree < 1:
        raise ValueError(
            "the implicit-gradient rows need basis degree >= 1"
        )
    mats = np.empty((s, s) + grid.shape)
    for p in range(s):
        for q in range(p, s):
            mats[p, q] = mats[q, p] = moment_fields[(p, q)]
    inv, min_pivot = _invert_symmetric(mats)

    active = chi > 0.5
    bad = active & (min_pivot < SINGULAR_PIVOT_RTOL)
    if np.any(bad):
        multi = tuple(int(i) for i in np.argwhere(bad)[0])
        scale = np.max(np.abs(mats[(Ellipsis, *multi)]))
        raise SingularMomentError(
            multi, grid.node_coordinate(multi), min_pivot[multi] * scale
        )
    cond = np.max(np.sum(np.abs(mats), axis=1), axis=0) * np.max(
        np.sum(np.abs(inv), axis=1), axis=0
    )
    if np.any(active & (cond > CONDITION_WARN)):
        worst = float(np.max(cond[active]))
        warnings.warn(
            f"moment matrix condition estimate up to {worst:.2e} at active "
            "nodes; results may lose accuracy",
            IllConditionedMomentWarning,
            stacklevel=2,
        )

    # copies (the negation copies too): views would keep the whole
    # (s, s, *grid.shape) inverse alive
    b0 = [inv[0, p].copy() for p in range(s)]
    # row 1 + ax is the degree-1 monomial of axis ax in the graded order
    bgrad = [[-inv[1 + ax, p] for p in range(s)] for ax in range(d)]
    return MomentPrecomp(
        grid=grid, table=table, chi=chi, V=chi * V, b0=b0, bgrad=bgrad
    )


def build_moment_precomp(
    chi: np.ndarray,
    V: np.ndarray,
    table: BasisTable,
    provider: FFTProvider | None = None,
) -> MomentPrecomp:
    """Assemble and invert the moment matrices.

    The s(s+1)/2 moment fields are only needed here; afterwards the
    operators run on the spectra and the b-row fields alone, which is what
    keeps the persistent memory at O(N*s).
    """
    fields = assemble_moment_fields(chi, table, provider)
    return invert_moments(fields, chi, V, table)
