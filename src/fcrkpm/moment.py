"""Masked moment matrices via FFT, nodewise inversion, and the b-row fields.

The moment matrix at node I is

    M_pq(x_I) = (1 - chi_I) delta_pq + chi_I [chi (*) H_p H_q^a]_I,

i.e. a circular convolution of the domain mask with the monomial-pair
kernels; the (1 - chi) identity block outside the domain exists only so the
inverse is defined everywhere (its rows are masked away downstream).  The
s x s matrix at every node is inverted by partial-pivot Gauss-Jordan
elimination, batched over nodes, and only the row extracts survive:

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

from .basis import BasisTable
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

    The mask spectrum is computed once and reused for all s(s+1)/2 pairs.
    """
    grid = table.grid
    grid.check_field(chi, "chi")
    if not table.H:
        raise ValueError("basis table real arrays were released; rebuild it")
    s = table.size
    chi_hat = forward(chi, provider)
    fields = {}
    for p in range(s):
        for q in range(p, s):
            conv = inverse(chi_hat * forward(table.H[p] * table.Ha[q], provider),
                           provider)
            m = chi * conv
            if p == q:
                m = m + (1.0 - chi)
            fields[(p, q)] = m
    return fields


def _batched_gauss_jordan(mats: np.ndarray, scale: np.ndarray):
    """Invert a (B, s, s) stack by Gauss-Jordan with partial pivoting.

    Returns (inverses, min_pivot_per_batch).  Pivots are tracked against the
    per-matrix scale so the caller can flag singular nodes.
    """
    B, s, _ = mats.shape
    aug = np.concatenate(
        [mats, np.broadcast_to(np.eye(s), (B, s, s)).copy()], axis=2
    )
    batch = np.arange(B)
    min_pivot = np.full(B, np.inf)
    for k in range(s):
        rel = np.argmax(np.abs(aug[:, k:, k]), axis=1)
        piv_row = k + rel
        swap = piv_row != k
        if np.any(swap):
            rows_k = aug[batch[swap], k].copy()
            aug[batch[swap], k] = aug[batch[swap], piv_row[swap]]
            aug[batch[swap], piv_row[swap]] = rows_k
        pivots = aug[:, k, k]
        min_pivot = np.minimum(min_pivot, np.abs(pivots) / scale)
        safe = np.where(pivots == 0.0, 1.0, pivots)
        aug[:, k, :] /= safe[:, None]
        factors = aug[:, :, k].copy()
        factors[:, k] = 0.0
        aug -= factors[:, :, None] * aug[:, k, None, :]
    return aug[:, :, s:], min_pivot


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
    n_nodes = grid.total_nodes
    mats = np.empty((n_nodes, s, s))
    for p in range(s):
        for q in range(p, s):
            flat = grid.ravel(moment_fields[(p, q)])
            mats[:, p, q] = flat
            mats[:, q, p] = flat
    scale = np.max(np.abs(mats), axis=(1, 2))
    inv, min_pivot = _batched_gauss_jordan(mats, scale)

    chi_flat = grid.ravel(chi) > 0.5
    bad = chi_flat & (min_pivot < SINGULAR_PIVOT_RTOL)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        multi = grid.multi_index(idx)
        raise SingularMomentError(
            multi, grid.node_coordinate(multi), min_pivot[idx] * scale[idx]
        )
    cond = (
        np.max(np.sum(np.abs(mats), axis=2), axis=1)
        * np.max(np.sum(np.abs(inv), axis=2), axis=1)
    )
    if np.any(chi_flat & (cond > CONDITION_WARN)):
        worst = float(np.max(cond[chi_flat]))
        warnings.warn(
            f"moment matrix condition estimate up to {worst:.2e} at active "
            "nodes; results may lose accuracy",
            IllConditionedMomentWarning,
            stacklevel=2,
        )

    # stored C-contiguous like every field the transforms return: mixing
    # memory orders in the operators' products made internal_force ~15%
    # slower at 2D 64^2
    def row_field(v):
        return np.ascontiguousarray(grid.unravel(v))

    b0 = [row_field(inv[:, 0, p]) for p in range(s)]
    # row 1 + ax is the degree-1 monomial of axis ax in the graded order
    bgrad = [[row_field(-inv[:, 1 + ax, p]) for p in range(s)] for ax in range(d)]
    return MomentPrecomp(
        grid=grid, table=table, chi=chi, V=chi * V, b0=b0, bgrad=bgrad
    )


def build_moment_precomp(
    chi: np.ndarray,
    V: np.ndarray,
    table: BasisTable,
    provider: FFTProvider | None = None,
    release: bool = True,
) -> MomentPrecomp:
    """Assemble, invert, and (by default) release the transient arrays.

    The s(s+1)/2 moment fields and the real-space basis arrays are only
    needed here; afterwards the operators run on the spectra and the b-row
    fields alone, which is what keeps the persistent memory at O(N*s).
    """
    fields = assemble_moment_fields(chi, table, provider)
    precomp = invert_moments(fields, chi, V, table)
    if release:
        table.release_real()
    return precomp
