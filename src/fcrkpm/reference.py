"""Traditional direct-summation RKPM on the bounded domain.

This is the correctness oracle for the convolution path and the benchmark
counterpart.  It holds explicit neighbor lists and computes shape function
and implicit-gradient values neighbor by neighbor.  Only the stiffness is
assembled, with the classic nested-loop structure: one loop over
quadrature points, their neighbors inside, O(N*M^2) work.  Every other
direct term (forces, field and gradient evaluation, the consistent-mass
action, the lumped mass) is an O(N*M) product with the CSR shape matrices.

The active (chi = 1) nodes are numbered in numpy's C order, the order of
``field[chi > 0.5]``, so restrict and extend are a boolean mask and no
other linearization exists.  Neighbors come from one node-major table,
(n_nodes, n_offsets) local ids with -1 for an inactive lattice node,
built once per model with one np.roll per stencil offset.  Offsets are
enumerated in C order, so each table row is already sorted by local id
whenever no support crosses the periodic seam (the extension guarantees
that for every mask inside the physical box).  The table gives the
neighbor lists, and its 0/1 validity pattern gives the per-node moment
sums (one product with the per-offset basis products) and the shape
values, which are stored as CSR matrices Psi and B_ax that all share the
neighbor table's int32 index arrays.  Field evaluation and forces are
then sparse products with them.

The moment matrices form the node-last stack (s, s, n_nodes), and
moment._b_rows inverts, checks and reads out their rows, taking the stack
as the column table (s^2, n_nodes) with the identity index (_stack_rows),
as it does for the single matrix of an off-node query.  H and phi
come from basis.monomial and basis.eval_kernel.

The stiffness assembly keeps its explicit per-node loop of outer-product
blocks: it is the O(N*M^2) neighbor work the paper's method avoids, and it
is what the performance comparison times.  Each block lands in one dense
node-major array over the box of two supports, whose columns are a second
neighbor table over that box.

Quadrature is direct nodal integration over the same nodes and trapezoid
weights as the convolution path, which is what lets the two paths agree to
rounding.  Off-node evaluation (needed for the continuous 1D error norm) is
provided by `shape_functions_at`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import (BasisIndex, KernelSpec, _footprint_reach, eval_kernel,
                    monomial)
from .grid import PeriodicGrid
from .moment import _b_rows

__all__ = ["NeighborTable", "ReferenceModel"]


def _box(reach) -> np.ndarray:
    """The lattice offsets o with |o_k| <= reach_k on every axis, (n, d) in
    C order (row-major over the axes, last axis fastest)."""
    reach = np.asarray(reach)
    return np.indices(2 * reach + 1).reshape(len(reach), -1).T - reach


def _indptr(keep: np.ndarray) -> np.ndarray:
    """int32 CSR row pointers of a node-major (n_nodes, k) keep pattern."""
    indptr = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return indptr


def _stack_rows(stack: np.ndarray, dim: int, locate) -> np.ndarray:
    """moment._b_rows of a node-last (s, s, n) stack, read as the column
    table (s^2, n) through the identity index: entry (p, q) is the stack's
    own stack[p, q]."""
    s = len(stack)
    return _b_rows(stack.reshape(s * s, -1), np.arange(s * s).reshape(s, s),
                   dim, locate)


@dataclass
class NeighborTable:
    """Ragged per-node neighbor lists in CSR layout, int32 throughout.

    ids[indptr[i]:indptr[i+1]] are the neighbors of node i (self included)
    in offset order, which is sorted by local id unless the support wraps
    across the periodic seam; the shape matrices reuse both arrays as their
    own index arrays.
    """

    indptr: np.ndarray
    ids: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        return self.ids[self.indptr[i] : self.indptr[i + 1]]

    def nbytes(self) -> int:
        return self.indptr.nbytes + self.ids.nbytes


class ReferenceModel:
    """Direct-summation RKPM over the active (chi = 1) nodes of a lattice.

    Both paths must share nodes, quadrature weights, basis, and kernel; the
    constructor therefore takes the same grid objects the convolution path
    uses and extracts the active subset in C order.
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        chi: np.ndarray,
        V: np.ndarray,
        basis: BasisIndex,
        kernel: KernelSpec,
        chi_gamma_g: np.ndarray | None = None,
    ):
        grid.check_field(chi, "chi")
        grid.check_field(V, "V")
        self.grid = grid
        self.basis = basis
        self.kernel = kernel

        self.active = chi > 0.5
        self.n_nodes = int(np.count_nonzero(self.active))
        self.coords = np.column_stack(
            [x[self.active] for x in grid.coordinates()]
        )
        self.V = V[self.active]
        if chi_gamma_g is not None:
            self.gamma_mask = chi_gamma_g[self.active] > 0.5
        else:
            self.gamma_mask = np.zeros(self.n_nodes, dtype=bool)

        self._offsets, self._Hraw, self._Hvec = self._offset_tables()
        self._nbr: NeighborTable | None = None
        self._valid: np.ndarray | None = None
        self._moment: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._Psi: sp.csr_matrix | None = None
        self._B: list[sp.csr_matrix] | None = None
        self._K: sp.csr_matrix | None = None

    # ---------------------------------------------------------------- setup

    def _weighted_basis(self, diff: np.ndarray):
        """H(diff) and H(diff) phi_a(diff), each (len(diff), s), for
        displacements diff (len(diff), d)."""
        coords = list(diff.T)
        H = np.stack(
            [monomial(coords, alpha) for alpha in self.basis.exponents], axis=1
        )
        return H, H * eval_kernel(coords, self.kernel)[:, None]

    def _offset_tables(self):
        """Stencil offsets, the box of the kernel footprint's per-axis reach
        (basis._footprint_reach, the FFT path's) in C order, and the
        per-offset basis data H(-o*dx) and H(-o*dx)*phi(-o*dx), which
        depend on the offset only (phi is even, bit for bit)."""
        offsets = _box(_footprint_reach(self.grid, self.kernel))
        disp = offsets * np.array(self.grid.spacing)  # x_J - x_S per offset
        return (offsets, *self._weighted_basis(-disp))  # argument x_S - x_J

    def _neighbor_table(self, offsets: np.ndarray) -> np.ndarray:
        """Node-major (n_nodes, len(offsets)) int32 table: the local id of
        each active node's lattice neighbor at every offset (wrapped across
        the periodic seam), -1 where that neighbor is inactive."""
        local_id = np.full(self.grid.shape, -1, dtype=np.int32)
        local_id[self.active] = np.arange(self.n_nodes, dtype=np.int32)
        axes = tuple(range(self.grid.dim))
        table = np.empty((self.n_nodes, len(offsets)), dtype=np.int32)
        for k, o in enumerate(offsets):
            table[:, k] = np.roll(local_id, tuple(-o), axis=axes)[self.active]
        return table

    def find_neighbors(self) -> NeighborTable:
        """Build (and cache) the ragged neighbor table from the stencil's
        node-major table, whose validity pattern every later stage reads."""
        if self._nbr is None:
            table = self._neighbor_table(self._offsets)
            self._valid = table >= 0
            self._nbr = NeighborTable(indptr=_indptr(self._valid),
                                      ids=table[self._valid])
        return self._nbr

    def moment_matrices(self) -> np.ndarray:
        """Per-node moment matrices by the O(N*M) direct neighbor sum, the
        symmetric node-last stack (s, s, n_nodes) (cached): the validity
        pattern times the per-offset products H(-o*dx) H(-o*dx)^T phi(o*dx).
        Entry (p, q), summed on its own, is the oracle for the field of
        alpha_p + alpha_q of moment.assemble_moment_fields."""
        if self._moment is None:
            s = self.basis.size
            self.find_neighbors()
            outer = self._Hraw[:, :, None] * self._Hvec[:, None, :]
            self._moment = (
                outer.reshape(-1, s * s).T @ self._valid.T.astype(float)
            ).reshape(s, s, self.n_nodes)
        return self._moment

    def moment_rows(self) -> np.ndarray:
        """The (1 + d, s, n_nodes) b-rows of M^-1 at the active nodes
        (cached): row 0 the shape-function row, row 1 + ax the implicit
        gradient of axis ax.  A SingularMomentError names the lattice node
        as invert_moments does.

        This is the per-node matrix assembly and inversion stage the
        convolution path shares; it is timed as the 'moment' term in
        benchmarks.
        """
        if self._rows is None:

            def locate(i):
                multi = tuple(int(k) for k in np.argwhere(self.active)[i])
                return multi, self.grid.node_coordinate(multi)

            self._rows = _stack_rows(self.moment_matrices(), self.grid.dim,
                                     locate)
        return self._rows

    def shape_matrices(self):
        """Shape functions Psi[I, J] = Psi_J(x_I) and implicit gradients
        B_ax[I, J] as CSR matrices over the neighbor pairs (cached).

        Row I's values are b_I . H(x_I - x_J) phi(x_I - x_J), one dense
        (n_nodes, n_offsets) product per matrix read out by the validity
        pattern; every matrix shares the neighbor table's indptr and ids.
        """
        if self._Psi is None:
            rows = self.moment_rows()
            nbr = self.find_neighbors()
            n = self.n_nodes

            def csr(b):
                data = (b.T @ self._Hvec.T)[self._valid]
                return sp.csr_matrix((data, nbr.ids, nbr.indptr), shape=(n, n))

            self._Psi = csr(rows[0])
            self._B = [csr(b) for b in rows[1:]]
        return self._Psi, self._B

    # ---------------------------------------------------- sparse assembly

    def assemble_stiffness(self) -> sp.csr_matrix:
        """Sparse stiffness K = sum_ax B_ax^T diag(V) B_ax under DNI (cached).

        The O(N*M^2) assembly: per quadrature node S, the M x M block
        (g^T g) V_S of its implicit gradients g is added into one dense
        (n_nodes, n_slots) array, row id_a and slot o_b - o_a in the box of
        two supports, which holds every pair two neighbors of S can form.
        The rows of one block are distinct nodes, so one fancy-index add
        takes it whole.  The slots' columns are the two-support neighbor
        table; the nonzero sums of active columns become K, and
        sum_duplicates merges the slots that fold onto one node when the
        box is narrower than two supports.
        """
        if self._K is not None:
            return self._K
        _, B = self.shape_matrices()
        dpsi = [B_ax.data for B_ax in B]
        indptr, ids32 = self._nbr.indptr, self._nbr.ids
        offs = np.nonzero(self._valid)[1]  # stencil offset of each pair
        reach = 2 * self._offsets.max(axis=0)
        pair = self._offsets[None, :, :] - self._offsets[:, None, :] + reach
        slot = np.ravel_multi_index(tuple(np.moveaxis(pair, -1, 0)),
                                    2 * reach + 1)  # [a, b] -> o_b - o_a
        n = self.n_nodes
        acc = np.zeros((n, int(np.prod(2 * reach + 1))))
        for S in range(n):
            sl = slice(indptr[S], indptr[S + 1])
            ids, k = ids32[sl], offs[sl]
            g = np.stack([dax[sl] for dax in dpsi])  # (d, M_S)
            acc[ids[:, None], slot[k[:, None], k]] += (g.T @ g) * self.V[S]
        cols = self._neighbor_table(_box(reach))
        keep = (cols >= 0) & (acc != 0.0)
        K = sp.csr_matrix((acc[keep], cols[keep], _indptr(keep)), shape=(n, n))
        K.sum_duplicates()
        self._K = K
        return K

    # ------------------------------------------------- restrict and extend

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """Grid field -> active-node vector, field[chi > 0.5] (C order)."""
        self.grid.check_field(field, "field")
        return field[self.active]

    def extend(self, vec: np.ndarray) -> np.ndarray:
        """Active-node vector -> grid field, zero off the domain."""
        out = np.zeros(self.grid.shape)
        out[self.active] = vec
        return out

    # ------------------------------------------------------- direct terms

    def f_int_direct(self, d: np.ndarray) -> np.ndarray:
        """Stiffness action K d by sparse product (assembles K once)."""
        K = self.assemble_stiffness()
        return self.extend(K @ self.restrict(d))

    def f_r_direct(self, r: np.ndarray) -> np.ndarray:
        """Load vector f_J = sum_S Psi_J(x_S) V_S r_S, i.e. Psi^T (V r)."""
        Psi, _ = self.shape_matrices()
        return self.extend(Psi.T @ (self.V * self.restrict(r)))

    def u_h_direct(self, d: np.ndarray) -> np.ndarray:
        """Field evaluation u_h(x_I) = sum_J Psi_J(x_I) d_J at the nodes."""
        Psi, _ = self.shape_matrices()
        return self.extend(Psi @ self.restrict(d))

    def gradient_direct(self, d: np.ndarray) -> list[np.ndarray]:
        """Implicit-gradient evaluation at the nodes, one field per axis."""
        _, B = self.shape_matrices()
        dv = self.restrict(d)
        return [self.extend(B_ax @ dv) for B_ax in B]

    def f_q_direct(self, q: np.ndarray, area: np.ndarray) -> np.ndarray:
        """Boundary integral Psi^T (q A) by direct quadrature over the
        boundary nodes (q and area vanish elsewhere)."""
        Psi, _ = self.shape_matrices()
        return self.extend(Psi.T @ (self.restrict(q) * self.restrict(area)))

    def mass_apply_direct(self, d_dot: np.ndarray) -> np.ndarray:
        """Consistent-mass action Psi^T (V (Psi d_dot)), never assembled."""
        Psi, _ = self.shape_matrices()
        return self.extend(Psi.T @ (self.V * (Psi @ self.restrict(d_dot))))

    def lumped_mass_direct(self) -> np.ndarray:
        """Row sums of the consistent mass, Psi^T (V (Psi 1)): the Psi 1
        factor keeps the partition of unity under test."""
        Psi, _ = self.shape_matrices()
        return self.extend(Psi.T @ (self.V * (Psi @ np.ones(self.n_nodes))))

    # ------------------------------------------------- arbitrary-point API

    def shape_functions_at(self, x):
        """Shape function and implicit-gradient values at an arbitrary point.

        Returns (ids, psi, dpsi) where ids are the active nodes whose
        rectangular support covers x (strictly).  Needed for the continuous
        1D error norm; O(N) per query.

        Raises:
            SingularMomentError: node_index ("point",), when the covering
                nodes cannot reproduce the basis.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = np.ones(self.n_nodes, dtype=bool)
        for k in range(self.grid.dim):
            inside &= np.abs(x[k] - self.coords[:, k]) < self.kernel.support[k]
        ids = np.flatnonzero(inside)
        H, Hvec = self._weighted_basis(x[None, :] - self.coords[ids])  # x - x_J
        rows = _stack_rows((H.T @ Hvec)[:, :, None], self.grid.dim,
                           lambda _: (("point",), tuple(x)))[:, :, 0]
        return ids, Hvec @ rows[0], [Hvec @ b for b in rows[1:]]

    # ------------------------------------------------------------- solving

    def solve_sparse(self, rhs: np.ndarray, g: np.ndarray | None = None):
        """Sparse direct solve with Dirichlet rows eliminated."""
        K = self.assemble_stiffness().tocsc()
        b = self.restrict(rhs)
        d = np.zeros(self.n_nodes)
        if g is not None:
            d[self.gamma_mask] = self.restrict(g)[self.gamma_mask]
        free = np.flatnonzero(~self.gamma_mask)
        fixed = np.flatnonzero(self.gamma_mask)
        b_f = b[free] - K[free][:, fixed] @ d[fixed]
        d[free] = spla.spsolve(K[free][:, free], b_f)
        return self.extend(d)

    # ------------------------------------------------------------- memory

    def persistent_nbytes(self) -> int:
        """Bytes held by the traditional data structures: node table,
        neighbor lists, and the assembled sparse stiffness.  The stencil's
        validity pattern, the moment stack and rows and the shape matrices
        are setup intermediates and are not counted."""
        total = (
            self.coords.nbytes + self.V.nbytes + self.active.nbytes
            + self.gamma_mask.nbytes
        )
        if self._nbr is not None:
            total += self._nbr.nbytes()
        if self._K is not None:
            total += (
                self._K.data.nbytes
                + self._K.indices.nbytes
                + self._K.indptr.nbytes
            )
        return total
