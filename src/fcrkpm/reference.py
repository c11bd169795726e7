"""Traditional direct-summation RKPM on the bounded domain.

This is the correctness oracle for the convolution path and the benchmark
counterpart.  It holds explicit neighbor lists, computes shape function and
implicit-gradient values neighbor by neighbor, and assembles the sparse
stiffness/mass operators with the classic nested-loop structure: one loop
over quadrature points, loops over their neighbors inside, giving O(N*M)
work for forces and field evaluation and O(N*M^2) for matrix assembly.

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

from .basis import BasisIndex, KernelSpec, eval_kernel_1d
from .errors import SingularMomentError
from .grid import PeriodicGrid
from .moment import SINGULAR_PIVOT_RTOL, _invert_symmetric

__all__ = ["NeighborTable", "ReferenceModel"]

# flush threshold for chunked COO -> CSR accumulation during assembly
_TRIPLET_BUDGET = 8_000_000


@dataclass
class NeighborTable:
    """Ragged per-node neighbor lists in CSR layout.

    ids[indptr[i]:indptr[i+1]] are the neighbors of node i (self included),
    sorted; offset_idx maps each pair to its lattice offset.
    """

    indptr: np.ndarray
    ids: np.ndarray
    offset_idx: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        return self.ids[self.indptr[i] : self.indptr[i + 1]]

    def nbytes(self) -> int:
        return self.indptr.nbytes + self.ids.nbytes + self.offset_idx.nbytes


class ReferenceModel:
    """Direct-summation RKPM over the active (chi = 1) nodes of a lattice.

    Both paths must share nodes, quadrature weights, basis, and kernel; the
    constructor therefore takes the same grid objects the convolution path
    uses and extracts the active subset in the canonical linearization.
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
        # per-axis support in spacings; rounded so the strict |o| < a_tilde
        # neighbor test is immune to rounding in a = a_tilde * dx
        self.a_tilde = tuple(
            round(a / dx, 9) for a, dx in zip(kernel.support, grid.spacing)
        )

        chi_flat = grid.ravel(chi) > 0.5
        self.omega_linear = np.flatnonzero(chi_flat)
        self.n_nodes = int(self.omega_linear.size)
        multi = np.unravel_index(self.omega_linear, grid.shape, order="F")
        axes = grid.axes()
        self.coords = np.column_stack(
            [axes[k][multi[k]] for k in range(grid.dim)]
        )
        self.V = grid.ravel(V)[self.omega_linear]
        if chi_gamma_g is not None:
            self.gamma_mask = grid.ravel(chi_gamma_g)[self.omega_linear] > 0.5
        else:
            self.gamma_mask = np.zeros(self.n_nodes, dtype=bool)

        tmp = np.full(grid.total_nodes, -1, dtype=np.int64)
        tmp[self.omega_linear] = np.arange(self.n_nodes)
        self._local_id = grid.unravel(tmp)

        self._offsets, self._Hraw, self._Hvec = self._offset_tables()
        self._nbr: NeighborTable | None = None
        self._moment: np.ndarray | None = None
        self._b0: np.ndarray | None = None
        self._bgrad: np.ndarray | None = None
        self._psi: np.ndarray | None = None
        self._dpsi: list[np.ndarray] | None = None
        self._K: sp.csr_matrix | None = None
        self._mass: sp.csr_matrix | None = None

    # ---------------------------------------------------------------- setup

    def _offset_tables(self):
        """Stencil offsets with per-axis |o| < a_tilde (strict: the kernel
        vanishes exactly at the support edge) and the per-offset basis data
        H(-o*dx) and H(-o*dx)*phi(o*dx), which depend on the offset only."""
        d = self.grid.dim
        ranges = [
            np.arange(-int(np.ceil(at)) + 1, int(np.ceil(at)))
            for at in self.a_tilde
        ]
        offsets = np.array(
            [
                o
                for o in np.ndindex(*[len(r) for r in ranges])
                if all(abs(ranges[k][o[k]]) < self.a_tilde[k] for k in range(d))
            ]
        )
        offsets = np.array(
            [[ranges[k][o[k]] for k in range(d)] for o in offsets], dtype=np.int64
        )
        disp = offsets * np.array(self.grid.spacing)  # x_J - x_S per offset
        phi = np.ones(len(offsets))
        for k in range(d):
            phi *= eval_kernel_1d(disp[:, k], self.kernel.support[k])
        Hraw = np.ones((len(offsets), self.basis.size))
        for p, alpha in enumerate(self.basis.exponents):
            for k, a in enumerate(alpha):
                if a:
                    Hraw[:, p] *= (-disp[:, k]) ** a  # argument x_S - x_J
        return offsets, Hraw, Hraw * phi[:, None]

    def find_neighbors(self) -> NeighborTable:
        """Build (and cache) the ragged neighbor table."""
        if self._nbr is not None:
            return self._nbr
        pair_I, pair_J, pair_off = [], [], []
        axes = tuple(range(self.grid.dim))
        for idx, o in enumerate(self._offsets):
            nbr_id = np.roll(self._local_id, shift=tuple(-o), axis=axes)
            valid = (self._local_id >= 0) & (nbr_id >= 0)
            I = self._local_id[valid]
            pair_I.append(I)
            pair_J.append(nbr_id[valid])
            pair_off.append(np.full(I.size, idx, dtype=np.int32))
        I = np.concatenate(pair_I)
        J = np.concatenate(pair_J)
        off = np.concatenate(pair_off)
        order = np.lexsort((J, I))
        I, J, off = I[order], J[order], off[order]
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(I, minlength=self.n_nodes), out=indptr[1:])
        self._nbr = NeighborTable(indptr=indptr, ids=J, offset_idx=off)
        return self._nbr

    def _assemble_moment_batch(self) -> np.ndarray:
        """Per-node moment matrices by the O(N*M) direct neighbor sum."""
        if self._moment is not None:
            return self._moment
        s = self.basis.size
        M_batch = np.zeros((self.n_nodes, s, s))
        axes = tuple(range(self.grid.dim))
        for idx, o in enumerate(self._offsets):
            nbr_id = np.roll(self._local_id, shift=tuple(-o), axis=axes)
            valid = (self._local_id >= 0) & (nbr_id >= 0)
            M_batch[self._local_id[valid]] += np.outer(
                self._Hraw[idx], self._Hvec[idx]
            )
        self._moment = M_batch
        return M_batch

    def moment_rows(self):
        """Per-node b-row extracts (b0, [bx, by, bz]) from M^-1.

        This is the per-node matrix assembly and inversion stage the
        convolution path shares; it is timed as the 'moment' term in
        benchmarks.
        """
        if self._b0 is not None:
            return self._b0, self._bgrad
        self._assemble_moment_batch()
        inv, min_pivot = _invert_symmetric(
            np.ascontiguousarray(self._moment.transpose(1, 2, 0))
        )
        bad = min_pivot < SINGULAR_PIVOT_RTOL
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise SingularMomentError(
                self.grid.multi_index(int(self.omega_linear[i])),
                tuple(self.coords[i]),
                min_pivot[i] * np.max(np.abs(self._moment[i])),
            )
        self._b0 = inv[0].T.copy()
        self._bgrad = np.stack(
            [-inv[1 + ax].T for ax in range(self.grid.dim)]
        )
        return self._b0, self._bgrad

    def moment_fields_direct(self) -> dict[tuple[int, int], np.ndarray]:
        """Upper-triangle moment entries per active node (the FFT oracle)."""
        self._assemble_moment_batch()
        s = self.basis.size
        return {
            (p, q): self._moment[:, p, q].copy()
            for p in range(s)
            for q in range(p, s)
        }

    def shape_value_table(self):
        """Flat per-pair shape values Psi_J(x_I) and implicit gradients,
        aligned with the neighbor table pairs."""
        if self._psi is not None:
            return self._psi, self._dpsi
        b0, bgrad = self.moment_rows()
        nbr = self.find_neighbors()
        pair_I = np.repeat(
            np.arange(self.n_nodes, dtype=np.int64), nbr.counts
        )
        total = nbr.ids.size
        psi = np.empty(total)
        dpsi = [np.empty(total) for _ in range(self.grid.dim)]
        for start in range(0, total, 4_000_000):
            sl = slice(start, min(start + 4_000_000, total))
            hv = self._Hvec[nbr.offset_idx[sl]]
            psi[sl] = np.einsum("kp,kp->k", b0[pair_I[sl]], hv)
            for ax in range(self.grid.dim):
                dpsi[ax][sl] = np.einsum("kp,kp->k", bgrad[ax][pair_I[sl]], hv)
        self._psi = psi
        self._dpsi = dpsi
        self._pair_I = pair_I
        return psi, dpsi

    # ---------------------------------------------------- sparse assembly

    def _assemble_pair_operator(self, kind: str) -> sp.csr_matrix:
        """O(N*M^2) assembly: per quadrature node, an M x M outer-product
        block scattered into COO triplets, flushed to CSR in chunks that are
        pairwise-merged at the end (a running sum would re-touch the full
        matrix on every flush)."""
        psi, dpsi = self.shape_value_table()
        nbr = self._nbr
        n = self.n_nodes
        ids32 = nbr.ids.astype(np.int32)
        chunks = []
        rows, cols, vals, pending = [], [], [], 0

        def flush():
            chunks.append(
                sp.coo_matrix(
                    (np.concatenate(vals),
                     (np.concatenate(rows), np.concatenate(cols))),
                    shape=(n, n),
                ).tocsr()
            )

        for S in range(n):
            sl = slice(nbr.indptr[S], nbr.indptr[S + 1])
            ids = ids32[sl]
            if kind == "stiffness":
                g = np.stack([dax[sl] for dax in dpsi])  # (d, M_S)
                block = (g.T @ g) * self.V[S]
            else:
                block = np.outer(psi[sl], psi[sl]) * self.V[S]
            m = ids.size
            rows.append(np.repeat(ids, m))
            cols.append(np.tile(ids, m))
            vals.append(block.ravel())
            pending += m * m
            if pending >= _TRIPLET_BUDGET:
                flush()
                rows, cols, vals, pending = [], [], [], 0
        if pending:
            flush()
        while len(chunks) > 1:
            merged = [
                chunks[i] + chunks[i + 1] if i + 1 < len(chunks) else chunks[i]
                for i in range(0, len(chunks), 2)
            ]
            chunks = merged
        K = chunks[0]
        K.sort_indices()
        return K

    def assemble_stiffness(self) -> sp.csr_matrix:
        """Sparse stiffness from the implicit-gradient pairs under DNI."""
        if self._K is None:
            self._K = self._assemble_pair_operator("stiffness")
        return self._K

    def assemble_mass(self) -> sp.csr_matrix:
        """Sparse consistent mass from the shape-function pairs under DNI."""
        if self._mass is None:
            self._mass = self._assemble_pair_operator("mass")
        return self._mass

    # ------------------------------------------------- restrict and extend

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """Grid field -> active-node vector (canonical order)."""
        self.grid.check_field(field, "field")
        return self.grid.ravel(field)[self.omega_linear]

    def extend(self, vec: np.ndarray) -> np.ndarray:
        """Active-node vector -> grid field, zero off the domain."""
        flat = np.zeros(self.grid.total_nodes)
        flat[self.omega_linear] = vec
        return self.grid.unravel(flat)

    # ------------------------------------------------------- direct terms

    def f_int_direct(self, d: np.ndarray) -> np.ndarray:
        """Stiffness action K d by sparse product (assembles K once)."""
        K = self.assemble_stiffness()
        return self.extend(K @ self.restrict(d))

    def f_r_direct(self, r: np.ndarray) -> np.ndarray:
        """Load vector by the double loop over quadrature nodes and their
        neighbors, vectorized per pair with a bincount scatter."""
        psi, _ = self.shape_value_table()
        w = (self.restrict(r) * self.V)[self._pair_I]
        return self.extend(
            np.bincount(self._nbr.ids, weights=psi * w, minlength=self.n_nodes)
        )

    def u_h_direct(self, d: np.ndarray) -> np.ndarray:
        """Field evaluation u_h(x_I) = sum_J Psi_J(x_I) d_J at the nodes."""
        psi, _ = self.shape_value_table()
        dv = self.restrict(d)[self._nbr.ids]
        return self.extend(
            np.bincount(self._pair_I, weights=psi * dv, minlength=self.n_nodes)
        )

    def gradient_direct(self, d: np.ndarray) -> list[np.ndarray]:
        """Implicit-gradient evaluation at the nodes, one field per axis."""
        _, dpsi = self.shape_value_table()
        dv = self.restrict(d)[self._nbr.ids]
        return [
            self.extend(
                np.bincount(self._pair_I, weights=g * dv, minlength=self.n_nodes)
            )
            for g in dpsi
        ]

    def f_q_direct(self, q: np.ndarray, area: np.ndarray) -> np.ndarray:
        """Boundary integral by direct quadrature over the boundary nodes
        (q and area vanish elsewhere, so the pair sum truncates itself)."""
        psi, _ = self.shape_value_table()
        w = (self.restrict(q) * self.restrict(area))[self._pair_I]
        return self.extend(
            np.bincount(self._nbr.ids, weights=psi * w, minlength=self.n_nodes)
        )

    def mass_apply_direct(self, d_dot: np.ndarray) -> np.ndarray:
        """Consistent-mass action M d_dot by sparse product."""
        M = self.assemble_mass()
        return self.extend(M @ self.restrict(d_dot))

    def lumped_mass_direct(self) -> np.ndarray:
        """Row sums of the assembled consistent mass."""
        M = self.assemble_mass()
        return self.extend(np.asarray(M.sum(axis=1)).ravel())

    # ------------------------------------------------- arbitrary-point API

    def shape_functions_at(self, x):
        """Shape function and implicit-gradient values at an arbitrary point.

        Returns (ids, psi, dpsi) where ids are the active nodes whose
        rectangular support covers x (strictly).  Needed for the continuous
        1D error norm; O(N) per query.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = np.ones(self.n_nodes, dtype=bool)
        for k in range(self.grid.dim):
            inside &= np.abs(x[k] - self.coords[:, k]) < self.kernel.support[k]
        ids = np.flatnonzero(inside)
        if ids.size < self.basis.size:
            raise SingularMomentError(("point",), tuple(x), 0.0)
        diff = x[None, :] - self.coords[ids]  # x - x_J
        phi = np.ones(ids.size)
        for k in range(self.grid.dim):
            phi *= eval_kernel_1d(diff[:, k], self.kernel.support[k])
        H = np.ones((ids.size, self.basis.size))
        for p, alpha in enumerate(self.basis.exponents):
            for k, a in enumerate(alpha):
                if a:
                    H[:, p] *= diff[:, k] ** a
        Hvec = H * phi[:, None]
        M = H.T @ Hvec
        try:
            inv = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:
            raise SingularMomentError(("point",), tuple(x), 0.0) from exc
        psi = Hvec @ inv[0]
        dpsi = [Hvec @ (-inv[1 + ax]) for ax in range(self.grid.dim)]
        return ids, psi, dpsi

    # ------------------------------------------------------------- solving

    def solve_dense(self, rhs: np.ndarray, g: np.ndarray | None = None):
        """Dense direct solve with Dirichlet rows eliminated (small systems)."""
        K = self.assemble_stiffness().toarray()
        b = self.restrict(rhs)
        d = np.zeros(self.n_nodes)
        if g is not None:
            d[self.gamma_mask] = self.restrict(g)[self.gamma_mask]
        free = ~self.gamma_mask
        b_f = b[free] - K[np.ix_(free, self.gamma_mask)] @ d[self.gamma_mask]
        d[free] = np.linalg.solve(K[np.ix_(free, free)], b_f)
        return self.extend(d)

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
        neighbor lists, and the assembled sparse stiffness."""
        total = (
            self.coords.nbytes + self.V.nbytes + self.omega_linear.nbytes
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
