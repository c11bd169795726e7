"""Direct-summation model: neighbors, shape functions, sparse operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from fcrkpm import (
    KernelSpec,
    build_grid,
    discretize,
    enumerate_basis,
    plan_extension,
    poisson_case,
    quadrature_weights,
)
from fcrkpm import reference
from fcrkpm.errors import SingularMomentError
from fcrkpm.reference import ReferenceModel


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(5)


@pytest.fixture(scope="module")
def model3d():
    disc = discretize(poisson_case(3), counts=12)
    return disc, disc.reference()


class TestNeighborCounts:
    def test_interior_27(self, model3d):
        _, ref = model3d
        nbr = ref.find_neighbors()
        assert np.max(nbr.counts) == 27

    @pytest.mark.parametrize("a_tilde,expected", [(2.5, 125), (3.5, 343)])
    def test_wider_supports(self, a_tilde, expected):
        disc = discretize(poisson_case(3), counts=16, a_tilde=a_tilde)
        ref = disc.reference()
        assert np.max(ref.find_neighbors().counts) == expected

    def test_integer_support_excludes_edge(self):
        # phi vanishes exactly at the support edge, so a_tilde = 2 keeps 3
        # nodes per axis, same as 1.5
        disc = discretize(poisson_case(2), counts=16, a_tilde=2.0)
        ref = disc.reference()
        assert np.max(ref.find_neighbors().counts) == 9

    def test_1d_truncation_at_left_end(self, disc1d):
        ref = disc1d.reference()
        nbr = ref.find_neighbors()
        # the node at x = -1 keeps itself and its right neighbor only
        assert nbr.counts[0] == 2

    def test_symmetry(self, model3d):
        _, ref = model3d
        nbr = ref.find_neighbors()
        pairs = set()
        for i in range(ref.n_nodes):
            for j in nbr.neighbors(i):
                pairs.add((i, int(j)))
        assert all((j, i) in pairs for i, j in pairs)

    @pytest.mark.parametrize("dim,a_tilde,counts", [(2, 2.5, 16), (3, 3.5, 12)])
    def test_matches_brute_force(self, dim, a_tilde, counts):
        # every row equals a sorted O(N^2) scan for per-axis |dx| < a_tilde
        disc = discretize(poisson_case(dim), counts=counts, a_tilde=a_tilde)
        ref = disc.reference()
        nbr = ref.find_neighbors()
        steps = (ref.coords - ref.coords[0]) / np.array(disc.grid.spacing)
        for i in range(ref.n_nodes):
            near = np.all(np.abs(steps - steps[i]) < a_tilde, axis=1)
            assert np.array_equal(nbr.neighbors(i), np.flatnonzero(near))


class TestNodeOrder:
    def test_c_order_restrict_and_extend(self, disc2d, ref2d, rng):
        X, _ = disc2d.grid.coordinates()
        assert np.array_equal(ref2d.restrict(X), ref2d.coords[:, 0])
        f = rng.standard_normal(disc2d.grid.shape)
        assert np.array_equal(ref2d.extend(ref2d.restrict(f)), disc2d.chi * f)


class TestShapeFunctionsAt:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_reproduction_at_random_points(self, dim, rng):
        disc = discretize(poisson_case(dim), counts=32)
        ref = disc.reference()
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, size=dim)
            ids, psi, dpsi = ref.shape_functions_at(x)
            assert np.sum(psi) == pytest.approx(1.0, abs=1e-10)
            for k in range(dim):
                xs = ref.coords[ids, k]
                assert psi @ xs == pytest.approx(x[k], abs=1e-9)
                assert dpsi[k] @ xs == pytest.approx(1.0, abs=1e-8)
                assert np.sum(dpsi[k]) == pytest.approx(0.0, abs=1e-8)

    def test_matches_nodal_tables(self, disc2d, ref2d):
        # evaluated exactly at a node, the point API reproduces the cached
        # per-node shape values
        Psi, _ = ref2d.shape_matrices()
        node = ref2d.n_nodes // 2
        ids, psi, _ = ref2d.shape_functions_at(ref2d.coords[node])
        nbr = ref2d.find_neighbors()
        cached_ids = nbr.neighbors(node)
        cached_psi = Psi.data[nbr.indptr[node] : nbr.indptr[node + 1]]
        assert np.array_equal(np.sort(ids), np.sort(cached_ids))
        lookup = dict(zip(ids.tolist(), psi.tolist()))
        for j, val in zip(cached_ids, cached_psi):
            assert lookup[int(j)] == pytest.approx(val, rel=1e-12, abs=1e-14)


    def test_collinear_cover_is_singular(self):
        # on a one-row 2D strip every node covering a point of the row has
        # the same y, so the y monomial vanishes and M is singular
        plan = plan_extension((2.0, 2.0), 1.5, counts=(16, 16))
        grid = build_grid(plan, (-1.0, -1.0))
        chi = np.zeros(grid.shape)
        chi[:, 8] = 1.0
        ref = ReferenceModel(
            grid, chi, quadrature_weights(grid, chi), enumerate_basis(1, 2),
            KernelSpec(plan.kernel_support),
        )
        x0, y0 = grid.node_coordinate((7, 8))
        x = (x0 + 0.3 * grid.spacing[0], y0)
        with pytest.raises(SingularMomentError) as err:
            ref.shape_functions_at(x)
        assert err.value.node_index == ("point",)
        assert err.value.coordinate == x
        # a point no node covers has an all-zero M, singular too
        with pytest.raises(SingularMomentError):
            ref.shape_functions_at((x0, y0 + 3.0 * grid.spacing[1]))


class TestStiffness:
    def test_annihilates_constants(self, disc2d, ref2d):
        K = ref2d.assemble_stiffness()
        ones = np.ones(ref2d.n_nodes)
        scale = np.max(np.abs(K.data))
        assert np.max(np.abs(K @ ones)) < 1e-9 * scale

    def test_symmetry(self, disc2d, ref2d):
        K = ref2d.assemble_stiffness()
        asym = (K - K.T).tocoo()
        bound = 1e-12 * np.max(np.abs(K.data))
        assert asym.nnz == 0 or np.max(np.abs(asym.data)) < bound

    def test_pattern_within_two_hop(self, disc2d, ref2d):
        K = ref2d.assemble_stiffness().tocoo()
        # |x_I - x_J| < 2a per axis for every stored entry
        for k in range(2):
            gap = np.abs(
                ref2d.coords[K.row, k] - ref2d.coords[K.col, k]
            )
            assert np.all(gap < 2 * ref2d.kernel.support[k] + 1e-12)

    def test_mass_row_sums_are_volumes(self, disc2d, ref2d):
        # partition of unity: row sums of M equal integral of Psi_I
        total = float(np.sum(ref2d.lumped_mass_direct()))
        assert total == pytest.approx(np.sum(ref2d.V), rel=1e-12)

    @pytest.mark.parametrize(
        "dim,counts,n,a_tilde",
        [(1, 32, 1, 1.5), (2, 16, 1, 1.5), (3, 10, 1, 1.5), (3, 12, 2, 2.5)],
    )
    def test_matches_gradient_products(self, dim, counts, n, a_tilde, monkeypatch):
        # the per-node loop equals sum_ax B_ax^T diag(V) B_ax entry by entry,
        # with a triplet budget small enough that the flushed chunks go
        # through the pairwise merge, odd leftover chunk included
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde, counts=counts)
        ref = disc.reference()
        Psi, B = ref.shape_matrices()
        triplets = int(np.sum(np.diff(Psi.indptr).astype(np.int64) ** 2))
        monkeypatch.setattr(reference, "_TRIPLET_BUDGET", triplets // 20 + 1)
        flushes = []
        coo = reference.sp.coo_matrix
        monkeypatch.setattr(
            reference.sp, "coo_matrix",
            lambda *args, **kw: flushes.append(1) or coo(*args, **kw),
        )
        K = ref.assemble_stiffness()
        chunks = len(flushes)
        monkeypatch.undo()
        # a chunk count that is not a power of two leaves an odd count at
        # some merge level
        assert chunks >= 3 and chunks & (chunks - 1)
        K_ref = sum(B_ax.T @ sp.diags(ref.V) @ B_ax for B_ax in B)
        scale = abs(K_ref).max()
        assert abs(K - K_ref).max() <= 1e-13 * scale

    def test_stored_entries_independent_of_budget(self, monkeypatch):
        # a single chunk's coo -> csr keeps the exact-zero sums and the
        # pairwise merge drops them; K stores neither, whatever the budget
        disc = discretize(poisson_case(2), n=1, a_tilde=1.5, counts=16)
        K_one = disc.reference().assemble_stiffness()
        ref = disc.reference()
        Psi, _ = ref.shape_matrices()
        triplets = int(np.sum(np.diff(Psi.indptr).astype(np.int64) ** 2))
        assert triplets < reference._TRIPLET_BUDGET  # the default: one chunk
        monkeypatch.setattr(reference, "_TRIPLET_BUDGET", triplets // 4 + 1)
        flushes = []
        coo = reference.sp.coo_matrix
        monkeypatch.setattr(
            reference.sp, "coo_matrix",
            lambda *args, **kw: flushes.append(1) or coo(*args, **kw),
        )
        K_merged = ref.assemble_stiffness()
        monkeypatch.undo()
        assert len(flushes) >= 3
        assert K_one.nnz == K_merged.nnz
        assert np.all(K_one.data != 0.0) and np.all(K_merged.data != 0.0)
        assert abs(K_one - K_merged).max() <= 1e-14 * abs(K_one).max()


class TestDirectTerms:
    def test_f_r_unit_source(self, disc2d, ref2d):
        f = ref2d.f_r_direct(disc2d.chi)
        assert np.sum(f) == pytest.approx(4.0, rel=1e-10)

    def test_boundary_locality(self, disc2d, ref2d):
        from fcrkpm.grid import boundary_face_weights

        face, area = boundary_face_weights(
            disc2d.grid, disc2d.chi, disc2d.case.bounds, axis=0, side="hi"
        )
        f = ref2d.f_q_direct(face, area)
        X, _ = disc2d.grid.coordinates()
        far = (X < 1.0 - 2 * disc2d.kernel.support[0]) & (disc2d.chi > 0.5)
        assert np.all(f[far] == 0.0)
        assert np.any(f != 0.0)


class TestMemoryAccounting:
    def test_inventory_grows_with_assembly(self, disc2d):
        ref = disc2d.reference()
        base = ref.persistent_nbytes()
        ref.find_neighbors()
        with_nbr = ref.persistent_nbytes()
        ref.assemble_stiffness()
        with_k = ref.persistent_nbytes()
        assert base < with_nbr < with_k
        K = ref.assemble_stiffness()
        expected_k = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
        assert with_k - with_nbr == expected_k
