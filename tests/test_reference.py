"""Direct-summation model: neighbors, shape functions, sparse operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from fcrkpm import (
    KernelSpec,
    PeriodicGrid,
    build_grid,
    discretize,
    enumerate_basis,
    plan_extension,
    poisson_case,
    quadrature_weights,
)
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

    @pytest.mark.parametrize("case", [
        (1, 32, 1, 1.5), (2, 16, 1, 1.5), (3, 10, 1, 1.5), (3, 12, 2, 2.5),
        ("whole", 8, 3.5), ("whole", 9, 2.5), ("rolled",),
    ], ids=lambda case: "-".join(map(str, case)))
    def test_matches_gradient_products(self, case):
        # the per-node loop equals sum_ax B_ax^T diag(V) B_ax entry by entry
        # and stores neither an exact zero nor a duplicate or unsorted column
        ref = _stiffness_model(case)
        K = ref.assemble_stiffness()
        _, B = ref.shape_matrices()
        K_ref = sum(B_ax.T @ sp.diags(ref.V) @ B_ax for B_ax in B)
        scale = abs(K_ref).max()
        assert abs(K - K_ref).max() <= 1e-13 * scale
        assert np.all(K.data != 0.0)
        assert K.has_canonical_format

    def test_neighbor_table_built_once_per_offset_set(self, disc2d,
                                                      monkeypatch):
        # the stencil's table serves the neighbor lists, the moments and the
        # shape values; the assembly adds the two-support table
        calls = []
        build = ReferenceModel._neighbor_table
        monkeypatch.setattr(
            ReferenceModel, "_neighbor_table",
            lambda self, offsets: calls.append(len(offsets))
            or build(self, offsets),
        )
        ref = disc2d.reference()
        ref.find_neighbors()
        ref.moment_rows()
        ref.assemble_stiffness()
        assert calls == [9, 25]


def _stiffness_model(case):
    """ReferenceModel of a stiffness case: a Poisson cell (dim, counts, n,
    a_tilde); chi = 1 on the whole periodic 2D box of N x N nodes ("whole",
    N, a_tilde), where the box of two supports (4 ceil(a_tilde) - 3 nodes
    per axis) folds onto itself at N = 8, a_tilde = 3.5 and just fits at
    N = 9, a_tilde = 2.5; or the 2D 16^2 cell's mask and weights rolled by
    half the box across the periodic seam ("rolled",), whose neighbor rows
    are not sorted by id."""
    if case[0] == "whole":
        _, N, a_tilde = case
        grid = PeriodicGrid(x_min=(0.0, 0.0), length=(1.0, 1.0), counts=(N, N))
        chi = np.ones(grid.shape)
        kernel = KernelSpec(tuple(a_tilde * dx for dx in grid.spacing))
        return ReferenceModel(grid, chi, quadrature_weights(grid, chi),
                              enumerate_basis(1, 2), kernel)
    if case[0] == "rolled":
        disc = discretize(poisson_case(2), n=1, a_tilde=1.5, counts=16)
        half = [k // 2 for k in disc.grid.shape]
        chi, V = (np.roll(f, half, (0, 1)) for f in (disc.chi, disc.V))
        return ReferenceModel(disc.grid, chi, V, disc.basis, disc.kernel)
    dim, counts, n, a_tilde = case
    disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde, counts=counts)
    return disc.reference()


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
