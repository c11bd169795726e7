"""Moment assembly, nodewise inversion, and reproducing conditions."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from fcrkpm import (
    CountingFFTProvider,
    KernelSpec,
    assemble_moment_fields,
    build_basis_table,
    build_grid,
    build_moment_precomp,
    circular_convolve,
    discretize,
    enumerate_basis,
    eval_kernel_1d,
    evaluate_field,
    evaluate_gradient,
    invert_moments,
    plan_extension,
    poisson_case,
    quadrature_weights,
    weighted_monomials,
)
from fcrkpm.basis import monomial
from fcrkpm.errors import IllConditionedMomentWarning, SingularMomentError
from fcrkpm import moment
from fcrkpm.moment import SINGULAR_PIVOT_RTOL, _b_rows, _invert_symmetric
from fcrkpm.reference import ReferenceModel

from conftest import rel_err


def _setup_1d(n_nodes=16):
    plan = plan_extension(2.0, 1.5, counts=n_nodes)
    grid = build_grid(plan, -1.0)
    x = grid.axes()[0]
    chi = (x <= 1.0 + 1e-9).astype(float)
    basis = enumerate_basis(1, 1)
    kernel = KernelSpec(support=plan.kernel_support)
    table = build_basis_table(grid, basis, kernel)
    V = quadrature_weights(grid, chi)
    return grid, chi, V, table


@pytest.fixture(scope="module")
def disc3d_quadratic():
    return discretize(poisson_case(3), n=2, a_tilde=2.5, counts=16)


def _node_last(mats):
    """(B, s, s) stack -> the (s, s, B) layout `_invert_symmetric` takes."""
    return np.ascontiguousarray(mats.transpose(1, 2, 0))


def _lattice_moment(offsets, dim, n, a_tilde, h=2.0 / 47):
    """Direct-sum moment matrix of a node whose neighbors sit at the given
    lattice offsets (in spacings), like the oracle's per-node sum."""
    basis = enumerate_basis(n, dim)
    M = np.zeros((basis.size, basis.size))
    for o in offsets:
        x = np.asarray(o, dtype=float) * h
        phi = np.prod(eval_kernel_1d(x, a_tilde * h))
        H = np.array([np.prod((-x) ** np.array(al)) for al in basis.exponents])
        M += phi * np.outer(H, H)
    return M


def _upper_pairs(s):
    return itertools.combinations_with_replacement(range(s), 2)


def _assert_rows_match_numpy(disc):
    M = assemble_moment_fields(disc.chi, disc.table)
    grid = disc.grid
    s = disc.table.size
    mats = M.reshape(s, s, -1).transpose(2, 0, 1)
    inv_np = np.linalg.inv(mats)
    precomp = invert_moments(M, disc.chi, disc.V, disc.table)
    for p in range(s):
        mine = precomp.b0[p].ravel()
        assert np.max(np.abs(mine - inv_np[:, 0, p])) < 1e-12 * np.max(
            np.abs(inv_np[:, 0, :])
        )
        for ax in range(grid.dim):
            mine = precomp.bgrad[ax][p].ravel()
            assert np.max(np.abs(mine + inv_np[:, 1 + ax, p])) < 1e-12 * np.max(
                np.abs(inv_np[:, 1 + ax, :])
            )


class TestAssembly:
    def test_identity_outside_domain(self):
        grid, chi, V, table = _setup_1d()
        M = assemble_moment_fields(chi, table)
        outside = chi < 0.5
        assert np.any(outside)
        assert np.allclose(M[0, 0][outside], 1.0)
        assert np.allclose(M[1, 1][outside], 1.0)
        assert np.allclose(M[0, 1][outside], 0.0)
        assert np.array_equal(M[1, 0], M[0, 1])

    def test_interior_values_1d(self):
        # interior node with neighbors at offsets {-dx, 0, +dx}:
        # M11 = 2*phi(dx) + phi(0) = 2*(4/81) + 54/81 = 62/81
        # M12 = 0 by odd symmetry, M22 = 2*dx^2*phi(dx) = 8*dx^2/81
        grid, chi, V, table = _setup_1d()
        M = assemble_moment_fields(chi, table)
        dx = grid.spacing[0]
        mid = 5  # interior node of the physical domain
        assert M[0, 0][mid] == pytest.approx(62.0 / 81.0, rel=1e-13)
        assert M[0, 1][mid] == pytest.approx(0.0, abs=1e-15)
        assert M[1, 1][mid] == pytest.approx(8.0 * dx**2 / 81.0, rel=1e-13)

    def test_matches_direct_sum_oracle(self, disc2d, ref2d):
        # entry by entry, each against its own scale
        M = assemble_moment_fields(disc2d.chi, disc2d.table)
        direct = ref2d.moment_matrices()
        for pq in _upper_pairs(disc2d.table.size):
            fc = ref2d.restrict(M[pq])
            scale = max(np.max(np.abs(direct[pq])), 1e-300)
            assert np.max(np.abs(fc - direct[pq])) < 1e-11 * scale

    def test_spd_at_active_nodes(self, disc2d):
        M = assemble_moment_fields(disc2d.chi, disc2d.table)
        mats = M[:, :, disc2d.chi > 0.5].transpose(2, 0, 1)
        np.linalg.cholesky(mats)  # raises if any matrix is not SPD

    @pytest.mark.parametrize(
        "dim,n,expected",
        [(1, 1, 7), (1, 2, 11), (2, 1, 13), (2, 2, 31), (3, 1, 21), (3, 2, 71)],
    )
    def test_transform_count(self, dim, n, expected):
        # 1 mask transform + a forward/inverse pair per distinct exponent sum
        plan = plan_extension((2.0,) * dim, 2.5, counts=(12,) * dim)
        grid = build_grid(plan, (-1.0,) * dim)
        basis = enumerate_basis(n, dim)
        table = build_basis_table(grid, basis, KernelSpec(plan.kernel_support))
        sums = {
            tuple(np.add(a, b))
            for a, b in itertools.combinations_with_replacement(
                basis.exponents, 2
            )
        }
        assert 1 + 2 * len(sums) == expected
        prov = CountingFFTProvider()
        M = assemble_moment_fields(np.ones(grid.shape), table, prov)
        assert prov.forward_count == 1 + len(sums)
        assert prov.inverse_count == len(sums)
        assert M.shape == (basis.size, basis.size) + grid.shape

    def test_matches_pairwise_products(self, disc3d_quadratic):
        # the exponent-sum integrand against the product H_p * H_q^a of the
        # two basis entries, convolved with the mask pair by pair
        disc = disc3d_quadratic
        table = disc.table
        xi = disc.grid.wrapped_offsets()
        H = [monomial(xi, alpha) for alpha in table.basis.exponents]
        Ha = list(
            weighted_monomials(disc.grid, table.kernel, table.basis.exponents)
        )
        M = assemble_moment_fields(disc.chi, table)
        for p, q in _upper_pairs(table.size):
            pairwise = disc.chi * circular_convolve(disc.chi, H[p] * Ha[q])
            if p == q:
                pairwise = pairwise + (1.0 - disc.chi)
            assert rel_err(M[p, q], pairwise) < 1e-13
            assert np.array_equal(M[q, p], M[p, q])


class TestInversion:
    def test_identity_rows_outside(self):
        grid, chi, V, table = _setup_1d()
        precomp = build_moment_precomp(chi, V, table)
        outside = chi < 0.5
        assert np.allclose(precomp.b0[0][outside], 1.0)
        assert np.allclose(precomp.b0[1][outside], 0.0)
        assert np.allclose(precomp.bgrad[0][0][outside], 0.0)
        assert np.allclose(precomp.bgrad[0][1][outside], -1.0)
        assert np.all(precomp.V[outside] == 0.0)

    def test_interior_b0_1d(self):
        # the 2x2 moment matrix is diag(62/81, 8 dx^2/81), so b0 = [81/62, 0]
        grid, chi, V, table = _setup_1d()
        precomp = build_moment_precomp(chi, V, table)
        mid = 5
        assert precomp.b0[0][mid] == pytest.approx(81.0 / 62.0, rel=1e-12)
        assert precomp.b0[1][mid] == pytest.approx(0.0, abs=1e-12)

    def test_3d_quadratic_inverts(self, disc3d):
        # 27 neighbors suffice for s = 4; also check s = 10 with wider support
        assert disc3d.precomp.b0[0].shape == disc3d.grid.shape

    def test_matches_numpy_inverse(self, disc2d):
        _assert_rows_match_numpy(disc2d)

    def test_matches_numpy_inverse_3d_quadratic(self, disc3d_quadratic):
        _assert_rows_match_numpy(disc3d_quadratic)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 10])
    def test_invert_symmetric_matches_numpy(self, s):
        rng = np.random.default_rng(40 + s)
        A = rng.standard_normal((60, s, 3 * s))
        mats = A @ A.transpose(0, 2, 1)
        mats[::4] = np.eye(s)  # the identity block off the domain
        inv, min_pivot = _invert_symmetric(_node_last(mats))
        inv_np = np.linalg.inv(mats)
        assert rel_err(inv.transpose(2, 0, 1), inv_np) <= 1e-12
        assert np.all(min_pivot[::4] == 1.0)
        assert np.all(min_pivot > SINGULAR_PIVOT_RTOL)

    @pytest.mark.parametrize("dim,n,a_tilde", [(2, 1, 1.5), (3, 1, 1.5),
                                               (2, 2, 2.5), (3, 2, 2.5)])
    def test_rank_deficient_node_flagged(self, dim, n, a_tilde):
        # a node that sees fewer lattice neighbors than basis entries has a
        # singular moment matrix; the full stencil does not
        reach = range(-int(np.ceil(a_tilde)) + 1, int(np.ceil(a_tilde)))
        stencil = list(itertools.product(reach, repeat=dim))
        s = enumerate_basis(n, dim).size
        rng = np.random.default_rng(dim + 10 * n)
        mats = [_lattice_moment(stencil, dim, n, a_tilde)]
        for _ in range(100):
            m = int(rng.integers(1, s))
            picks = rng.choice(len(stencil), m, replace=False)
            mats.append(
                _lattice_moment([stencil[i] for i in picks], dim, n, a_tilde)
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, min_pivot = _invert_symmetric(_node_last(np.array(mats)))
        assert min_pivot[0] > SINGULAR_PIVOT_RTOL
        assert np.all(min_pivot[1:] < SINGULAR_PIVOT_RTOL)

    def test_rows_match_reference(self, disc2d, ref2d):
        # each row set relative to its own maximum; entries that vanish
        # analytically are rounding noise on both paths
        rows = ref2d.moment_rows()
        fc = disc2d.precomp.rows[..., ref2d.active]
        assert fc.shape == rows.shape
        assert rel_err(fc[0], rows[0]) < 1e-10
        assert rel_err(fc[1:], rows[1:]) < 1e-10

    def test_ill_conditioned_warns(self):
        grid, chi, V, table = _setup_1d()
        M = assemble_moment_fields(chi, table)
        # squeeze the second diagonal towards singular (pivot still above
        # the 1e-14 threshold, condition estimate beyond 1e12)
        M[1, 1] = np.where(chi > 0.5, 1e-13, M[1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedMomentWarning):
                invert_moments(M, chi, V, table)

    @pytest.mark.parametrize("s,dim", [(3, 2), (4, 3), (10, 3)])
    def test_rank_deficient_gram_never_silent(self, s, dim):
        # the condition bound stays a warning: a dense rank-(s-1) Gram
        # matrix whose last pivot survives rounding above the 1e-14 test
        # must still trip the 1e12 condition warning, one node at a time
        rng = np.random.default_rng(s)
        for _ in range(200):
            A = rng.standard_normal((s, s - 1))
            M = (A @ A.T)[:, :, None]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    _b_rows(M, dim, np.ones(1, dtype=bool),
                            lambda i: (i, (0.0,)))
                except SingularMomentError:
                    continue
            assert any(
                issubclass(w.category, IllConditionedMomentWarning)
                for w in caught
            )

    def test_singular_node_reported(self):
        # an isolated active node has 1 neighbor < s = 2: singular
        plan = plan_extension(2.0, 1.5, counts=16)
        grid = build_grid(plan, -1.0)
        x = grid.axes()[0]
        chi = np.zeros(grid.shape)
        chi[5] = 1.0
        basis = enumerate_basis(1, 1)
        table = build_basis_table(grid, basis, KernelSpec(plan.kernel_support))
        V = quadrature_weights(grid, chi)
        M = assemble_moment_fields(chi, table)
        with pytest.raises(SingularMomentError) as err:
            invert_moments(M, chi, V, table)
        assert err.value.node_index == (5,)
        assert err.value.coordinate[0] == pytest.approx(x[5])
        # the oracle counts nodes in the same C order and names the same one
        model = ReferenceModel(grid, chi, V, basis, table.kernel)
        with pytest.raises(SingularMomentError) as ref_err:
            model.moment_rows()
        assert ref_err.value.node_index == (5,)
        assert ref_err.value.coordinate == err.value.coordinate


def _stack_with(nodes, specials, s=3, seed=7):
    """(s, s, *nodes) stack of random SPD matrices, with the matrices in
    specials ({flat node index: s x s matrix}) put in their place."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(nodes))
    A = rng.standard_normal((n, s, 2 * s))
    mats = A @ A.transpose(0, 2, 1)
    for i, m in specials.items():
        mats[i] = m
    return _node_last(mats).reshape((s, s) + tuple(nodes))


# the last pivot of this matrix is exactly zero
_SINGULAR = np.array([[2.0, 1.0, 2.0], [1.0, 2.0, 1.0], [2.0, 1.0, 2.0]])


class TestSlabs:
    """_b_rows over slabs of _SLAB_NODES nodes against a single slab."""

    @staticmethod
    def _one_and_slabbed(monkeypatch, compute, slab):
        monkeypatch.setattr(moment, "_SLAB_NODES", 1 << 30)
        one = compute()
        monkeypatch.setattr(moment, "_SLAB_NODES", slab)
        return one, compute()

    @pytest.mark.parametrize("fixture", ["disc2d", "disc3d_quadratic"])
    def test_rows_bit_identical(self, fixture, request, monkeypatch):
        disc = request.getfixturevalue(fixture)
        M = assemble_moment_fields(disc.chi, disc.table)
        # 37 divides no node count here: a short last slab on both paths
        assert M[0, 0].size > 37
        one, slabbed = self._one_and_slabbed(
            monkeypatch,
            lambda: invert_moments(M, disc.chi, disc.V, disc.table).rows,
            37,
        )
        assert np.array_equal(one, slabbed)
        one, slabbed = self._one_and_slabbed(
            monkeypatch, lambda: disc.reference().moment_rows(), 37
        )
        assert np.array_equal(one, slabbed)

    def test_singular_node_in_later_slab(self, monkeypatch):
        # flat node 5 is singular but inactive; 7 and 10 are singular and
        # active, in the third and fourth slab of three nodes each
        nodes = (3, 4)
        M = _stack_with(nodes, {5: _SINGULAR, 7: _SINGULAR, 10: _SINGULAR})
        active = np.ones(nodes, dtype=bool)
        active.flat[5] = False

        def raised():
            with pytest.raises(SingularMomentError) as err:
                _b_rows(M, 2, active, lambda multi: (multi, multi))
            return err.value

        one, slabbed = self._one_and_slabbed(monkeypatch, raised, 3)
        assert one.node_index == slabbed.node_index == (1, 3)
        assert one.pivot == slabbed.pivot

    def test_ill_conditioned_node_in_later_slab(self, monkeypatch):
        # condition estimate 1e13 at flat node 10 (slab 4 of 3 nodes) and
        # 1e14 at the inactive node 4: one warning, naming the active one
        nodes = (3, 4)
        M = _stack_with(nodes, {4: np.diag([1.0, 1.0, 1e-14]),
                                10: np.diag([1.0, 1.0, 1e-13])})
        active = np.ones(nodes, dtype=bool)
        active.flat[4] = False
        monkeypatch.setattr(moment, "_SLAB_NODES", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _b_rows(M, 2, active, lambda multi: (multi, multi))
        assert len(caught) == 1
        assert issubclass(caught[0].category, IllConditionedMomentWarning)
        assert "1.00e+13" in str(caught[0].message)


class TestReproducingConditions:
    def test_partition_of_unity(self, disc2d):
        # sum_I Psi_I(x_J) = 1 at active nodes <=> u_h of d = 1 equals 1
        ones = np.ones(disc2d.grid.shape)
        u = evaluate_field(ones, disc2d.precomp)
        active = disc2d.chi > 0.5
        assert np.max(np.abs(u[active] - 1.0)) < 1e-10

    def test_linear_reproduction(self, disc2d):
        X, Y = disc2d.grid.coordinates()
        field = 0.7 * X - 0.3 * Y + 0.1
        u = evaluate_field(field, disc2d.precomp)
        active = disc2d.chi > 0.5
        assert np.max(np.abs(u[active] - field[active])) < 1e-9 * np.max(
            np.abs(field[active])
        )

    def test_gradient_consistency(self, disc2d):
        # implicit gradient of nodal samples of x is 1, of a constant is 0
        X, _ = disc2d.grid.coordinates()
        active = disc2d.chi > 0.5
        gx = evaluate_gradient(X, disc2d.precomp)[0]
        assert np.max(np.abs(gx[active] - 1.0)) < 1e-8
        g1 = evaluate_gradient(np.ones(disc2d.grid.shape), disc2d.precomp)[0]
        assert np.max(np.abs(g1[active])) < 1e-8


class TestMemoryStory:
    def test_persistent_inventory_scales_with_s_and_d(self, disc2d):
        nbytes = disc2d.precomp.persistent_nbytes()
        n_total = disc2d.grid.total_nodes
        s, d = disc2d.table.size, disc2d.grid.dim
        # chi + V + (1 + d)s b-row fields + s real spectra
        expected_fields = 2 + (1 + d) * s + s
        assert nbytes == expected_fields * n_total * 8

    def test_inversion_transient_below_moment_stack(self):
        # the slabbed inversion holds the rows plus O(slab s^2) scratch,
        # never a second whole-stack array: at 32^3, s = 10, M is 26.2 MB
        disc = discretize(poisson_case(3), n=2, a_tilde=2.5, counts=32)
        assert disc.grid.shape == (32, 32, 32)
        M = assemble_moment_fields(disc.chi, disc.table)
        tracemalloc.start()
        try:
            rows = invert_moments(M, disc.chi, disc.V, disc.table).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes < M.nbytes
