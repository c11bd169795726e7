"""Moment assembly, nodewise inversion, and reproducing conditions."""

import itertools
import os
import pathlib
import subprocess
import sys
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
from fcrkpm.errors import (
    IllConditionedMomentWarning,
    InteriorMomentError,
    SingularMomentError,
)
from fcrkpm import moment
from fcrkpm.moment import (
    INTERIOR_RTOL,
    SINGULAR_PIVOT_RTOL,
    _b_rows,
    _exponent_sums,
    _invert_symmetric,
    boundary_band,
    interior_moments,
    off_band_deviation,
)
from fcrkpm.reference import ReferenceModel
from fcrkpm.verify import rel_err

from conftest import footprint_band


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


def _columns(mats):
    """(B, s, s) stack -> the (s^2, B) column table and the identity (s, s)
    index that `_invert_symmetric` and `_b_rows` take."""
    s = mats.shape[1]
    return (np.ascontiguousarray(mats.reshape(-1, s * s).T),
            np.arange(s * s).reshape(s, s))


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


def _matrices(M, table):
    """The (s, s, *grid) moment matrices spread from the fields of M."""
    return M[_exponent_sums(table.basis)[1]]


def _assert_rows_match_numpy(disc):
    # at the active nodes, the only ones the operators read the rows at
    M = assemble_moment_fields(disc.chi, disc.table)
    grid = disc.grid
    s = disc.table.size
    active = disc.chi > 0.5
    inv_np = np.linalg.inv(_matrices(M, disc.table)[..., active]
                           .transpose(2, 0, 1))
    rows = invert_moments(M, disc.chi, disc.V, disc.table).dense_rows()
    b0, bgrad = rows[0][:, active], rows[1:][..., active]
    for p in range(s):
        assert np.max(np.abs(b0[p] - inv_np[:, 0, p])) < 1e-12 * np.max(
            np.abs(inv_np[:, 0, :])
        )
        for ax in range(grid.dim):
            mine = bgrad[ax][p]
            assert np.max(np.abs(mine + inv_np[:, 1 + ax, p])) < 1e-12 * np.max(
                np.abs(inv_np[:, 1 + ax, :])
            )


class TestAssembly:
    def test_exponent_sums(self):
        # 2D n = 2: 15 distinct sums of the 21 pairs p <= q, in order of
        # first appearance, and a symmetric index that names each pair's
        # sum
        basis = enumerate_basis(2, 2)
        sums, index = _exponent_sums(basis)
        assert len(sums) == len(set(sums)) == 15
        assert sums[:3] == [(0, 0), (1, 0), (0, 1)]
        assert np.array_equal(index, index.T)
        for p, q in _upper_pairs(basis.size):
            alpha = np.add(basis.exponents[p], basis.exponents[q])
            assert sums[index[p, q]] == tuple(alpha)

    def test_interior_values_1d(self):
        # interior node with neighbors at offsets {-dx, 0, +dx}:
        # M11 = 2*phi(dx) + phi(0) = 2*(4/81) + 54/81 = 62/81
        # M12 = 0 by odd symmetry, M22 = 2*dx^2*phi(dx) = 8*dx^2/81
        grid, chi, V, table = _setup_1d()
        M = _matrices(assemble_moment_fields(chi, table), table)
        dx = grid.spacing[0]
        mid = 5  # interior node of the physical domain
        assert M[0, 0][mid] == pytest.approx(62.0 / 81.0, rel=1e-13)
        assert M[0, 1][mid] == pytest.approx(0.0, abs=1e-15)
        assert M[1, 1][mid] == pytest.approx(8.0 * dx**2 / 81.0, rel=1e-13)

    def test_matches_direct_sum_oracle(self, disc2d, ref2d):
        # entry by entry, each against its own scale
        M = _matrices(assemble_moment_fields(disc2d.chi, disc2d.table),
                      disc2d.table)
        direct = ref2d.moment_matrices()
        for pq in _upper_pairs(disc2d.table.size):
            fc = ref2d.restrict(M[pq])
            scale = max(np.max(np.abs(direct[pq])), 1e-300)
            assert np.max(np.abs(fc - direct[pq])) < 1e-11 * scale

    def test_spd_at_active_nodes(self, disc2d):
        M = _matrices(assemble_moment_fields(disc2d.chi, disc2d.table),
                      disc2d.table)
        mats = M[:, :, disc2d.chi > 0.5].transpose(2, 0, 1)
        np.linalg.cholesky(mats)  # raises if any matrix is not SPD

    @pytest.mark.parametrize(
        "dim,n,expected",
        [(1, 1, 7), (1, 2, 11), (2, 1, 13), (2, 2, 31), (3, 1, 21), (3, 2, 71)],
    )
    def test_transform_count(self, dim, n, expected):
        # `expected` is 1 + 2 D for D distinct exponent sums, what
        # convolving each integrand field with the mask would run; the
        # integrand spectra are derived instead, so only the mask
        # transform and one inverse per distinct sum run, D fewer
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
        assert prov.forward_count == 1
        assert prov.inverse_count == len(sums)
        # one field per distinct sum, not an (s, s) stack
        assert M.shape == (len(sums),) + grid.shape

    def test_matches_pairwise_products(self, disc3d_quadratic):
        # the exponent-sum integrand against the product H_p * H_q^a of the
        # two basis entries, convolved with the mask pair by pair, over the
        # whole grid: the fields are not masked
        disc = disc3d_quadratic
        table = disc.table
        xi = disc.grid.wrapped_offsets()
        H = [monomial(xi, alpha) for alpha in table.basis.exponents]
        Ha = list(
            weighted_monomials(disc.grid, table.kernel, table.basis.exponents)
        )
        M = _matrices(assemble_moment_fields(disc.chi, table), table)
        for p, q in _upper_pairs(table.size):
            pairwise = circular_convolve(disc.chi, H[p] * Ha[q])
            assert rel_err(M[p, q], pairwise) < 1e-13


class TestInversion:
    def test_inactive_nodes_carry_interior_rows(self):
        # only active nodes are inverted: off the domain the layout holds
        # the interior constant, which chi and V = 0 mask away
        grid, chi, V, table = _setup_1d()
        precomp = build_moment_precomp(chi, V, table)
        outside = chi < 0.5
        assert np.any(outside)
        rows = precomp.dense_rows()
        assert np.all(rows[..., outside] == precomp.c[..., None])
        assert not np.any(outside.ravel()[precomp.band])
        assert np.all(precomp.V[outside] == 0.0)

    def test_interior_b0_1d(self):
        # the 2x2 moment matrix is diag(62/81, 8 dx^2/81), so b0 = [81/62, 0]
        grid, chi, V, table = _setup_1d()
        precomp = build_moment_precomp(chi, V, table)
        mid = 5
        b0 = precomp.dense_rows()[0]
        assert b0[0][mid] == pytest.approx(81.0 / 62.0, rel=1e-12)
        assert b0[1][mid] == pytest.approx(0.0, abs=1e-12)

    def test_3d_quadratic_inverts(self, disc3d):
        # 27 neighbors suffice for s = 4; also check s = 10 with wider support
        assert disc3d.precomp.dense_rows()[0, 0].shape == disc3d.grid.shape

    def test_matches_numpy_inverse(self, disc2d):
        _assert_rows_match_numpy(disc2d)

    def test_matches_numpy_inverse_3d_quadratic(self, disc3d_quadratic):
        _assert_rows_match_numpy(disc3d_quadratic)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 10])
    def test_invert_symmetric_matches_numpy(self, s):
        rng = np.random.default_rng(40 + s)
        A = rng.standard_normal((60, s, 3 * s))
        mats = A @ A.transpose(0, 2, 1)
        mats[::4] = np.eye(s)  # every pivot exactly 1
        inv, min_pivot = _invert_symmetric(*_columns(mats))
        inv_np = np.linalg.inv(mats)
        assert rel_err(inv.transpose(2, 0, 1), inv_np) <= 1e-12
        assert np.all(min_pivot[::4] == 1.0)
        assert np.all(min_pivot > SINGULAR_PIVOT_RTOL)

    @pytest.mark.parametrize("dim,counts", [(2, 64), (3, 16)])
    def test_column_table_matches_spread_stack(self, dim, counts):
        # the LDL^T read through _exponent_sums' index gives exactly what it
        # gives on the (s, s) stack those columns spread into, read through
        # the identity index; and both are invert_moments' rows
        disc = discretize(poisson_case(dim), n=2, a_tilde=2.5, counts=counts)
        M = assemble_moment_fields(disc.chi, disc.table)
        mc = interior_moments(disc.table)
        band = disc.precomp.band
        cols = np.concatenate([mc[:, None], M.reshape(len(mc), -1)[:, band]],
                              1)
        _, index = _exponent_sums(disc.table.basis)
        s = disc.table.size
        rows = _b_rows(cols, index, dim, lambda i: ((i,), (i,)))
        spread = _b_rows(cols[index].reshape(s * s, -1),
                         np.arange(s * s).reshape(s, s), dim,
                         lambda i: ((i,), (i,)))
        assert np.array_equal(rows, spread)
        assert np.array_equal(rows[..., 0], disc.precomp.c)
        assert np.array_equal(rows[..., 1:], disc.precomp.band_rows)

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
            _, min_pivot = _invert_symmetric(*_columns(np.array(mats)))
        assert min_pivot[0] > SINGULAR_PIVOT_RTOL
        assert np.all(min_pivot[1:] < SINGULAR_PIVOT_RTOL)

    def test_rows_match_reference(self, disc2d, ref2d):
        # each row set relative to its own maximum; entries that vanish
        # analytically are rounding noise on both paths
        rows = ref2d.moment_rows()
        fc = disc2d.precomp.dense_rows()[..., ref2d.active]
        assert fc.shape == rows.shape
        assert rel_err(fc[0], rows[0]) < 1e-10
        assert rel_err(fc[1:], rows[1:]) < 1e-10

    def test_ill_conditioned_warns(self):
        grid, chi, V, table = _setup_1d()
        M = assemble_moment_fields(chi, table)
        # squeeze the band's matrices towards singular, diag(M_00, 1e-13)
        # (pivot still above the 1e-14 threshold, condition estimate beyond
        # 1e12); off the band they must stay the interior one
        band = boundary_band(chi, table)
        _, index = _exponent_sums(table.basis)
        M[index[0, 1]].flat[band] = 0.0
        M[index[1, 1]].flat[band] = 1e-13
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
            M, index = _columns((A @ A.T)[None])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    _b_rows(M, index, dim, lambda i: ((i,), (0.0,)))
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


def _stack_with(n, specials, s=3, seed=7):
    """(s^2, n) column table and identity index of n random SPD matrices,
    with the matrices in specials ({node column: s x s matrix}) put in
    their place."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, s, 2 * s))
    mats = A @ A.transpose(0, 2, 1)
    for i, m in specials.items():
        mats[i] = m
    return _columns(mats)


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

        def band_layout():
            pc = invert_moments(M, disc.chi, disc.V, disc.table)
            return np.concatenate([pc.c[..., None], pc.band_rows], axis=2)

        # 37 divides no inverted node count here (the band and one
        # interior node): a short last slab on both paths
        one, slabbed = self._one_and_slabbed(monkeypatch, band_layout, 37)
        assert one.shape[2] > 37
        assert np.array_equal(one, slabbed)
        one, slabbed = self._one_and_slabbed(
            monkeypatch, lambda: disc.reference().moment_rows(), 37
        )
        assert np.array_equal(one, slabbed)

    def test_singular_node_in_later_slab(self, monkeypatch):
        # columns 7 and 10 of 12 are singular, in the third and fourth slab
        # of three nodes each
        M, index = _stack_with(12, {7: _SINGULAR, 10: _SINGULAR})

        def raised():
            with pytest.raises(SingularMomentError) as err:
                _b_rows(M, index, 2, lambda i: ((i,), (i,)))
            return err.value

        one, slabbed = self._one_and_slabbed(monkeypatch, raised, 3)
        assert one.node_index == slabbed.node_index == (7,)
        assert one.pivot == slabbed.pivot

    def test_ill_conditioned_node_in_later_slab(self, monkeypatch):
        # condition estimates 2e12 at column 4 and 1e13 at column 10
        # (slabs 2 and 4 of 3 nodes): one warning, with the worst
        M, index = _stack_with(12, {4: np.diag([1.0, 1.0, 5e-13]),
                                    10: np.diag([1.0, 1.0, 1e-13])})
        monkeypatch.setattr(moment, "_SLAB_NODES", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _b_rows(M, index, 2, lambda i: ((i,), (i,)))
        assert len(caught) == 1
        assert issubclass(caught[0].category, IllConditionedMomentWarning)
        assert "1.00e+13" in str(caught[0].message)


class TestBand:
    """The boundary band, its edge cases, and the interior check."""

    # two wide-band cells, then the cells of fcrkpm verify
    @pytest.mark.parametrize("dim,counts,n,a_tilde", [
        (2, 64, 2, 2.5), (3, 32, 2, 2.5), (1, 64, 1, 1.5), (1, 64, 2, 2.5),
        (2, 32, 1, 1.5), (2, 32, 2, 2.5), (3, 12, 1, 1.5), (3, 16, 2, 2.5),
    ])
    def test_band_is_the_footprint_boundary(self, dim, counts, n, a_tilde):
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=counts)
        band = disc.precomp.band
        support = disc.table.kernel.support
        assert np.array_equal(band, footprint_band(disc.chi, disc.grid,
                                                   support))
        # the dilation wraps: the mask rolled across the seam
        rolled = np.roll(disc.chi, [counts // 2] * dim, tuple(range(dim)))
        assert np.array_equal(boundary_band(rolled, disc.table),
                              footprint_band(rolled, disc.grid, support))
        M = assemble_moment_fields(disc.chi, disc.table)
        Mc = interior_moments(disc.table)
        deviation, _ = off_band_deviation(M, disc.chi, band, Mc)
        assert deviation <= INTERIOR_RTOL

    def test_package_import_leaves_out_scipy_ndimage(self):
        # the band is a rolled-mask dilation: nothing in the package needs
        # scipy.ndimage, so a fresh interpreter's import does not load it;
        # nor scipy.sparse, which only the oracle loads, on first use
        src = str(pathlib.Path(moment.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for module in ("fcrkpm", "fcrkpm.cli"):
            code = (f"import sys, {module}; print(sorted(m for m in "
                    "('scipy.ndimage', 'scipy.sparse') if m in sys.modules))")
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120)
            assert out.stdout.strip() == "[]", (module, out.stdout)

    def test_empty_band_on_the_whole_periodic_box(self, disc2d):
        grid, table = disc2d.grid, disc2d.table
        chi = np.ones(grid.shape)
        M = assemble_moment_fields(chi, table)
        pc = invert_moments(M, chi, quadrature_weights(grid, chi), table)
        d, s = grid.dim, table.size
        assert pc.band.size == 0 and pc.band_rows.shape == (1 + d, s, 0)
        inv = np.linalg.inv(_matrices(M, table)[:, :, 0, 0])
        assert rel_err(pc.c[0], inv[0]) < 1e-12
        assert rel_err(pc.c[1:], -inv[1 : 1 + d]) < 1e-12
        u1 = evaluate_field(np.ones(grid.shape), pc)
        assert np.max(np.abs(u1 - 1.0)) <= 1e-10

    def test_no_interior_node(self):
        # a strip two nodes wide: every footprint reaches off it, so every
        # active node is on the band; the constant is still M_c's rows
        plan = plan_extension((2.0, 2.0), 1.5, counts=16)
        grid = build_grid(plan, (-1.0, -1.0))
        chi = np.zeros(grid.shape)
        chi[5:7, 3:13] = 1.0
        table = build_basis_table(grid, enumerate_basis(1, 2),
                                  KernelSpec(plan.kernel_support))
        M = assemble_moment_fields(chi, table)
        pc = invert_moments(M, chi, quadrature_weights(grid, chi), table)
        active = chi > 0.5
        assert np.array_equal(pc.band, np.flatnonzero(active))
        inv_c = np.linalg.inv(_matrices(interior_moments(table), table))
        assert rel_err(pc.c[0], inv_c[0]) < 1e-12
        assert rel_err(pc.c[1:], -inv_c[1:3]) < 1e-12
        inv = np.linalg.inv(_matrices(M, table)[..., active]
                            .transpose(2, 0, 1))
        assert rel_err(pc.band_rows[0], inv[:, 0, :].T) < 1e-12
        u1 = evaluate_field(np.ones(grid.shape), pc)
        assert np.max(np.abs(u1[active] - 1.0)) <= 1e-10

    def test_perturbed_off_band_node_named(self, disc2d):
        # one relative 1e-8 change at an active node off the band, not the
        # representative: the check raises and names that node
        M = assemble_moment_fields(disc2d.chi, disc2d.table)
        off = (disc2d.chi > 0.5).ravel()
        off[disc2d.precomp.band] = False
        node = tuple(int(k) for k in np.unravel_index(
            np.flatnonzero(off)[-1], disc2d.grid.shape))
        k = _exponent_sums(disc2d.table.basis)[1][0, 0]
        M[(k,) + node] *= 1.0 + 1e-8
        with pytest.raises(InteriorMomentError) as err:
            invert_moments(M, disc2d.chi, disc2d.V, disc2d.table)
        assert err.value.node_index == node
        assert err.value.coordinate == disc2d.grid.node_coordinate(node)
        assert 1e-9 < err.value.deviation < 1e-7

    def test_first_off_band_node_named(self):
        # the first active node off the band in C order, which a sampled
        # interior matrix would have been taken from, is named itself
        disc = discretize(poisson_case(2), counts=32)
        M = assemble_moment_fields(disc.chi, disc.table)
        off = (disc.chi > 0.5).ravel()
        off[disc.precomp.band] = False
        node = tuple(int(k) for k in np.unravel_index(
            np.flatnonzero(off)[0], disc.grid.shape))
        k = _exponent_sums(disc.table.basis)[1][0, 0]
        M[(k,) + node] *= 1.0 + 1e-8
        with pytest.raises(InteriorMomentError) as err:
            invert_moments(M, disc.chi, disc.V, disc.table)
        assert err.value.node_index == node

    @pytest.mark.parametrize("dim,n,a_tilde",
                             [(1, 1, 1.5), (2, 2, 2.5), (3, 1, 1.5),
                              (3, 2, 2.5)])
    def test_interior_moments_match_the_fft_stack(self, dim, n, a_tilde):
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=16)
        M = assemble_moment_fields(disc.chi, disc.table)
        off = (disc.chi > 0.5).ravel()
        off[disc.precomp.band] = False
        mc = interior_moments(disc.table)
        at = M.reshape(len(mc), -1)[:, off]
        assert np.max(np.abs(at - mc[:, None])) <= 1e-15 * np.abs(mc).max()


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
        pc = disc2d.precomp
        n_total = disc2d.grid.total_nodes
        s, d = disc2d.table.size, disc2d.grid.dim
        n_band = pc.band.size
        assert 0 < n_band < np.count_nonzero(disc2d.chi)
        # chi + V + s real spectra as whole fields; the (1 + d)s b-rows as
        # one constant plus one value per band node, and the band index
        fields = (2 + s) * n_total * 8
        rows = (1 + d) * s * (1 + n_band) * 8
        assert pc.persistent_nbytes() == fields + rows + n_band * 8

    def test_inversion_transient_below_moment_stack(self):
        # the inversion copies out the D columns of the band (28.8 % of the
        # box here) and holds O(slab s^2) scratch next to the band rows,
        # never an (s, s) stack: it stays below the D = 35 moment fields it
        # reads, 9.2 MB at 32^3 (a whole-box s = 10 stack would be 26.2 MB)
        disc = discretize(poisson_case(3), n=2, a_tilde=2.5, counts=32)
        assert disc.grid.shape == (32, 32, 32)
        M = assemble_moment_fields(disc.chi, disc.table)
        tracemalloc.start()
        try:
            pc = invert_moments(M, disc.chi, disc.V, disc.table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - pc.band_rows.nbytes < M.nbytes
