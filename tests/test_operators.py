"""Convolution-form operators: oracle equivalence, structure, audit counts."""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrkpm import (
    CountingFFTProvider,
    boundary_force,
    discretize,
    evaluate_field,
    evaluate_gradient,
    external_force,
    forward,
    internal_force,
    inverse,
    lumped_mass,
    mass_force,
    nonlinear_force_gradient,
    poisson_case,
)
from fcrkpm.basis import KernelSpec, build_basis_table, enumerate_basis
from fcrkpm.grid import (
    boundary_face_weights,
    build_grid,
    build_masks,
    plan_extension,
    quadrature_weights,
)
from fcrkpm.moment import assemble_moment_fields, build_moment_precomp
from fcrkpm.reference import ReferenceModel

from conftest import rel_err


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


@pytest.fixture(scope="module")
def discs():
    return {
        1: discretize(poisson_case(1), counts=64),
        2: discretize(poisson_case(2), counts=32),
        3: discretize(poisson_case(3), counts=16),
    }


@pytest.fixture(scope="module")
def refs(discs):
    return {dim: d.reference() for dim, d in discs.items()}


class TestInternalForce:
    def test_zero(self, discs):
        d = discs[2]
        out = internal_force(np.zeros(d.grid.shape), d.precomp)
        assert np.all(out == 0.0)

    def test_constant_coefficients(self, discs, rng):
        # constant reproduction makes the gradient rows annihilate constants
        d = discs[2]
        c = 3.7
        out = internal_force(c * np.ones(d.grid.shape), d.precomp)
        probe = internal_force(d.chi * rng.standard_normal(d.grid.shape), d.precomp)
        assert np.max(np.abs(out)) < 1e-9 * abs(c) * np.max(np.abs(probe))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_oracle(self, dim, discs, refs, rng):
        d = discs[dim]
        coeff = d.chi * rng.standard_normal(d.grid.shape)
        assert rel_err(
            internal_force(coeff, d.precomp), refs[dim].f_int_direct(coeff)
        ) < 1e-10

    def test_symmetry_and_psd(self, discs, rng):
        d = discs[2]
        samples = [d.chi * rng.standard_normal(d.grid.shape) for _ in range(8)]
        scale = max(
            np.linalg.norm(internal_force(s, d.precomp)) / np.linalg.norm(s)
            for s in samples
        )
        for d1, d2 in zip(samples[::2], samples[1::2]):
            f1 = internal_force(d1, d.precomp)
            f2 = internal_force(d2, d.precomp)
            sym = abs(np.vdot(d1, f2) - np.vdot(d2, f1))
            assert sym <= 1e-10 * np.linalg.norm(d1) * np.linalg.norm(d2) * scale
        for s in samples:
            quad = np.vdot(s, internal_force(s, d.precomp))
            assert quad >= -1e-10 * scale * np.linalg.norm(s) ** 2

    def test_mask_absorption(self, discs, rng):
        d = discs[2]
        raw = rng.standard_normal(d.grid.shape)  # junk in the extension too
        assert np.array_equal(
            internal_force(raw, d.precomp),
            internal_force(d.chi * raw, d.precomp),
        )


class TestStackedRows:
    """The stacked row form does the arithmetic of a loop over row sets."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_internal_force_equals_per_row_loop(self, dim, discs, rng):
        d = discs[dim]
        pc = d.precomp
        coeff = rng.standard_normal(d.grid.shape)
        # the loop applies c_p (1 or i) and the reflection sign entry by
        # entry; multiplying by i is exact, so visiting the entries in the
        # primitives' parity order makes the two agree bit for bit
        even, odd = pc.table.parity_split
        c = {p: 1j if p in odd else 1.0 for p in even + odd}
        d_hat = forward(pc.chi * coeff)
        grads = [np.zeros(d.grid.shape) for _ in pc.bgrad]
        for p in even + odd:
            Dp = inverse(d_hat * (c[p] * pc.table.hat_Ha[p]))
            for acc, row in zip(grads, pc.bgrad):
                acc += row[p] * Dp
        fields = [pc.V * g for g in grads]
        B_hat = np.zeros(d.grid.shape, dtype=complex)
        for p in odd + even:
            mixed = pc.bgrad[0][p] * fields[0]
            for row, f in zip(pc.bgrad[1:], fields[1:]):
                mixed += row[p] * f
            term = forward(mixed) * (c[p] * pc.table.hat_Ha[p])
            if p in odd:
                B_hat -= term
            else:
                B_hat += term
        assert np.array_equal(
            internal_force(coeff, pc), pc.chi * inverse(B_hat)
        )
        assert np.array_equal(
            np.stack(evaluate_gradient(coeff, pc)),
            pc.chi * np.stack(grads),
        )


class TestExternalForce:
    def test_zero(self, discs):
        d = discs[2]
        assert np.all(external_force(np.zeros(d.grid.shape), d.precomp) == 0.0)

    def test_unit_source_sums_to_volume(self, discs):
        # partition of unity under nodal integration
        for dim, d in discs.items():
            f = external_force(np.ones(d.grid.shape), d.precomp)
            assert np.sum(f) == pytest.approx(2.0**dim, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_oracle(self, dim, discs, refs, rng):
        d = discs[dim]
        r = d.chi * rng.standard_normal(d.grid.shape)
        assert rel_err(external_force(r, d.precomp), refs[dim].f_r_direct(r)) < 1e-10


class TestEvaluateField:
    def test_zero(self, discs):
        d = discs[2]
        assert np.all(evaluate_field(np.zeros(d.grid.shape), d.precomp) == 0.0)

    def test_linear_reproduction(self, discs):
        d = discs[2]
        X, _ = d.grid.coordinates()
        u = evaluate_field(2.5 * X, d.precomp)
        active = d.chi > 0.5
        assert np.max(np.abs(u[active] - 2.5 * X[active])) < 1e-9 * np.max(
            np.abs(2.5 * X[active])
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_oracle(self, dim, discs, refs, rng):
        d = discs[dim]
        coeff = d.chi * rng.standard_normal(d.grid.shape)
        assert rel_err(
            evaluate_field(coeff, d.precomp), refs[dim].u_h_direct(coeff)
        ) < 1e-10


@pytest.fixture(scope="module")
def face_setup(discs):
    d = discs[2]
    face, area = boundary_face_weights(
        d.grid, d.chi, d.case.bounds, axis=0, side="hi"
    )
    return d, face, area


class TestBoundaryForce:
    def test_zero(self, face_setup):
        d, face, area = face_setup
        assert np.all(
            boundary_force(np.zeros(d.grid.shape), area, d.precomp) == 0.0
        )

    def test_unit_flux_sums_to_face_measure(self, face_setup):
        d, face, area = face_setup
        f = boundary_force(face, area, d.precomp)
        assert np.sum(f) == pytest.approx(np.sum(face * area), rel=1e-10)

    def test_matches_oracle(self, face_setup, refs, rng):
        d, face, area = face_setup
        q = face * rng.standard_normal(d.grid.shape)
        assert rel_err(
            boundary_force(q, area, d.precomp), refs[2].f_q_direct(q, area)
        ) < 1e-10


class TestNonlinearForces:
    def test_scalar_zero_and_unit(self, discs):
        d = discs[2]
        assert np.all(
            external_force(np.zeros(d.grid.shape), d.precomp) == 0.0
        )
        # a unit source projects onto the row sums of the consistent mass
        ones = np.ones(d.grid.shape)
        assert np.array_equal(
            external_force(ones, d.precomp),
            lumped_mass(d.precomp),
        )

    def test_scalar_cubic_matches_oracle(self, discs, refs, rng):
        d = discs[2]
        coeff = d.chi * rng.standard_normal(d.grid.shape)
        u = evaluate_field(coeff, d.precomp)
        assert rel_err(
            external_force(u**3, d.precomp),
            refs[2].f_r_direct(u**3),
        ) < 1e-10

    def test_gradient_zero(self, discs):
        d = discs[2]
        z = np.zeros(d.grid.shape)
        assert np.all(nonlinear_force_gradient([z, z], d.precomp) == 0.0)

    def test_gradient_reproduces_internal_force(self, discs, rng):
        # feeding the implicit gradient of u_h back in gives K d exactly
        d = discs[2]
        coeff = d.chi * rng.standard_normal(d.grid.shape)
        grads = evaluate_gradient(coeff, d.precomp)
        f_n = nonlinear_force_gradient(grads, d.precomp)
        f_int = internal_force(coeff, d.precomp)
        assert rel_err(f_n, f_int) < 1e-10

    def test_gradient_matches_oracle(self, discs, refs, rng):
        d = discs[2]
        fields = [d.chi * rng.standard_normal(d.grid.shape) for _ in range(2)]
        ref = refs[2]
        _, B = ref.shape_matrices()
        # direct pair sum: f_J = sum_S V_S sum_ax grad-Psi_J(x_S) N_ax(x_S)
        direct = ref.extend(
            sum(B_ax.T @ (ref.V * ref.restrict(f)) for B_ax, f in zip(B, fields))
        )
        got = nonlinear_force_gradient(fields, d.precomp)
        assert rel_err(got, direct) < 1e-10


class TestMassForce:
    def test_zero(self, discs):
        d = discs[2]
        assert np.all(mass_force(np.zeros(d.grid.shape), d.precomp) == 0.0)

    def test_symmetry(self, discs, rng):
        d = discs[2]
        for _ in range(3):
            d1 = d.chi * rng.standard_normal(d.grid.shape)
            d2 = d.chi * rng.standard_normal(d.grid.shape)
            lhs = np.vdot(d1, mass_force(d2, d.precomp))
            rhs = np.vdot(d2, mass_force(d1, d.precomp))
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_oracle(self, dim, discs, refs, rng):
        d = discs[dim]
        dd = d.chi * rng.standard_normal(d.grid.shape)
        assert rel_err(
            mass_force(dd, d.precomp), refs[dim].mass_apply_direct(dd)
        ) < 1e-10


class TestLumpedMass:
    def test_zero_outside(self, discs):
        d = discs[2]
        Ml = lumped_mass(d.precomp)
        assert np.all(Ml[d.chi < 0.5] == 0.0)

    def test_total_equals_volume_weights(self, discs):
        for d in discs.values():
            Ml = lumped_mass(d.precomp)
            assert np.sum(Ml) == pytest.approx(np.sum(d.chi * d.V), rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_row_sums(self, dim, discs, refs):
        d = discs[dim]
        assert rel_err(lumped_mass(d.precomp), refs[dim].lumped_mass_direct()) < 1e-10

    def test_positive_at_active_nodes(self, discs):
        for d in discs.values():
            Ml = lumped_mass(d.precomp)
            assert np.all(Ml[d.chi > 0.5] > 0.0)


class TestTransformCounts:
    """Exact FFT/iFFT counts per operator call."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_counts(self, dim, discs, rng):
        d = discs[dim]
        s = d.table.size
        prov = CountingFFTProvider()
        coeff = d.chi * rng.standard_normal(d.grid.shape)

        prov.reset()
        internal_force(coeff, d.precomp, prov)
        assert prov.total == 2 * (s + 1)

        prov.reset()
        mass_force(coeff, d.precomp, prov)
        assert prov.total == 2 * (s + 1)

        prov.reset()
        external_force(coeff, d.precomp, prov)
        assert prov.total == s + 1

        prov.reset()
        evaluate_field(coeff, d.precomp, prov)
        assert prov.total == s + 1

        prov.reset()
        nonlinear_force_gradient([coeff] * dim, d.precomp, prov)
        assert prov.total == s + 1

        prov.reset()
        lumped_mass(d.precomp, prov)
        assert prov.total == s + 1

    def test_boundary_count(self, discs, rng):
        d = discs[2]
        s = d.table.size
        face, area = boundary_face_weights(
            d.grid, d.chi, d.case.bounds, axis=1, side="lo"
        )
        prov = CountingFFTProvider()
        boundary_force(face, area, d.precomp, prov)
        assert prov.total == s + 1


# total node counts per axis, kept small for the O(N * neighbors) oracle;
# two balls need finer grids, where 2.5 spacings still fit twice in [-1, 1]
_BALL_COUNTS = {1: (24, 48), 2: (16, 28), 3: (12, 16)}
_TWO_BALL_COUNTS = {2: (16, 28), 3: (16, 18)}


def _draw_cell(draw, dims, counts):
    """Dimension, basis degree and grid of a random oracle problem.

    Degree 2 draws a_tilde >= 2.5: below that a node at a pole of a ball
    sees only two distinct coordinates along its axis, so no radius makes
    its moment matrix invertible.
    """
    dim = draw(st.integers(*dims))
    degree = draw(st.integers(1, 2))
    a_tilde = draw(st.floats(1.5 if degree == 1 else 2.5, 3.5))
    plan = plan_extension(
        (2.0,) * dim, a_tilde, counts=draw(st.integers(*counts[dim]))
    )
    return plan, build_grid(plan, (-1.0,) * dim), degree


@st.composite
def _ball_problems(draw):
    """A random ball inside [-1, 1]^d with the grid and kernel it sits on.

    The radius is at least 2.5 spacings, which keeps >= s effective
    neighbors at every active node.
    """
    plan, grid, degree = _draw_cell(draw, (1, 3), _BALL_COUNTS)
    center = draw(
        st.lists(st.floats(-0.2, 0.2), min_size=grid.dim, max_size=grid.dim)
    )
    r_lo = 2.5 * max(grid.spacing)
    r_hi = 1.0 - max(abs(c) for c in center)
    radius = r_lo + draw(st.floats(0.0, 1.0)) * (r_hi - r_lo)
    seed = draw(st.integers(0, 2**32 - 1))
    return plan, grid, degree, [(np.array(center), radius)], seed


@st.composite
def _two_ball_problems(draw):
    """The union of two overlapping balls of radius r inside [-1, 1]^d,
    d >= 2, a non-convex domain.

    The centers are c +- h e for a unit direction e and h in [0.3 r, r].
    Each ball keeps the radius rule of _ball_problems, so every active node
    has enough neighbors inside its own ball alone.
    """
    plan, grid, degree = _draw_cell(draw, (2, 3), _TWO_BALL_COUNTS)
    dim = grid.dim
    c = np.array(draw(
        st.lists(st.floats(-0.1, 0.1), min_size=dim, max_size=dim)
    ))
    e = np.array(draw(
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
        .filter(lambda v: np.linalg.norm(v) > 0.1)
    ))
    e /= np.linalg.norm(e)
    t = draw(st.floats(0.3, 1.0))
    # |c_k| + t r |e_k| + r <= 1 on every axis keeps both balls in the box
    r_lo = 2.5 * max(grid.spacing)
    r_hi = float(np.min((1.0 - np.abs(c)) / (1.0 + t * np.abs(e))))
    radius = r_lo + draw(st.floats(0.0, 1.0)) * (r_hi - r_lo)
    seed = draw(st.integers(0, 2**32 - 1))
    balls = [(c + t * radius * e, radius), (c - t * radius * e, radius)]
    return plan, grid, degree, balls, seed


def _check_against_oracle(plan, grid, degree, balls, seed):
    """Every operator of the FFT path against direct summation on the
    union of the balls, each at relative tolerance 1e-10."""

    def inside(*x):
        return np.any(
            [sum((xk - ck) ** 2 for xk, ck in zip(x, center)) <= radius**2
             for center, radius in balls],
            axis=0,
        )

    chi, chi_g, _ = build_masks(grid, inside)
    V = quadrature_weights(grid, chi)
    basis = enumerate_basis(degree, grid.dim)
    kernel = KernelSpec(plan.kernel_support)
    table = build_basis_table(grid, basis, kernel)
    precomp = build_moment_precomp(chi, V, table)
    ref = ReferenceModel(grid, chi, V, basis, kernel, chi_g)
    rng = np.random.default_rng(seed)
    d = chi * rng.standard_normal(grid.shape)
    r = chi * rng.standard_normal(grid.shape)
    M = assemble_moment_fields(chi, table)
    direct = ref.moment_matrices()
    for pq in combinations_with_replacement(range(basis.size), 2):
        assert rel_err(ref.restrict(M[pq]), direct[pq]) < 1e-10
    assert rel_err(internal_force(d, precomp), ref.f_int_direct(d)) < 1e-10
    assert rel_err(external_force(r, precomp), ref.f_r_direct(r)) < 1e-10
    assert rel_err(evaluate_field(d, precomp), ref.u_h_direct(d)) < 1e-10
    for fast, direct in zip(
        evaluate_gradient(d, precomp), ref.gradient_direct(d), strict=True
    ):
        assert rel_err(fast, direct) < 1e-10
    assert rel_err(mass_force(d, precomp), ref.mass_apply_direct(d)) < 1e-10
    assert rel_err(lumped_mass(precomp), ref.lumped_mass_direct()) < 1e-10
    # boundary nodes: active with a lattice neighbor off the domain, which
    # is what cuts their trapezoid weight to at most half a cell
    boundary = chi * (V < 0.75 * np.prod(grid.spacing))
    q = boundary * rng.standard_normal(grid.shape)
    area = boundary * rng.uniform(0.5, 1.5, grid.shape)
    assert rel_err(
        boundary_force(q, area, precomp), ref.f_q_direct(q, area)
    ) < 1e-10


class TestOracleProperty:
    """FFT path against direct summation on random ball domains, and on
    non-convex unions of two overlapping balls."""

    @given(_ball_problems())
    @settings(max_examples=20, deadline=None)
    def test_operators_match_oracle(self, problem):
        _check_against_oracle(*problem)

    @given(_two_ball_problems())
    @settings(max_examples=20, deadline=None)
    def test_operators_match_oracle_non_convex(self, problem):
        _check_against_oracle(*problem)
