"""Convolution-form operators: oracle equivalence, structure, audit counts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrkpm import (
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
from fcrkpm import operators
from fcrkpm.basis import KernelSpec, build_basis_table, enumerate_basis
from fcrkpm.grid import (
    boundary_face_weights,
    build_grid,
    build_masks,
    plan_extension,
    quadrature_weights,
)
from fcrkpm.moment import INTERIOR_RTOL, build_moment_precomp
from fcrkpm.reference import ReferenceModel
from fcrkpm.verify import (
    CHECK_NAMES,
    _OPERATORS,
    _inputs,
    corrupt_table,
    lumped_mass_total_check,
    mask_check,
    oracle_checks,
    rel_err,
    reproduction_checks,
    structure_checks,
    transform_count_checks,
)

from conftest import failed


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


@pytest.fixture(scope="module")
def checks(discs, refs, rng):
    """Criterion 2's and criterion 6's check records on each module cell,
    by dimension and check name; the per-operator tests read them."""
    return {
        dim: {
            c["name"]: c
            for c in oracle_checks(d.precomp, refs[dim], rng, f"{dim}d")
            + transform_count_checks(d.precomp, rng)
        }
        for dim, d in discs.items()
    }


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
    def test_matches_oracle(self, dim, checks):
        assert checks[dim][f"f_int-{dim}d"]["passed"]

    def test_symmetry_and_psd(self, discs, rng):
        assert not failed(structure_checks(discs[2].precomp, rng, samples=8))

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
        bgrad = pc.dense_rows()[1:]
        coeff = rng.standard_normal(d.grid.shape)
        # the loop applies c_p (1 or i) and the reflection sign entry by
        # entry, sums the gather over p and each mixed field
        # m_p = sum_k (row_k[p] g_k) V over k in index order, and the
        # scatter's spectra in the primitives' parity order; the band
        # layout sums the rows in another order, so the two agree to
        # rounding (1e-14 relative, about 45 ulps)
        even, odd = pc.table.parity_split
        c = {p: 1j if p in odd else 1.0 for p in even + odd}
        d_hat = forward(pc.chi * coeff)
        hat_Ha = pc.table.hat_Ha
        Ds = [inverse(d_hat * (c[p] * h)) for p, h in enumerate(hat_Ha)]
        grads = []
        for row in bgrad:
            acc = row[0] * Ds[0]
            for p in range(1, len(Ds)):
                acc += row[p] * Ds[p]
            grads.append(acc)
        B_hat = np.zeros(d.grid.shape, dtype=complex)
        for p in odd + even:
            mixed = (bgrad[0][p] * grads[0]) * pc.V
            for row, g in zip(bgrad[1:], grads[1:]):
                mixed += (row[p] * g) * pc.V
            term = forward(mixed) * (c[p] * hat_Ha[p])
            if p in odd:
                B_hat -= term
            else:
                B_hat += term
        f_int = internal_force(coeff, pc)
        assert rel_err(f_int, pc.chi * inverse(B_hat)) <= 1e-14
        assert rel_err(
            np.stack(evaluate_gradient(coeff, pc)), pc.chi * np.stack(grads)
        ) <= 1e-14


def _dense_gather(d, rows, precomp, provider):
    """operators._gather contracted with the dense row fields."""
    hat_Ha = precomp.table.hat_Ha
    even, odd = precomp.table.parity_split
    d_hat = forward(precomp.chi * d, provider)
    G = np.empty(hat_Ha.shape)
    for p in even:
        G[p] = inverse(d_hat * hat_Ha[p], provider)
    d_hat *= 1j
    for p in odd:
        G[p] = inverse(d_hat * hat_Ha[p], provider)
    return np.einsum("kp...,p...->k...", precomp.dense_rows()[rows], G)


def _dense_scatter(fields, w, rows, precomp, provider):
    """operators._scatter mixing its fields with the dense row fields."""
    hat_Ha = precomp.table.hat_Ha
    even, odd = precomp.table.parity_split
    m = np.einsum(
        "kp...,k...,...->p...", precomp.dense_rows()[rows], fields, w
    )
    B_hat = np.zeros(hat_Ha.shape[1:], dtype=complex)
    for p in even:
        B_hat += forward(m[p], provider) * hat_Ha[p]
    for p in odd:
        B_hat -= 1j * forward(m[p], provider) * hat_Ha[p]
    return precomp.chi * inverse(B_hat, provider)


class TestBandLayout:
    """The interior constant plus the band rows against the dense rows."""

    @pytest.mark.parametrize("dim,counts,n,a_tilde", [
        (1, 128, 1, 1.5), (2, 64, 1, 1.5), (2, 64, 2, 2.5),
        (3, 48, 1, 1.5), (3, 32, 2, 2.5),
    ])
    def test_operators_match_dense_rows(self, dim, counts, n, a_tilde,
                                        monkeypatch):
        # every operator and weak form, at the active nodes, against the
        # contraction of the (1 + d, s, *grid) row fields the layout
        # stands for
        disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde,
                          counts=counts)
        pc = disc.precomp
        assert 0 < pc.band.size < np.count_nonzero(disc.chi)
        inputs = _inputs(pc, np.random.default_rng(5))
        band = {name: np.asarray(fast(pc, None, *inputs))
                for name, (_, _, fast, _) in _OPERATORS.items()}
        monkeypatch.setattr(operators, "_gather", _dense_gather)
        monkeypatch.setattr(operators, "_scatter", _dense_scatter)
        active = disc.chi > 0.5
        for name, (_, _, fast, _) in _OPERATORS.items():
            dense = np.asarray(fast(pc, None, *inputs))[..., active]
            assert rel_err(band[name][..., active], dense) <= 1e-14, name


class TestInputsUntouched:
    """The operators and the weak forms scale and transform temporaries in
    place, never their inputs or the precomputed arrays."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inputs_bit_identical(self, dim, discs, rng):
        pc = discs[dim].precomp
        shape = pc.grid.shape
        # unmasked, so that masking an input in place would show
        inputs = (
            rng.standard_normal(shape),
            rng.standard_normal(shape),
            rng.standard_normal((dim, *shape)),
            rng.standard_normal(shape),
            rng.uniform(0.5, 1.5, shape),
        )
        kept = [*inputs, pc.table.hat_Ha, pc.c, pc.band_rows, pc.band,
                pc.V, pc.chi]
        before = [a.tobytes() for a in kept]
        assert list(_OPERATORS) == [*operators.__all__, "implicit_form",
                                    "jacobian_form"]
        for name, (_, _, fast, _) in _OPERATORS.items():
            fast(pc, None, *inputs)
            assert [a.tobytes() for a in kept] == before, name


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
    def test_matches_oracle(self, dim, checks):
        assert checks[dim][f"f_r-{dim}d"]["passed"]


class TestEvaluateField:
    def test_zero(self, discs):
        d = discs[2]
        assert np.all(evaluate_field(np.zeros(d.grid.shape), d.precomp) == 0.0)

    def test_linear_reproduction(self, discs):
        assert not failed(reproduction_checks(discs[2].precomp))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_oracle(self, dim, checks):
        assert checks[dim][f"u_h-{dim}d"]["passed"]


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

    def test_matches_oracle(self, checks):
        assert checks[2]["f_q-2d"]["passed"]


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

    def test_gradient_matches_oracle(self, checks):
        assert checks[2]["f_N-2d"]["passed"]


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
    def test_matches_oracle(self, dim, checks):
        assert checks[dim][f"mass-{dim}d"]["passed"]


class TestLumpedMass:
    def test_zero_outside(self, discs):
        d = discs[2]
        Ml = lumped_mass(d.precomp)
        assert np.all(Ml[d.chi < 0.5] == 0.0)

    def test_total_equals_volume_weights(self, discs):
        for d in discs.values():
            assert lumped_mass_total_check(d.precomp)["passed"]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_row_sums(self, dim, checks):
        assert checks[dim][f"lumped-{dim}d"]["passed"]

    def test_positive_at_active_nodes(self, discs):
        for d in discs.values():
            Ml = lumped_mass(d.precomp)
            assert np.all(Ml[d.chi > 0.5] > 0.0)


class TestTransformCounts:
    """Exact FFT/iFFT counts per operator call."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_counts(self, dim, checks):
        for name, record in checks[dim].items():
            if name.endswith("-transforms"):
                assert record["passed"], record

    def test_boundary_count(self, checks):
        assert checks[2]["f_q-transforms"]["passed"]


class TestCheckLibrary:
    """The acceptance checks of fcrkpm.verify cover every operator and
    catch a corrupted kernel table."""

    def test_every_operator_is_checked(self, checks):
        for name in operators.__all__:
            short = CHECK_NAMES[name]
            assert f"{short}-1d" in checks[1]
            assert f"{short}-transforms" in checks[1]

    def test_interior_check_recorded(self, checks):
        # the check invert_moments raises on, with its measured margin
        for dim in (1, 2, 3):
            record = checks[dim][f"interior-moments-{dim}d"]
            assert record["passed"] and record["tolerance"] == INTERIOR_RTOL

    def test_flipped_mask_node_fails_mask_check(self, discs):
        d = discs[2]
        assert mask_check(d)["passed"]
        # flip one free node out of chi, and so out of the derived
        # chi_omega: the masks stay 0/1 and still split, so only the domain
        # predicate sees it
        chi = d.chi.copy()
        chi[np.unravel_index(np.argmax(d.chi_omega), chi.shape)] = 0.0
        flipped = dataclasses.replace(
            d, precomp=dataclasses.replace(d.precomp, chi=chi)
        )
        record = mask_check(flipped)
        assert not record["passed"] and record["error"] == 1.0

    def test_corrupted_table_fails_oracle(self):
        d = discretize(poisson_case(2), counts=32)
        corrupt_table(d.precomp)
        rng = np.random.default_rng(0)
        f_int = next(
            c for c in oracle_checks(d.precomp, d.reference(), rng, "2d")
            if c["name"] == "f_int-2d"
        )
        assert f_int["tolerance"] < f_int["error"] < np.inf


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
    """Criterion 2's checks, the moments and every operator against
    direct summation, on the union of the balls."""

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
    assert not failed(oracle_checks(precomp, ref, rng, "balls"))


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
