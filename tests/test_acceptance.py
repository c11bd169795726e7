"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Criterion 8 times the heavy traditional assembly in single runs: the
compared ratios sit one to four orders of magnitude above their bounds, so
repetition medians would only add minutes, not information.
"""

import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

import fcrkpm as fc
from fcrkpm import operators as ops
from fcrkpm.grid import boundary_face_weights
from fcrkpm.moment import assemble_moment_fields
from fcrkpm.solvers import SolverConfig


def _report(num, name, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _rel(a, b):
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / (scale if scale > 0 else 1.0))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="module")
def cases(rng):
    """The cross-method discretizations of criterion 2, reused by 4-7."""
    specs = [
        (1, 64, 1, 1.5),
        (2, 32, 1, 1.5),
        (3, 16, 1, 1.5),
        (3, 16, 2, 2.5),
    ]
    out = []
    for dim, counts, n, a_tilde in specs:
        disc = fc.discretize(
            fc.poisson_case(dim), n=n, a_tilde=a_tilde, counts=counts
        )
        out.append((disc, disc.reference()))
    return out


def test_criterion_1_convolution_oracle(rng):
    shapes = [(8,), (12,), (16,), (8, 8), (16, 8), (12, 12), (8, 8, 8)]
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    while pairs < 200:
        for shape in shapes:
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            fast = fc.circular_convolve(a, b)
            slow = fc.direct_circular_convolve(a, b)
            worst = max(worst, _rel(fast, slow))
            pairs += 1
    elapsed = time.perf_counter() - t0
    _report(
        1, "convolution oracle",
        worst < 1e-12 and elapsed < 10.0,
        f"{pairs} pairs, max rel err {worst:.2e} (tol 1e-12), {elapsed:.1f}s",
    )


def test_criterion_2_cross_method_identity(cases, rng):
    worst = 0.0
    for disc, ref in cases:
        errs = []
        # moments entry by entry, each against its own scale
        M = assemble_moment_fields(disc.chi, disc.table)
        direct = ref.moment_matrices()
        errs.append(max(
            _rel(ref.restrict(M[pq]), direct[pq])
            for pq in combinations_with_replacement(range(disc.table.size), 2)
        ))
        d = disc.chi * rng.standard_normal(disc.grid.shape)
        r = disc.chi * rng.standard_normal(disc.grid.shape)
        errs.append(_rel(ops.internal_force(d, disc.precomp), ref.f_int_direct(d)))
        errs.append(_rel(ops.external_force(r, disc.precomp), ref.f_r_direct(r)))
        errs.append(_rel(ops.evaluate_field(d, disc.precomp), ref.u_h_direct(d)))
        errs.append(_rel(ops.mass_force(d, disc.precomp), ref.mass_apply_direct(d)))
        errs.append(
            _rel(ops.lumped_mass(disc.precomp), ref.lumped_mass_direct())
        )
        if disc.grid.dim >= 2:
            face, area = boundary_face_weights(
                disc.grid, disc.chi, disc.case.bounds, axis=0, side="hi"
            )
            q = face * rng.standard_normal(disc.grid.shape)
            errs.append(
                _rel(ops.boundary_force(q, area, disc.precomp),
                     ref.f_q_direct(q, area))
            )
        worst = max(worst, max(errs))
    _report(
        2, "cross-method identity",
        worst < 1e-10,
        f"max rel err {worst:.2e} over all terms/grids (tol 1e-10)",
    )


def test_criterion_3_convergence():
    t0 = time.perf_counter()
    slopes = {}
    for dim, powers in ((1, range(3, 10)), (2, range(3, 8)), (3, range(3, 6))):
        case = fc.poisson_case(dim)
        hs, errs = [], []
        for p in powers:
            disc = fc.discretize(case, counts=2**p)
            rhs = ops.external_force(disc.r, disc.precomp)
            d, u_h, report = fc.solve_static_linear(
                disc.precomp, disc.chi_omega, rhs, dirichlet=disc.dirichlet,
                config=SolverConfig(tol=1e-12),
            )
            assert report.converged
            if dim == 1:
                err = fc.continuous_l2_error_1d(d, case.exact, disc.reference())
            else:
                err = fc.nodal_errors(u_h, disc.exact_field, disc.chi).e_l2
            hs.append(max(disc.grid.spacing))
            errs.append(err)
        slopes[dim] = fc.convergence_slope(hs, errs)
    elapsed = time.perf_counter() - t0
    ok = all(1.8 <= s <= 2.2 for s in slopes.values()) and elapsed < 600.0
    _report(
        3, "convergence",
        ok,
        "slopes " + ", ".join(f"{d}D {s:.3f}" for d, s in slopes.items())
        + f" (band [1.8, 2.2]), {elapsed:.0f}s",
    )


def test_criterion_4_reproducing_conditions(cases):
    worst_pu, worst_lin, worst_grad = 0.0, 0.0, 0.0
    for disc, _ in cases:
        active = disc.chi > 0.5
        u1 = ops.evaluate_field(np.ones(disc.grid.shape), disc.precomp)
        worst_pu = max(worst_pu, float(np.max(np.abs(u1[active] - 1.0))))
        X = disc.grid.coordinates()[0]
        ux = ops.evaluate_field(X, disc.precomp)
        worst_lin = max(
            worst_lin,
            float(np.max(np.abs(ux[active] - X[active]))
                  / np.max(np.abs(X[active]))),
        )
        gx = ops.evaluate_gradient(X, disc.precomp)[0]
        worst_grad = max(worst_grad, float(np.max(np.abs(gx[active] - 1.0))))
    ok = worst_pu < 1e-10 and worst_lin < 1e-9 and worst_grad < 1e-8
    _report(
        4, "reproducing conditions",
        ok,
        f"partition-of-unity {worst_pu:.2e} (1e-10), linear {worst_lin:.2e} "
        f"(1e-9), gradient {worst_grad:.2e} (1e-8)",
    )


def test_criterion_5_operator_structure(cases, rng):
    disc = cases[1][0]  # 2D 32^2
    samples = [
        disc.chi * rng.standard_normal(disc.grid.shape) for _ in range(50)
    ]
    forces = [ops.internal_force(s, disc.precomp) for s in samples]
    scale = max(
        np.linalg.norm(f) / np.linalg.norm(s) for f, s in zip(forces, samples)
    )
    worst_sym = 0.0
    for (d1, f1), (d2, f2) in zip(
        zip(samples[::2], forces[::2]), zip(samples[1::2], forces[1::2])
    ):
        gap = abs(np.vdot(d1, f2) - np.vdot(d2, f1))
        worst_sym = max(
            gap / (np.linalg.norm(d1) * np.linalg.norm(d2) * scale), worst_sym
        )
    worst_psd = max(
        -float(np.vdot(s, f)) / (scale * np.linalg.norm(s) ** 2)
        for s, f in zip(samples, forces)
    )
    const = ops.internal_force(np.ones(disc.grid.shape), disc.precomp)
    const_rel = float(np.max(np.abs(const)) / np.max(np.abs(forces[0])))
    ok = worst_sym <= 1e-10 and worst_psd <= 1e-10 and const_rel < 1e-9
    _report(
        5, "operator structure",
        ok,
        f"symmetry {worst_sym:.2e}, psd {worst_psd:.2e} (1e-10), "
        f"constant annihilation {const_rel:.2e} (1e-9)",
    )


def test_criterion_6_transform_counts(cases, rng):
    failures = []
    for disc, _ in cases:
        s = disc.table.size
        prov = fc.CountingFFTProvider()
        d = disc.chi * rng.standard_normal(disc.grid.shape)
        for name, fn, expect in (
            ("internal_force", lambda: ops.internal_force(d, disc.precomp, prov), 2 * (s + 1)),
            ("mass_force", lambda: ops.mass_force(d, disc.precomp, prov), 2 * (s + 1)),
            ("external_force", lambda: ops.external_force(d, disc.precomp, prov), s + 1),
            ("evaluate_field", lambda: ops.evaluate_field(d, disc.precomp, prov), s + 1),
        ):
            prov.reset()
            fn()
            if prov.total != expect:
                failures.append(f"{name}@{disc.grid.dim}d: {prov.total} != {expect}")
        if disc.grid.dim >= 2:
            face, area = boundary_face_weights(
                disc.grid, disc.chi, disc.case.bounds, axis=0, side="lo"
            )
            prov.reset()
            ops.boundary_force(face, area, disc.precomp, prov)
            if prov.total != s + 1:
                failures.append(f"boundary_force@{disc.grid.dim}d")
    _report(
        6, "transform-count audit",
        not failures,
        "exact 2(s+1) / (s+1) counts" if not failures else "; ".join(failures),
    )


def test_criterion_7_lumped_mass(cases):
    worst_total, worst_rows = 0.0, 0.0
    for disc, ref in cases:
        Ml = ops.lumped_mass(disc.precomp)
        vol = float(np.sum(disc.chi * disc.V))
        worst_total = max(worst_total, abs(float(np.sum(Ml)) - vol) / vol)
        worst_rows = max(worst_rows, _rel(Ml, ref.lumped_mass_direct()))
    ok = worst_total < 1e-12 and worst_rows < 1e-10
    _report(
        7, "lumped mass",
        ok,
        f"total vs volume {worst_total:.2e} (1e-12), "
        f"row sums {worst_rows:.2e} (1e-10)",
    )


def _cpu_time(fn):
    # process CPU time, so another process sharing the cores does not
    # inflate the reading; both timed sides run single-threaded
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _min_cpu(fn, runs=5):
    return min(_cpu_time(fn) for _ in range(runs))


def test_criterion_8_performance_trends(rng):
    fc_times, trad_times, fc_bytes, trad_bytes = {}, {}, {}, {}
    for a_tilde in (1.5, 2.5, 3.5):
        disc = fc.discretize(
            fc.poisson_case(3), a_tilde=a_tilde, spacing=2.0 / 19
        )
        d = disc.chi * rng.standard_normal(disc.grid.shape)
        ops.internal_force(d, disc.precomp)  # warm
        fc_times[a_tilde] = _min_cpu(
            lambda: ops.internal_force(d, disc.precomp)
        )
        model = disc.reference()
        model.find_neighbors()
        model.moment_rows()
        trad_times[a_tilde] = _cpu_time(model.assemble_stiffness)
        fc_bytes[a_tilde] = disc.precomp.persistent_nbytes()
        trad_bytes[a_tilde] = model.persistent_nbytes()

    ratio_trad = trad_times[3.5] / trad_times[1.5]
    ratio_fc = max(fc_times.values()) / min(fc_times.values())
    mem_ok = all(fc_bytes[a] < trad_bytes[a] for a in (1.5, 2.5, 3.5))

    disc31 = fc.discretize(
        fc.poisson_case(3), a_tilde=1.5, spacing=2.0 / 30
    )
    d31 = disc31.chi * rng.standard_normal(disc31.grid.shape)
    ops.internal_force(d31, disc31.precomp)  # warm
    fc31 = _min_cpu(lambda: ops.internal_force(d31, disc31.precomp))
    model31 = disc31.reference()
    model31.find_neighbors()
    model31.moment_rows()
    trad31 = _cpu_time(model31.assemble_stiffness)
    big_ratio = trad31 / fc31

    ok = ratio_trad >= 10.0 and ratio_fc < 3.0 and big_ratio >= 100.0 and mem_ok
    _report(
        8, "performance trends",
        ok,
        f"traditional assembly x{ratio_trad:.0f} from a=1.5 to 3.5 (>=10), "
        f"fc f_int spread x{ratio_fc:.2f} (<3), "
        f"31^3 assembly/fc ratio x{big_ratio:.0f} (>=100), "
        f"fc<traditional bytes: {mem_ok}",
    )


def test_criterion_9_solvers(rng):
    # (a) CG against a sparse direct solve
    disc = fc.discretize(fc.poisson_case(1), counts=16)
    ref = disc.reference()
    rhs = ops.external_force(disc.r, disc.precomp)
    d_cg, _, rep = fc.solve_static_linear(
        disc.precomp, disc.chi_omega, rhs, config=SolverConfig(tol=1e-12)
    )
    cg_err = _rel(d_cg, ref.solve_sparse(ref.f_r_direct(disc.r)))

    # (b) transient reaches the static solution, both schemes
    disc2 = fc.discretize(fc.poisson_case(2), counts=24)
    rhs2 = ops.external_force(disc2.r, disc2.precomp)
    _, u_static, _ = fc.solve_static_linear(disc2.precomp, disc2.chi_omega, rhs2)
    active = disc2.chi > 0.5
    scale = np.max(np.abs(u_static[active]))
    Ml = ops.lumped_mass(disc2.precomp)
    dt_lim = fc.explicit_stable_dt(disc2.precomp, disc2.chi_omega, Ml)
    gaps = {}
    for scheme, dt, n_steps in (
        ("explicit-euler", 0.5 * dt_lim, int(np.ceil(2.5 / (0.5 * dt_lim)))),
        ("implicit-euler", 100.0 * dt_lim, 30),
    ):
        cfg = SolverConfig(dt=dt, n_steps=n_steps, scheme=scheme, tol=1e-10)
        state = fc.run_transient(disc2.precomp, disc2.chi_omega, rhs2, cfg)
        u_t = ops.evaluate_field(state.d, disc2.precomp)
        gaps[scheme] = float(np.max(np.abs(u_t[active] - u_static[active])) / scale)

    # (c) nonlinear manufactured convergence
    hs, es = [], []
    for N in (16, 32, 64, 128):
        dN = fc.discretize(fc.poisson_case(1), counts=N)
        X = dN.grid.coordinates()[0]
        rhs_n = ops.external_force(
            dN.chi * (2.0 + (1.0 - X**2) ** 3), dN.precomp
        )
        _, u_h, rep_n = fc.solve_static_nonlinear(
            dN.precomp, dN.chi_omega, rhs_n,
            nonlinearity=lambda u: u**3,
            nonlinearity_prime=lambda u: 3 * u**2,
            config=SolverConfig(tol=1e-8, max_iter=40 * N),
        )
        assert rep_n.converged
        hs.append(dN.grid.spacing[0])
        es.append(fc.nodal_errors(u_h, dN.exact_field, dN.chi).e_linf)
    slope = fc.convergence_slope(hs, es)

    ok = (
        cg_err < 1e-10
        and gaps["explicit-euler"] < 1e-4
        and gaps["implicit-euler"] < 1e-4
        and 1.8 <= slope <= 2.2
    )
    _report(
        9, "solvers",
        ok,
        f"CG vs direct {cg_err:.2e} (1e-10), steady-state gap "
        f"explicit {gaps['explicit-euler']:.2e} / implicit "
        f"{gaps['implicit-euler']:.2e} (1e-4), nonlinear slope {slope:.3f}",
    )
