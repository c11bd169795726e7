"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Criteria 1, 2, 4-7 and 9's symbol call the check functions of
fcrkpm.verify, which
`fcrkpm verify` runs at its own default sizes, on the cells and sample
counts below.
Criterion 8 times the heavy traditional assembly in single runs: the
compared ratios sit one to four orders of magnitude above their bounds, so
repetition medians would only add minutes, not information.  Its
assembly/fc ratios include the interpreter overhead of the assembly's
per-node Python loop (README, Bench notes).
"""

import time

import numpy as np
import pytest

import fcrkpm as fc
from fcrkpm import operators as ops
from fcrkpm import verify
from fcrkpm.solvers import SolverConfig
from fcrkpm.verify import rel_err


def _report(num, name, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _summary(checks):
    """(all passed, detail) of check records: their number, the worst one
    relative to its tolerance, and the names of any that failed."""
    worst = max(checks, key=lambda c: c["error"] / max(c["tolerance"], 1e-300))
    failed = [c["name"] for c in checks if not c["passed"]]
    detail = (
        f"{len(checks)} checks, worst {worst['name']} {worst['error']:.2e} "
        f"(tol {worst['tolerance']:g})"
    )
    return not failed, detail + (f", failed {failed}" if failed else "")


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="module")
def cases():
    """The cross-method discretizations of criterion 2, reused by 4-7,
    with their check labels."""
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
        out.append((disc, disc.reference(), f"{dim}d-n{n}-a{a_tilde}"))
    return out


@pytest.fixture(scope="module")
def oracle(cases, rng):
    """Criterion 2's checks on every case."""
    return [
        c
        for disc, ref, label in cases
        for c in verify.oracle_checks(disc.precomp, ref, rng, label)
    ]


def test_criterion_1_convolution_oracle(rng):
    shapes = [(8,), (12,), (16,), (8, 8), (16, 8), (12, 12), (8, 8, 8)]
    t0 = time.perf_counter()
    # 29 rounds of the 7 shapes
    passed, detail = _summary(verify.convolution_checks(rng, shapes, 203))
    elapsed = time.perf_counter() - t0
    _report(
        1, "convolution oracle",
        passed and elapsed < 10.0,
        f"203 pairs, {detail}, {elapsed:.1f}s",
    )


def test_criterion_2_cross_method_identity(oracle):
    _report(2, "cross-method identity", *_summary(oracle))


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
    checks = [
        c
        for disc, _, _ in cases
        for c in verify.reproduction_checks(disc.precomp)
    ]
    _report(4, "reproducing conditions", *_summary(checks))


def test_criterion_5_operator_structure(cases, rng):
    disc = cases[1][0]  # 2D 32^2
    checks = verify.structure_checks(disc.precomp, rng, samples=50)
    _report(5, "operator structure", *_summary(checks))


def test_criterion_6_transform_counts(cases, rng):
    checks = [
        c
        for disc, _, _ in cases
        for c in verify.transform_count_checks(disc.precomp, rng)
    ]
    _report(6, "transform-count audit", *_summary(checks))


def test_criterion_7_lumped_mass(cases, oracle):
    # the row sums against direct summation are criterion 2's lumped checks
    checks = [
        verify.lumped_mass_total_check(disc.precomp) for disc, _, _ in cases
    ]
    checks += [c for c in oracle if c["name"].startswith("lumped-")]
    _report(7, "lumped mass", *_summary(checks))


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


def test_criterion_9_preconditioner_symbol():
    checks = []
    for dim, counts, n, a_tilde in [(1, 24, 1, 1.5), (1, 24, 2, 2.5),
                                    (2, 16, 1, 1.5), (2, 20, 2, 2.5),
                                    (3, 10, 1, 1.5), (3, 14, 2, 2.5)]:
        disc = fc.discretize(
            fc.poisson_case(dim), n=n, a_tilde=a_tilde, counts=counts
        )
        label = f"{dim}d-n{n}-a{a_tilde}"
        checks.extend(verify.symbol_checks(disc.precomp, disc.chi_omega,
                                          label))
    _report(9, "preconditioner symbol", *_summary(checks))


def test_criterion_9_solvers(rng):
    # (a) CG against a sparse direct solve
    disc = fc.discretize(fc.poisson_case(1), counts=16)
    ref = disc.reference()
    rhs = ops.external_force(disc.r, disc.precomp)
    d_cg, _, rep = fc.solve_static_linear(
        disc.precomp, disc.chi_omega, rhs, config=SolverConfig(tol=1e-12)
    )
    cg_err = rel_err(d_cg, ref.solve_sparse(ref.f_r_direct(disc.r)))

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
