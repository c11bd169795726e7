"""The three workloads, each one repetition from the manufactured case to a
checked nodal field.

Sizes are fixed per workload. Every function takes the workload seed, a
tracer (``NullTracer`` for timing runs) and the FFT provider, and returns a
``Rep``: the end-to-end times, the exact counts that must repeat for the
same code and seed, and what the per-layer metrics need from the workload.
Phase boundaries are taken with ``perf_counter`` around public calls only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from fcrkpm import (
    KernelSpec,
    ReferenceModel,
    SolverConfig,
    box_predicates,
    build_grid,
    build_masks,
    discretize,
    enumerate_basis,
    evaluate_field,
    explicit_stable_dt,
    external_force,
    lumped_mass,
    nodal_errors,
    plan_extension,
    poisson_case,
    quadrature_weights,
    run_transient,
    solve_static_linear,
)

CG_TOL = 1e-12
CELL_3D = dict(n=1, a_tilde=1.5, counts=48)
COUNTS_2D = 64
T_END = 2.5
DT_SAFETY = 0.5


@dataclass
class Rep:
    time_to_solution_s: float
    setup_s: float
    solve_s: float
    persistent_bytes: int
    e_l2: float
    converged: bool
    # must repeat exactly for the same code and seed
    counts: dict
    # inputs of the per-layer metrics that the spans do not carry
    info: dict = field(default_factory=dict)


def _fft_info(disc, provider) -> dict:
    spectra = disc.table.persistent_nbytes()
    return {
        "forward_calls": provider.forward_count,
        "inverse_calls": provider.inverse_count,
        "spectra_bytes": spectra,
        "moment_bytes": disc.precomp.persistent_nbytes() - spectra,
        "nodes": disc.grid.total_nodes,
        "s": disc.precomp.size,
        "dim": disc.grid.dim,
    }


def poisson3d(seed, tr, provider) -> Rep:
    """FFT path: discretize, load, masked CG, field evaluation. Draws no
    random input; the seed is recorded only."""
    t0 = time.perf_counter()
    case = poisson_case(3)
    disc = tr.call("problems.discretize", discretize, case, provider=provider,
                   **CELL_3D)
    rhs = tr.call("operators.external_force", external_force, disc.r,
                  disc.precomp, provider)
    t1 = time.perf_counter()
    # solve_static_linear ends with evaluate_field, which gives u_h
    _, u_h, report = tr.call(
        "solvers.solve_static_linear", solve_static_linear,
        disc.precomp, disc.chi_omega, rhs, dirichlet=disc.dirichlet,
        config=SolverConfig(tol=CG_TOL), provider=provider,
    )
    e_l2 = nodal_errors(u_h, disc.exact_field, disc.chi).e_l2
    t2 = time.perf_counter()
    persistent = disc.precomp.persistent_nbytes()
    info = _fft_info(disc, provider)
    info.update(cg_iters=report.iterations, cg_s=report.wall_time,
                final_residual=float(report.residual))
    return Rep(
        time_to_solution_s=t2 - t0,
        setup_s=t1 - t0,
        solve_s=report.wall_time,
        persistent_bytes=persistent,
        e_l2=e_l2,
        converged=report.converged,
        counts={
            "forward_calls": provider.forward_count,
            "inverse_calls": provider.inverse_count,
            "cg_iters": report.iterations,
            "persistent_bytes": persistent,
        },
        info=info,
    )


def poisson3d_traditional(seed, tr, provider) -> Rep:
    """Direct-summation path on the same case and cell: neighbor lists,
    moment rows, sparse assembly, load, Dirichlet elimination, then
    ``scipy.sparse.linalg.cg`` on the free block and direct field
    evaluation. Uses no FFT; draws no random input."""
    t0 = time.perf_counter()
    case = poisson_case(3)
    lengths = tuple(hi - lo for lo, hi in case.bounds)
    plan = tr.call("grid.plan_extension", plan_extension, lengths,
                   CELL_3D["a_tilde"], counts=CELL_3D["counts"])
    grid = tr.call("grid.build_grid", build_grid, plan,
                   tuple(lo for lo, _ in case.bounds))
    inside, on_gamma = tr.call("grid.box_predicates", box_predicates,
                               case.bounds)
    chi, chi_g, _ = tr.call("grid.build_masks", build_masks, grid, inside,
                            on_gamma)
    V = tr.call("grid.quadrature_weights", quadrature_weights, grid, chi)
    model = ReferenceModel(
        grid, chi, V, enumerate_basis(CELL_3D["n"], 3),
        KernelSpec(support=plan.kernel_support), chi_g,
    )
    tr.call("reference.find_neighbors", model.find_neighbors)
    tr.call("reference.moment_rows", model.moment_rows)
    K = tr.call("reference.assemble_stiffness", model.assemble_stiffness)
    coords = grid.coordinates()
    b = model.restrict(
        tr.call("reference.f_r_direct", model.f_r_direct,
                chi * case.source(*coords))
    )
    d = np.zeros(model.n_nodes)
    fixed = np.flatnonzero(model.gamma_mask)
    free = np.flatnonzero(~model.gamma_mask)
    d[fixed] = model.restrict(chi_g * case.dirichlet(*coords))[fixed]
    K_free = K[free]
    K_ff = K_free[:, free]
    b_f = b[free] - K_free[:, fixed] @ d[fixed]
    t1 = time.perf_counter()

    matvecs = 0
    iters = 0

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return tr.call("reference.matvec", K_ff.dot, v)

    def count_iteration(_):
        nonlocal iters
        iters += 1

    op = spla.LinearOperator(K_ff.shape, matvec=matvec, dtype=float)
    x, info_code = spla.cg(op, b_f, rtol=CG_TOL, maxiter=10 * free.size,
                           callback=count_iteration)
    t_cg = time.perf_counter()
    d[free] = x
    u_h = tr.call("reference.u_h_direct", model.u_h_direct, model.extend(d))
    e_l2 = nodal_errors(u_h, case.exact(*coords), chi).e_l2
    t2 = time.perf_counter()
    persistent = model.persistent_nbytes()
    return Rep(
        time_to_solution_s=t2 - t0,
        setup_s=t1 - t0,
        solve_s=t_cg - t1,
        persistent_bytes=persistent,
        e_l2=e_l2,
        converged=info_code == 0,
        counts={
            "cg_iters": iters,
            "matvecs": matvecs,
            "nnz": int(K.nnz),
            "persistent_bytes": persistent,
        },
        info={
            "nnz": int(K.nnz),
            "reference_cg_iters": iters,
            "reference_bytes": persistent,
        },
    )


def diffuse2d_explicit(seed, tr, provider) -> Rep:
    """FFT path, forward Euler to t_end with dt half the power-iteration
    stability limit; the seed draws the power iteration's start vector."""
    t0 = time.perf_counter()
    case = poisson_case(2)
    disc = tr.call("problems.discretize", discretize, case, counts=COUNTS_2D,
                   provider=provider)
    precomp = disc.precomp
    rhs = tr.call("operators.external_force", external_force, disc.r,
                  precomp, provider)
    Ml = tr.call("operators.lumped_mass", lumped_mass, precomp, provider)
    dt = DT_SAFETY * tr.call(
        "solvers.explicit_stable_dt", explicit_stable_dt,
        precomp, disc.chi_omega, Ml, seed=seed, provider=provider,
    )
    n_steps = math.ceil(T_END / dt)
    t1 = time.perf_counter()
    state = tr.call(
        "solvers.run_transient", run_transient, precomp, disc.chi_omega, rhs,
        SolverConfig(dt=dt, n_steps=n_steps), dirichlet=disc.dirichlet,
        provider=provider,
    )
    t_march = time.perf_counter()
    u_h = tr.call("operators.evaluate_field", evaluate_field, state.d,
                  precomp, provider)
    e_l2 = nodal_errors(u_h, disc.exact_field, disc.chi).e_l2
    t2 = time.perf_counter()
    persistent = precomp.persistent_nbytes()
    info = _fft_info(disc, provider)
    info.update(steps=state.step)
    return Rep(
        time_to_solution_s=t2 - t0,
        setup_s=t1 - t0,
        solve_s=t_march - t1,
        persistent_bytes=persistent,
        e_l2=e_l2,
        converged=state.step == n_steps and bool(np.all(np.isfinite(state.d))),
        counts={
            "forward_calls": provider.forward_count,
            "inverse_calls": provider.inverse_count,
            "steps": state.step,
            "persistent_bytes": persistent,
        },
        info=info,
    )


WORKLOADS = {
    "poisson3d": poisson3d,
    "poisson3d-traditional": poisson3d_traditional,
    "diffuse2d-explicit": diffuse2d_explicit,
}
