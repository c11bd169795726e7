"""Matrix-free solvers: static CG, nonlinear CG, transient stepping.

Dirichlet data is enforced strongly by coefficient freezing: the Dirichlet
nodes' coefficients are set to the boundary data once, and every solver
update is masked by chi_omega (active minus Dirichlet), so the frozen
values carry their stiffness contribution into every residual without a
separate right-hand-side lift.

The static solver is preconditioned conjugate gradient on the masked
subspace.  The preconditioner is the floored FFT symbol of the operator's
own interior stencil: one application of the operator to a unit delta at
the deepest active node gives the stencil, its DFT is a circulant
approximation of the operator, and dividing by it costs two transforms per
iteration on top of the one operator application.  The stopping rule is on
the true masked residual, ||r|| / ||r_0|| <= tol, not on the preconditioned
one.  The nonlinear solver is Polak-Ribiere nonlinear CG with a
backtracking line search on the residual norm.  Transient diffusion offers
forward Euler with the lumped mass and backward Euler with the consistent
mass (inner masked preconditioned CG on the shifted operator).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import LineSearchError
from .moment import MomentPrecomp
from .operators import (
    evaluate_field,
    external_force,
    internal_force,
    lumped_mass,
    mass_force,
)
from .spectral import forward, inverse

__all__ = [
    "SolverConfig",
    "SolveReport",
    "TransientState",
    "solve_static_linear",
    "solve_static_nonlinear",
    "step_transient_diffusion",
    "run_transient",
    "explicit_stable_dt",
]

# Floor of the preconditioner symbol, relative to its largest entry.  Direct
# nodal integration leaves zero-energy Nyquist modes, so the stiffness
# symbol vanishes there (and at k = 0) and must not be inverted as is.
# Measured on the 3D 48^3 Poisson case: floor 1e-3 -> 51 iterations,
# 1e-2 -> 45, 3e-2 -> 49, 1e-1 -> 48, 2e-1 -> 58.
SYMBOL_FLOOR = 1e-2


@dataclass
class SolverConfig:
    """Iteration and time-stepping controls.

    max_iter defaults to 10x the number of active unknowns.  Transient
    runs need dt (`explicit_stable_dt` gives the forward-Euler limit) and
    raise ValueError without it; the static solvers ignore it.
    """

    tol: float = 1e-12
    max_iter: int | None = None
    dt: float | None = None
    n_steps: int = 0
    scheme: str = "explicit-euler"
    nu: float = 1.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("explicit-euler", "implicit-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def iter_cap(self, n_active: int) -> int:
        return self.max_iter if self.max_iter is not None else 10 * n_active


@dataclass
class SolveReport:
    """Outcome of a static solve.

    `residual` and every entry of `residual_history` are relative to the
    initial masked residual, ||R_i|| / ||R_0||: history[0] is 1.0 (0.0 when
    the initial residual already vanishes), one entry follows each
    iteration, and the last entry equals `residual`.  A linear solve whose
    initial residual is not finite (a NaN or inf in the load or the
    Dirichlet data) runs no iteration: history is [nan], `residual` is NaN
    and `converged` is False.
    """

    iterations: int
    residual: float
    wall_time: float
    converged: bool
    warnings: list[str] = field(default_factory=list)
    residual_history: list[float] | None = None


@dataclass
class TransientState:
    """Time, coefficients and step index of a march; `converged` turns
    False for good once an implicit step's inner CG stops short."""

    t: float
    d: np.ndarray
    step: int = 0
    converged: bool = True


def _implicit_operator(precomp, dt, nu, provider):
    """Backward-Euler operator x -> M x / dt + nu K x (consistent mass)."""

    def apply_op(x):
        return mass_force(x, precomp, provider) / dt + nu * (
            internal_force(x, precomp, provider)
        )

    return apply_op


def _circulant_preconditioner(apply_op, mask, provider):
    """Inverse of the operator's floored FFT symbol, masked.

    The interior stencil is the operator's response to a unit delta at the
    active node farthest from the mask boundary, rolled back to the origin.
    The real part of its DFT is the symbol of the symmetric part of that
    stencil: real and even, so scaling a real field's spectrum by its
    reciprocal keeps the spectrum Hermitian.  Floored at SYMBOL_FLOOR times
    its maximum, it is positive, and z = mask * F^-1[F(r) / lambda] is
    symmetric positive definite on the masked subspace.  The reciprocal is
    kept, so each application multiplies instead of dividing.  Building it
    costs one operator application and one transform; applying it costs two
    transforms.
    """
    depth = ndimage.distance_transform_edt(mask > 0.5)
    center = np.unravel_index(int(np.argmax(depth)), mask.shape)
    delta = np.zeros(mask.shape)
    delta[center] = 1.0
    col = np.roll(
        apply_op(delta), [-c for c in center], axis=tuple(range(mask.ndim))
    )
    lam = np.real(forward(col, provider))
    inv_lam = 1.0 / np.maximum(lam, SYMBOL_FLOOR * lam.max())

    def precondition(v):
        return mask * inverse(forward(v, provider) * inv_lam, provider)

    return precondition


def _masked_cg(
    apply_op, rhs, d0, mask, tol, max_iter, provider, precondition=None
):
    """Preconditioned conjugate gradient on the mask-projected operator.

    The residual and every search direction are multiplied by the 0/1 mask,
    so frozen coefficients never move.  The preconditioner is
    `_circulant_preconditioner` of the same operator and mask, built here
    unless the caller passes one it already built.  Convergence is on the
    true residual relative to the initial one.  A non-finite initial
    residual (a NaN or inf in rhs or d0) stops it before the first
    iteration, and a curvature p.Ap that is not positive (NaN included)
    stops it at once, both as not converged.

    Returns:
        (d, converged, history): history[i] is the relative true residual
        after i iterations, so the iteration count is len(history) - 1;
        [nan] when the initial residual is not finite.
    """
    d = d0.copy()
    r = mask * (rhs - apply_op(d))
    r0 = float(np.linalg.norm(r))
    if r0 == 0.0:
        return d, True, [0.0]
    if not np.isfinite(r0):
        return d, False, [float("nan")]
    if precondition is None:
        precondition = _circulant_preconditioner(apply_op, mask, provider)
    z = precondition(r)
    p = z
    rz = float(np.dot(r.ravel(), z.ravel()))
    history = [1.0]
    for _ in range(max_iter):
        Ap = mask * apply_op(p)
        pAp = float(np.dot(p.ravel(), Ap.ravel()))
        if not pAp > 0.0:
            return d, False, history
        alpha = rz / pAp
        d = d + alpha * p
        r = r - alpha * Ap
        history.append(float(np.linalg.norm(r)) / r0)
        if history[-1] <= tol:
            return d, True, history
        z = precondition(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return d, False, history


def solve_static_linear(
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    rhs: np.ndarray,
    dirichlet: np.ndarray | None = None,
    config: SolverConfig | None = None,
    provider=None,
):
    """Solve the linear static system K d = rhs by masked preconditioned CG.

    Args:
        chi_omega: mask of the updated coefficients (active minus Dirichlet).
        rhs: assembled load, e.g. external plus boundary force.
        dirichlet: field carrying the boundary data on the Dirichlet nodes
            (zero elsewhere); kept frozen throughout.

    Returns:
        (d, u_h, SolveReport)
    """
    config = config or SolverConfig()
    grid = precomp.grid
    grid.check_field(rhs, "rhs")
    d0 = np.zeros(grid.shape) if dirichlet is None else dirichlet.copy()
    n_active = int(np.count_nonzero(chi_omega))
    start = time.perf_counter()
    d, converged, history = _masked_cg(
        lambda x: internal_force(x, precomp, provider), rhs, d0, chi_omega,
        config.tol, config.iter_cap(n_active), provider,
    )
    wall = time.perf_counter() - start
    iters, resid = len(history) - 1, history[-1]
    report = SolveReport(
        iters, resid, wall, converged, residual_history=history
    )
    if not converged:
        report.warnings.append(
            f"CG stopped at relative residual {resid:.3e} after {iters} iterations"
        )
        warnings.warn(report.warnings[-1], stacklevel=2)
    u_h = evaluate_field(d, precomp, provider)
    return d, u_h, report


def solve_static_nonlinear(
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    rhs: np.ndarray,
    nonlinearity,
    nonlinearity_prime=None,
    dirichlet: np.ndarray | None = None,
    config: SolverConfig | None = None,
    provider=None,
):
    """Polak-Ribiere nonlinear CG for f_int(d) + f_N(d) = rhs.

    Minimizes half the squared masked-residual norm; the descent directions
    are Polak-Ribiere updates of its gradient J(d) R(d) and the trial step
    is the Gauss-Newton length along the direction, safeguarded by a
    backtracking line search (Armijo factor 1e-4, halving, at most 40
    halvings) on the residual norm itself, so accepted steps decrease it
    monotonically.  Convergence is ||masked R|| / ||masked R_0|| <= tol.

    `nonlinearity` maps the evaluated field u_h to the pointwise term
    N(u_h) projected against the shape functions; `nonlinearity_prime` is
    its derivative, used for exact Jacobian products (without it a
    finite-difference product is used, whose rounding floor limits the
    reachable residual to about sqrt(machine eps)).

    Returns:
        (d, u_h, SolveReport)
    """
    config = config or SolverConfig()
    grid = precomp.grid

    def residual(dd):
        """Masked residual and the evaluated field it was built from."""
        u = evaluate_field(dd, precomp, provider)
        fN = external_force(nonlinearity(u), precomp, provider)
        R = chi_omega * (internal_force(dd, precomp, provider) + fN - rhs)
        return R, u

    d = np.zeros(grid.shape) if dirichlet is None else dirichlet.copy()

    # the products read the current iterate (d, u, R) from this scope
    if nonlinearity_prime is not None:

        def jacobian_product(v):
            dv = evaluate_field(v, precomp, provider)
            fNp = external_force(nonlinearity_prime(u) * dv, precomp, provider)
            return chi_omega * (internal_force(v, precomp, provider) + fNp)

    else:

        def jacobian_product(v):
            eps = np.sqrt(np.finfo(float).eps) * (
                1.0 + float(np.linalg.norm(d))
            ) / float(np.linalg.norm(v))
            return (residual(d + eps * v)[0] - R) / eps

    n_active = int(np.count_nonzero(chi_omega))
    max_iter = config.iter_cap(n_active)
    start = time.perf_counter()
    R, u = residual(d)
    R_norm0 = float(np.linalg.norm(R))
    if R_norm0 == 0.0:
        u_h = evaluate_field(d, precomp, provider)
        return d, u_h, SolveReport(
            0, 0.0, time.perf_counter() - start, True, residual_history=[0.0]
        )
    R_norm = R_norm0
    history = [1.0]

    g = jacobian_product(R)  # merit gradient J R (J is symmetric)
    p = -g
    g_dot = float(np.vdot(g, g))
    iters = 0
    converged = False
    for iters in range(1, max_iter + 1):
        slope = float(np.vdot(g, p))  # directional derivative of the merit
        if slope >= 0.0:  # lost descent: restart on the gradient
            p = -g
            slope = -g_dot
        Jp = jacobian_product(p)
        Jp_sq = float(np.vdot(Jp, Jp))
        if Jp_sq == 0.0:
            break
        # Gauss-Newton length: minimizes ||R + alpha J p|| exactly
        alpha = -float(np.vdot(R, Jp)) / Jp_sq
        if alpha <= 0.0:
            alpha = g_dot / Jp_sq
        merit = 0.5 * R_norm * R_norm
        accepted = False
        for _ in range(41):
            d_try = d + alpha * p
            R_try, u_try = residual(d_try)
            R_try_norm = float(np.linalg.norm(R_try))
            merit_try = 0.5 * R_try_norm * R_try_norm
            if merit_try <= merit + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise LineSearchError(
                f"line search failed at iteration {iters} "
                f"(residual {R_norm / R_norm0:.3e})"
            )
        d, R, u, R_norm = d_try, R_try, u_try, R_try_norm
        history.append(R_norm / R_norm0)
        if history[-1] <= config.tol:
            converged = True
            break
        g_new = jacobian_product(R)
        beta = max(0.0, float(np.vdot(g_new, g_new - g)) / g_dot)
        p = -g_new + beta * p
        g = g_new
        g_dot = float(np.vdot(g, g))
    wall = time.perf_counter() - start
    report = SolveReport(
        len(history) - 1, history[-1], wall, converged, residual_history=history
    )
    if not converged:
        report.warnings.append(
            f"nonlinear CG stopped at relative residual {report.residual:.3e}"
        )
        warnings.warn(report.warnings[-1], stacklevel=2)
    u_h = evaluate_field(d, precomp, provider)
    return d, u_h, report


def step_transient_diffusion(
    state: TransientState,
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    rhs: np.ndarray,
    config: SolverConfig,
    lumped: np.ndarray | None = None,
    provider=None,
    *,
    precondition=None,
) -> TransientState:
    """Advance the diffusion system one time step.

    Forward Euler divides by the (precomputed) lumped mass on the active
    nodes; backward Euler solves the consistent-mass system by masked CG,
    preconditioned by `precondition` when given (it must be the
    `_circulant_preconditioner` of the step's operator on chi_omega, which
    `run_transient` builds once per march) and by a freshly built one
    otherwise.  Dirichlet coefficients stay frozen either way.

    Raises:
        ValueError: config.dt is not set.
        FloatingPointError: the step produced NaN (reported with its index).
    """
    dt = config.dt
    if dt is None:
        raise ValueError("transient stepping needs config.dt")
    d = state.d
    converged = state.converged
    if config.scheme == "explicit-euler":
        if lumped is None:
            raise ValueError("explicit stepping needs the lumped mass field")
        f = rhs - config.nu * internal_force(d, precomp, provider)
        upd = np.zeros(precomp.grid.shape)
        np.divide(f, lumped, out=upd, where=chi_omega > 0.5)
        d_new = d + dt * upd
    else:
        b = mass_force(d, precomp, provider) / dt + rhs
        n_active = int(np.count_nonzero(chi_omega))
        d_new, step_converged, history = _masked_cg(
            _implicit_operator(precomp, dt, config.nu, provider), b, d,
            chi_omega, config.tol, config.iter_cap(n_active), provider,
            precondition=precondition,
        )
        if not step_converged:
            converged = False
            warnings.warn(
                f"implicit step {state.step + 1}: "
                f"CG residual {history[-1]:.3e}",
                stacklevel=2,
            )
    if np.isnan(d_new).any():
        raise FloatingPointError(
            f"NaN detected at transient step {state.step + 1}"
        )
    return TransientState(
        t=state.t + dt, d=d_new, step=state.step + 1, converged=converged
    )


def run_transient(
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    rhs: np.ndarray,
    config: SolverConfig,
    dirichlet: np.ndarray | None = None,
    provider=None,
    callback=None,
) -> TransientState:
    """March `config.n_steps` diffusion steps from the Dirichlet-lifted
    initial state; `callback(state)` is invoked after every step.

    Raises:
        ValueError: config.dt is not set.
    """
    if config.dt is None:
        raise ValueError("transient stepping needs config.dt")
    d0 = (
        np.zeros(precomp.grid.shape)
        if dirichlet is None
        else dirichlet.copy()
    )
    # dt, nu and the mask are fixed for the march, so is the step operator
    lumped = precondition = None
    if config.scheme == "explicit-euler":
        lumped = lumped_mass(precomp, provider)
    else:
        precondition = _circulant_preconditioner(
            _implicit_operator(precomp, config.dt, config.nu, provider),
            chi_omega, provider,
        )
    state = TransientState(t=0.0, d=d0)
    if callback is not None:
        callback(state)
    for _ in range(config.n_steps):
        state = step_transient_diffusion(
            state, precomp, chi_omega, rhs, config, lumped, provider,
            precondition=precondition,
        )
        if callback is not None:
            callback(state)
    return state


def explicit_stable_dt(
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    lumped: np.ndarray,
    nu: float = 1.0,
    iterations: int = 120,
    seed: int = 0,
    provider=None,
) -> float:
    """Forward-Euler stability limit 2 / (nu * lambda_max) with lambda_max
    of the lumped-mass-scaled stiffness estimated by power iteration."""
    rng = np.random.default_rng(seed)
    active = chi_omega > 0.5
    z = chi_omega * rng.standard_normal(precomp.grid.shape)
    z /= np.linalg.norm(z)
    lam = 1.0
    for _ in range(iterations):
        w = np.zeros(precomp.grid.shape)
        f = internal_force(z, precomp, provider)
        np.divide(f, lumped, out=w, where=active)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            break
        z = w / lam
    return 2.0 / (nu * lam)
