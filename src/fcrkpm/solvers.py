"""Matrix-free solvers: static CG, Newton over it, transient stepping.

Dirichlet data is enforced strongly by coefficient freezing: the Dirichlet
nodes' coefficients are set to the boundary data once, and every solver
update is masked by chi_omega (active minus Dirichlet), so the frozen
values carry their stiffness contribution into every residual without a
separate right-hand-side lift.

`_masked_cg` is the one Krylov solver: preconditioned conjugate gradient on
the masked subspace.  The preconditioner is a fast-transform inverse of
the weak form off the boundary band, where it is a convolution: its symbol
is derived in closed form (interior_symbol) and divided out in the sine
transform (DST-I) of the free set's extent, the tau preconditioner of a
Dirichlet block, or in the DFT where the free set covers the whole
periodic box.  No floor is tuned: only rounding-level zeros of the symbol,
the null modes of a periodic operator, are left out.  It costs two
transforms per iteration next to the one operator application.  The
stopping rule is on the recursively updated masked residual,
||r|| / ||r_0|| <= tol, not on the preconditioned one.  It solves the
linear system, each inexact Newton step of the nonlinear one (which needs
N' >= 0) to its forcing term, and each backward-Euler step (consistent
mass, for the increment from zero); forward Euler divides by the lumped
mass.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import axis_sums, kept_spectrum
from .errors import LineSearchError
from .moment import MomentPrecomp
from .operators import _form, evaluate_field, internal_force, lumped_mass
from .spectral import forward, inverse, sine_forward, sine_inverse

__all__ = [
    "SolverConfig",
    "SolveReport",
    "TransientState",
    "solve_static_linear",
    "solve_static_nonlinear",
    "step_transient_diffusion",
    "run_transient",
    "explicit_stable_dt",
    "interior_symbol",
]

# A symbol value at most NULL_RTOL times the largest is a rounding-level
# zero.  Direct nodal integration leaves zero-energy Nyquist modes, so on a
# periodic box the stiffness symbol vanishes there and at theta = 0; the
# smallest physical value, at the lowest sine frequency of an n-node
# block, is of order (pi / (n + 1))^2 of the largest.
NULL_RTOL = 1e-12

# Lanczos in explicit_stable_dt stops once its top Ritz value moves by at
# most RITZ_RTOL relative in one step.  Against dense eigenvalues, over 12
# seeded starts at each of nine 1D-3D cells, a looser rule (1e-7, even with
# the stall required on two consecutive steps) stopped on a plateau 1e-4 to
# 3e-3 below lambda_max in 7 of the 108 runs, this one in 1 (1.1e-3 at 2D
# 20^2, n = 2); at 2D 64^2 it stops after 35-38 steps within 3e-7.
RITZ_RTOL = 1e-8

# the most Lanczos steps explicit_stable_dt takes; it warns when it stops
# there (35-38 steps reach RITZ_RTOL at 2D 64^2)
LANCZOS_MAX_STEPS = 120


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

    Every entry of `residual_history` is relative to the initial masked
    residual, ||R_i|| / ||R_0||: history[0] is 1.0 (0.0 when the initial
    residual already vanishes), and one entry follows each iteration, so
    `iterations` is len(history) - 1 and `residual` the last entry.  A
    linear solve whose initial residual is not finite (a NaN or inf in the
    load or the Dirichlet data) runs no iteration: history is [nan],
    `residual` is NaN and `converged` is False.  A nonlinear solve counts
    Newton steps in `iterations` and ||R_k|| / ||R_0|| after each, and
    records the inner CG iterations of each step in `inner_iterations`;
    one whose initial residual is not finite takes no step and reports the
    same as the linear solve, with `inner_iterations` [].  Either solve
    warns when it does not converge.
    """

    wall_time: float
    converged: bool
    residual_history: list[float]
    inner_iterations: list[int] | None = None

    iterations = property(lambda self: len(self.residual_history) - 1)
    residual = property(lambda self: self.residual_history[-1])


@dataclass
class TransientState:
    """Time, coefficients and step index of a march; `converged` turns
    False for good once an implicit step's inner CG stops short."""

    t: float
    d: np.ndarray
    step: int = 0
    converged: bool = True


def interior_symbol(precomp: MomentPrecomp, w0: float, w1: float,
                    thetas=None):
    """Symbol of the weak form w0 M + w1 K off the boundary band, at the
    per-axis angular frequencies `thetas` (one array per axis; by default
    the grid's DFT frequencies 2 pi m / N_ax in FFT order), on their
    tensor grid.

    There the rows are the constant c and the weight is the cell volume
    V_c = prod(dx), so the form is a convolution: row set k's gather
    multiplies a mode e^{i theta.o} by g_k(theta) = sum_p c[k, p] F_a,p,
    its scatter by conj(g_k), and the symbol

        lambda = V_c sum_k w_k |g_k|^2,    w = (w0, w1, ..., w1),

    is real, even and nonnegative.  F_a,p = c_p H_p, with H_p the kept
    component of the basis spectrum at these frequencies (basis.axis_sums
    and basis.kept_spectrum; at the DFT frequencies H_p is hat_Ha[p]), so
    |g_k|^2 is the square of the even entries' sum plus that of the odd
    entries'.  It is built axis by axis, with no transform; a row set of
    weight exactly 0 is skipped.
    """
    table = precomp.table
    sums = axis_sums(precomp.grid, table.kernel, table.basis.degree, thetas)
    H = np.array([kept_spectrum(sums, alpha)
                  for alpha in table.basis.exponents])
    lam = 0.0
    for k, wk in enumerate([w0] + [w1] * precomp.dim):
        if wk == 0.0:  # the b0 row of the stiffness, w0 = 0
            continue
        for part in table.parity_split:
            g = np.tensordot(precomp.c[k, list(part)], H[list(part)], 1)
            lam = lam + wk * g**2
    return lam * precomp.grid.cell_volume


def _cyclic_extent(free: np.ndarray, axis: int):
    """(start, n): the shortest run of indices along `axis`, read
    cyclically from start, that holds every free node; (0, N), the whole
    axis, when the free nodes leave no index of it out (or there are
    none)."""
    others = tuple(ax for ax in range(free.ndim) if ax != axis)
    idx = np.flatnonzero(free.any(axis=others))
    N = free.shape[axis]
    if idx.size in (0, N):
        return 0, N
    # the widest gap between cyclically consecutive occupied indices
    step = np.diff(idx, append=idx[0] + N)
    i = int(np.argmax(step))
    return int(idx[(i + 1) % idx.size]), N - int(step[i]) + 1


def _free_box(free: np.ndarray):
    """(box, thetas, periodic) of a boolean free set: the index of its
    cyclic extent (slices, or an np.ix_ index where the extent wraps
    across the seam), the sine frequencies pi j / (n + 1), j = 1..n, of
    each axis's extent n, and whether the extent is the whole box."""
    extent = [_cyclic_extent(free, ax) for ax in range(free.ndim)]
    thetas = [np.pi * np.arange(1, n + 1) / (n + 1) for _, n in extent]
    periodic = all(n == N for (_, n), N in zip(extent, free.shape))
    if all(start + n <= N for (start, n), N in zip(extent, free.shape)):
        box = tuple(slice(start, start + n) for start, n in extent)
    else:
        box = np.ix_(*[(start + np.arange(n)) % N
                       for (start, n), N in zip(extent, free.shape)])
    return box, thetas, periodic


def _pseudo_reciprocal(lam: np.ndarray) -> np.ndarray:
    """1 / lambda, and 0 where lambda is a rounding-level zero (at most
    NULL_RTOL times its maximum): the exact null modes of a periodic
    operator, which the preconditioner must not amplify."""
    inv = np.zeros_like(lam)
    np.divide(1.0, lam, out=inv, where=lam > NULL_RTOL * lam.max())
    return inv


def _fast_preconditioner(precomp, w0, w1, mask, provider):
    """z = mask * T^-1[T(r) / lambda] on the free set's box: the interior
    symbol of w0 M + w1 K (interior_symbol) inverted in the transform that
    diagonalizes the operator's interior stencil on the free set
    (mask > 0.5).  The box, its sine frequencies and whether it is the
    whole periodic box come from _free_box, as in criterion 9's check.

    Where the free set leaves a gap along some axis it is a Dirichlet
    block, whose interior stencil is a multilevel Toeplitz matrix: T is
    the DST-I over the free set's cyclic extent per axis (an axis it
    covers whole takes its whole length), and lambda is taken at the sine
    frequencies pi j / (n + 1), j = 1..n, the tau preconditioner of the
    Toeplitz stencil.  Where it covers every axis the operator is a
    circulant: T is the DFT over the grid and lambda is taken at the DFT
    frequencies.  One closure applies either pair.  Either way the
    preconditioner is symmetric positive semidefinite, definite on the
    masked subspace of a Dirichlet block.  Its reciprocal is kept, so an
    application (two transforms) multiplies; the build runs none.

    The sine pair is the provider's dstn/idstn (the default backend's rule
    is spectral.ScipyFFTProvider's); the provider counts one forward and
    one inverse transform per application.
    """
    box, thetas, periodic = _free_box(mask > 0.5)
    if periodic:
        transform, back, thetas = forward, inverse, None
    else:
        transform, back = sine_forward, sine_inverse
    inv_lam = _pseudo_reciprocal(interior_symbol(precomp, w0, w1, thetas))
    shape = precomp.grid.shape

    def precondition(v):
        v_hat = transform(v[box], provider)
        v_hat *= inv_lam
        z = np.zeros(shape)
        z[box] = back(v_hat, provider)
        z *= mask
        return z

    return precondition


def _masked_cg(apply_op, rhs, d0, mask, tol, max_iter, precondition):
    """Preconditioned conjugate gradient on the mask-projected operator.

    The residual and every search direction are multiplied by the 0/1 mask,
    so frozen coefficients never move.  `precondition` is the caller's
    `_fast_preconditioner` of the same operator and mask: on the free box
    of a Dirichlet problem it inverts the interior stencil up to its
    boundary rows, so the iteration count stays flat under mesh refinement
    (4 at 2D 64^2 and 128^2 and at 3D 32^3-64^3, n = 1).  Convergence is on
    the recursive residual r <- r - alpha A p relative to the initial one,
    not on the true residual mask * (rhs - A d), which is never formed
    after the start: the two drift apart by rounding that grows with the
    iteration count and the conditioning (Greenbaum 1997, ch. 7).  At exit
    the true one was at most 1.116 times the recursive one on the cells
    tests/test_solvers.py bounds (2D 64^2 a_tilde = 3.5, 71 iterations).
    A non-finite initial residual (a NaN or inf in rhs or d0) stops it
    before the first iteration, and a curvature p.Ap that is not positive
    (NaN included) stops it at once, both as not converged.

    Returns:
        (d, converged, history): history[i] is the relative recursive
        residual after i iterations, so the iteration count is
        len(history) - 1; [nan] when the initial residual is not finite.
    """
    d = d0.copy()
    # a zero start leaves r = mask * rhs exactly: no operator application
    r = mask * (rhs - apply_op(d)) if d.any() else mask * rhs
    r0 = float(np.linalg.norm(r))
    if r0 == 0.0:
        return d, True, [0.0]
    if not np.isfinite(r0):
        return d, False, [float("nan")]
    p = z = precondition(r)
    rz = float(np.dot(r.ravel(), z.ravel()))
    history = [1.0]
    for _ in range(max_iter):
        Ap = mask * apply_op(p)
        pAp = float(np.dot(p.ravel(), Ap.ravel()))
        if not pAp > 0.0:
            return d, False, history
        alpha = rz / pAp
        d += alpha * p
        r -= alpha * Ap
        history.append(float(np.linalg.norm(r)) / r0)
        if history[-1] <= tol:
            return d, True, history
        z = precondition(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p *= rz_new / rz
        p += z
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
    precomp.grid.check_field(rhs, "rhs")
    d0 = np.zeros(precomp.grid.shape) if dirichlet is None else dirichlet.copy()
    start = time.perf_counter()
    d, converged, history = _masked_cg(
        lambda x: internal_force(x, precomp, provider), rhs, d0, chi_omega,
        config.tol, config.iter_cap(int(np.count_nonzero(chi_omega))),
        _fast_preconditioner(precomp, 0.0, 1.0, chi_omega, provider),
    )
    report = SolveReport(time.perf_counter() - start, converged, history)
    if not converged:
        warnings.warn(
            f"CG stopped at relative residual {report.residual:.3e} "
            f"after {report.iterations} iterations", stacklevel=2,
        )
    u_h = evaluate_field(d, precomp, provider)
    return d, u_h, report


def solve_static_nonlinear(
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    rhs: np.ndarray,
    nonlinearity,
    nonlinearity_prime,
    dirichlet: np.ndarray | None = None,
    config: SolverConfig | None = None,
    provider=None,
):
    """Inexact Newton over the masked PCG for f_int(d) + f_N(d) = rhs.

    `nonlinearity` maps u_h to the pointwise term N(u_h) projected against
    the shape functions; `nonlinearity_prime` is N'.  Each step solves
    J s = -R, J v = f_int(v) + f_ext(N'(u_h) v_h), by `_masked_cg` on
    chi_omega (config.iter_cap), preconditioned by the symbol of f_int
    (`_fast_preconditioner`, built once per solve), to the relative
    tolerance eta_k of Eisenstat and Walker's choice 2 (SIAM J. Sci.
    Comput. 17, 1996): eta_0 = 1/2, then

        eta_k = min(1/2, max(0.9 (rho_k / rho_{k-1})^2, safeguard)),

    rho_k = ||R_k|| / ||R_0||, with the safeguard 0.9 eta_{k-1}^2 when it
    exceeds 0.1 (else none), and floored at config.tol / (2 rho_k), so
    that no step solves for more than half the remaining outer target.
    The step is halved until ||R||^2 meets the Armijo condition (factor
    1e-4, at most 40 halvings).  Convergence is ||masked R|| / ||masked R_0|| <= tol, one
    history entry per step; the report's inner_iterations holds the CG
    iterations of each step.  A start whose residual is not finite takes
    no step and warns (SolveReport).
    The residual and each Jacobian application are one weak form each
    (operators._form: N(u_h), resp. N'(u_h), on the b0 row and 1 on
    bgrad), so a solve of `steps` Newton steps and k inner CG iterations
    in all, with no backtracking, runs 2(s+1)(1 + steps) + (2(s+1) + 2) k
    transforms; each halving adds 2(s+1).
    N' >= 0 is required: only then is J positive definite on the masked
    subspace.  Otherwise the inner CG can stop on non-positive curvature,
    and a step that never reduces the residual raises LineSearchError.

    Returns:
        (d, u_h, SolveReport)
    """
    config = config or SolverConfig()

    def residual(dd):
        """Masked residual and the evaluated field it was built from."""
        f, u = _form(dd, nonlinearity, 1.0, precomp, provider)
        return chi_omega * (f - rhs), u

    def jacobian(v):  # at the current iterate, through n_prime
        return _form(v, n_prime, 1.0, precomp, provider)[0]

    d = np.zeros(precomp.grid.shape) if dirichlet is None else dirichlet.copy()
    max_iter = config.iter_cap(int(np.count_nonzero(chi_omega)))
    start = time.perf_counter()
    R, u = residual(d)
    R_norm0 = float(np.linalg.norm(R))
    history, inner = [1.0], []
    if not 0.0 < R_norm0 < np.inf:  # no step from a zero or non-finite start
        history, max_iter = [0.0 if R_norm0 == 0.0 else np.nan], 0
    precondition = _fast_preconditioner(precomp, 0.0, 1.0, chi_omega, provider)
    eta = 0.5
    for iters in range(1, max_iter + 1):
        if iters > 1:
            safeguard = 0.9 * eta**2
            eta = 0.9 * (history[-1] / history[-2]) ** 2
            if safeguard > 0.1:
                eta = max(eta, safeguard)
            eta = min(eta, 0.5)
        eta = max(eta, 0.5 * config.tol / history[-1])
        n_prime = nonlinearity_prime(u)
        step, _, cg_history = _masked_cg(
            jacobian, -R, np.zeros_like(d), chi_omega, eta, max_iter,
            precondition,
        )
        inner.append(len(cg_history) - 1)
        # ||J s + R|| <= eta ||R||, so ||R||^2 falls at a rate of at least
        # 2 (1 - eta) ||R||^2 >= ||R||^2 along s
        for alpha in 0.5 ** np.arange(41):
            d_try = d + alpha * step
            R_try, u_try = residual(d_try)
            rel = float(np.linalg.norm(R_try)) / R_norm0
            if rel * rel <= (1.0 - 2e-4 * alpha) * history[-1] ** 2:
                break
        else:
            raise LineSearchError(
                f"line search failed at Newton iteration {iters} "
                f"(residual {history[-1]:.3e})"
            )
        d, R, u = d_try, R_try, u_try
        history.append(rel)
        if history[-1] <= config.tol:
            break
    converged = history[-1] <= config.tol
    report = SolveReport(
        time.perf_counter() - start, converged, history, inner
    )
    if not converged:
        warnings.warn(
            f"Newton stopped at relative residual {report.residual:.3e} "
            f"after {report.iterations} iterations ({sum(inner)} inner CG "
            f"iterations: {inner})", stacklevel=2,
        )
    return d, u, report


def step_transient_diffusion(
    state: TransientState,
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    rhs: np.ndarray,
    config: SolverConfig,
    lumped: np.ndarray | None = None,
    provider=None,
) -> TransientState:
    """Advance the diffusion system one time step.

    Both schemes take f = rhs - nu K d.  Forward Euler divides it by the
    (precomputed) lumped mass on the active nodes; backward Euler solves
    (M/dt + nu K) delta = f from delta = 0 by masked CG, preconditioned by
    the symbol of M/dt + nu K (`_fast_preconditioner`, no transform to
    build), applying M/dt + nu K as one weak form (operators._form):
    2(s+1) + k (2(s+1) + 2) transforms for k CG iterations.
    Dirichlet coefficients stay frozen either way.

    Raises:
        ValueError: config.dt is not set.
        FloatingPointError: the step produced NaN (reported with its index).
    """
    dt = config.dt
    if dt is None:
        raise ValueError("transient stepping needs config.dt")
    d = state.d
    converged = state.converged
    explicit = config.scheme == "explicit-euler"
    if explicit and lumped is None:
        raise ValueError("explicit stepping needs the lumped mass field")
    # f = rhs - nu K d, in K d's own array: (-nu) K d + rhs rounds the same
    f = internal_force(d, precomp, provider)
    f *= -config.nu
    f += rhs
    if explicit:
        # d + dt (f / M_l) on the free nodes and d + 0 elsewhere, in one
        # array, rounded as written
        d_new = np.zeros(precomp.grid.shape)
        np.divide(f, lumped, out=d_new, where=chi_omega > 0.5)
        d_new *= dt
        d_new += d
    else:
        w = (1.0 / dt, config.nu)
        delta, step_converged, history = _masked_cg(
            lambda x: _form(x, *w, precomp, provider)[0], f, np.zeros_like(d),
            chi_omega, config.tol,
            config.iter_cap(int(np.count_nonzero(chi_omega))),
            _fast_preconditioner(precomp, *w, chi_omega, provider),
        )
        d_new = d + delta
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
        np.zeros(precomp.grid.shape) if dirichlet is None else dirichlet.copy()
    )
    explicit = config.scheme == "explicit-euler"
    lumped = lumped_mass(precomp, provider) if explicit else None
    state = TransientState(t=0.0, d=d0)
    if callback is not None:
        callback(state)
    for _ in range(config.n_steps):
        state = step_transient_diffusion(
            state, precomp, chi_omega, rhs, config, lumped, provider
        )
        if callback is not None:
            callback(state)
    return state


def explicit_stable_dt(
    precomp: MomentPrecomp,
    chi_omega: np.ndarray,
    lumped: np.ndarray,
    nu: float = 1.0,
    seed: int = 0,
    provider=None,
) -> float:
    """Forward-Euler stability limit 2 / (nu * lambda_max), with lambda_max
    the largest eigenvalue of M_l^-1 K over the free nodes (chi_omega), the
    matrix of the explicit update.

    It is estimated by Lanczos on the similar symmetric matrix
    M_l^-1/2 K M_l^-1/2, from a seeded random start on the free nodes: the
    plain three-term recurrence, which keeps only the last two vectors and
    does not reorthogonalize, and whose estimate is the top eigenvalue (Ritz
    value) of the k x k tridiagonal.  It stops once that value moves by at
    most RITZ_RTOL relative in one step, or when the recurrence breaks down
    (exactly, on an invariant subspace).  Each step is one internal_force,
    2(s+1) transforms; LANCZOS_MAX_STEPS caps the steps.

    A Ritz value theta_k never exceeds lambda_max, so the limit is
    approached from above, but the stall rule does not make theta_k
    lambda_max to RITZ_RTOL: it can stop on a plateau below it (1.1e-3
    below at 2D 20^2, n = 2, seed 1).  What holds is probabilistic.  For a
    uniformly random start on n free nodes, as here,

        P(theta_k < (1 - eps) lambda_max) <= 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1))

    (Kuczynski & Wozniakowski 1992, SIAM J. Matrix Anal. Appl. 13).  At 2D
    64^2 (n = 3,721, k = 36) that is eps = 0.026 at probability 1e-3, which
    the callers' fraction of the limit (0.5) covers many times over.

    Raises:
        ValueError: there is no free node, or the lumped mass is not
            positive at a free node (M_l^-1/2 is then undefined).

    Warns:
        UserWarning: the cap is reached before the tolerance.
    """
    free = chi_omega > 0.5
    if not free.any():
        raise ValueError("explicit_stable_dt needs at least one free node")
    if not np.all(lumped[free] > 0.0):
        idx = tuple(int(i) for i in np.argwhere(free & ~(lumped > 0.0))[0])
        raise ValueError(
            f"lumped mass {lumped[idx]:.3e} at free node {idx} is not "
            "positive: forward Euler has no stable step"
        )
    scale = np.zeros(precomp.grid.shape)
    scale[free] = lumped[free] ** -0.5
    rng = np.random.default_rng(seed)
    q = chi_omega * rng.standard_normal(precomp.grid.shape)
    q /= np.linalg.norm(q)
    q_prev, beta = np.zeros_like(q), 0.0
    alphas, betas = [], []
    lam = 0.0
    for _ in range(LANCZOS_MAX_STEPS):
        w = scale * internal_force(scale * q, precomp, provider)
        alphas.append(float(np.vdot(q, w)))
        w -= alphas[-1] * q + beta * q_prev
        # eigvalsh reads the lower triangle
        tridiagonal = np.diag(alphas) + np.diag(betas, -1)
        lam, last = float(np.linalg.eigvalsh(tridiagonal)[-1]), lam
        beta = float(np.linalg.norm(w))
        if abs(lam - last) <= RITZ_RTOL * lam or beta == 0.0:
            return 2.0 / (nu * lam)
        betas.append(beta)
        q_prev, q = q, w / beta
    warnings.warn(
        f"explicit_stable_dt: the top Ritz value {lam:.6e} still moved by "
        f"{abs(lam - last) / lam:.1e} relative after {LANCZOS_MAX_STEPS} "
        f"steps (tolerance {RITZ_RTOL:g}); the limit may be too large",
        stacklevel=2,
    )
    return 2.0 / (nu * lam)
