"""Acceptance checks of the FFT path, one function per criterion below.

Every function returns check records {name, passed, error, tolerance}; a
check passes when its error is at most its tolerance.

    1  convolution_checks       FFT convolution against direct sums
    2  oracle_checks            moments, every operator and the solvers'
                                mixed weak forms against reference.py,
                                the off-band moments against the interior,
                                and the closed-form basis spectra against
                                the FFT of the weighted fields (spectra_check)
    4  reproduction_checks      constant, linear and gradient reproduction
    5  structure_checks         f_int symmetry, semi-definiteness, constants
    6  transform_count_checks   exact transforms per operator and form call
    7  lumped_mass_total_check  lumped-mass total against the volume
    9  symbol_checks            preconditioner symbol against the stencil,
                                at the DFT and the sine frequencies

`run_verification`, the report of `fcrkpm verify`, calls each at its
default sizes, on the FFT provider it is given (the default backend when
None); only criterion 6 runs on a counting provider of its own.
tests/test_acceptance.py calls each on its own cells and sample counts.
The unit tests reuse them: test_operators.py reads criteria 2 and 4-7
per operator and runs criterion 2 on random ball domains, test_domains.py
runs criteria 2 and 4 on a shifted anisotropic box and a disk,
test_spectral.py criterion 1 per shape.  A fault-injection
switch corrupts one cached spectrum entry (`corrupt_table`) so the checks
themselves can be shown to catch a corrupted kernel table.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

import numpy as np

from . import operators as ops
from .basis import weighted_monomials
from .grid import box_predicates
from .moment import (
    INTERIOR_RTOL,
    MomentPrecomp,
    _exponent_sums,
    assemble_moment_fields,
    boundary_band,
    build_moment_precomp,
    interior_moments,
    off_band_deviation,
)
from .problems import discretize, poisson_case
from .solvers import _free_box, interior_symbol
from .spectral import (
    CountingFFTProvider,
    circular_convolve,
    direct_circular_convolve,
    forward,
)

if TYPE_CHECKING:  # the oracle itself comes from Discretization.reference
    from .reference import ReferenceModel

__all__ = [
    "CHECK_NAMES",
    "convolution_checks",
    "corrupt_table",
    "lumped_mass_total_check",
    "mask_check",
    "oracle_checks",
    "rel_err",
    "reproduction_checks",
    "spectra_check",
    "run_verification",
    "structure_checks",
    "symbol_checks",
    "transform_count_checks",
]


def _backward_euler(grid, r=None):
    """The weights (1/dt, nu) of the backward-Euler form M/dt + nu K that
    criteria 2, 6 and 9 test: dt = dx_0^2, nu = 1/2.  r is unused; it is
    there because _form_entry calls weights(grid, r)."""
    return grid.spacing[0] ** -2, 0.5


def _form_entry(check, weights):
    """The _OPERATORS entry of the weak form (w0 M + w1 K) d at the weights
    (w0, w1) = weights(grid, r): operators._form and its direct sum."""
    return (
        check, 2,
        lambda pc, fft, d, r, *_: ops._form(d, *weights(pc.grid, r), pc,
                                            fft)[0],
        lambda ref, d, r, *_: _form_direct(ref, d, *weights(ref.grid, r)),
    )


def _form_direct(ref, d, w0, w1):
    """(w0 M + w1 K) d by direct summation."""
    return ref.f_r_direct(w0 * ref.u_h_direct(d)) + w1 * ref.f_int_direct(d)


# every operator of operators.__all__, in its order, then the two weak forms
# the solvers apply through operators._form:
#   name: (check name, transforms per call in units of s + 1,
#          FFT path (precomp, fft, *inputs), oracle (ref, *inputs))
# on the inputs (d, r, fields, q, area) of _inputs
_OPERATORS = {
    "internal_force": ("f_int", 2,
                       lambda pc, fft, d, *_: ops.internal_force(d, pc, fft),
                       lambda ref, d, *_: ref.f_int_direct(d)),
    "external_force": ("f_r", 1,
                       lambda pc, fft, d, r, *_: ops.external_force(r, pc, fft),
                       lambda ref, d, r, *_: ref.f_r_direct(r)),
    "evaluate_field": ("u_h", 1,
                       lambda pc, fft, d, *_: ops.evaluate_field(d, pc, fft),
                       lambda ref, d, *_: ref.u_h_direct(d)),
    "evaluate_gradient": (
        "grad_u_h", 1,
        lambda pc, fft, d, *_: ops.evaluate_gradient(d, pc, fft),
        lambda ref, d, *_: ref.gradient_direct(d)),
    "boundary_force": (
        "f_q", 1,
        lambda pc, fft, d, r, f, q, area: ops.boundary_force(q, area, pc, fft),
        lambda ref, d, r, f, q, area: ref.f_q_direct(q, area)),
    "nonlinear_force_gradient": (
        "f_N", 1,
        lambda pc, fft, d, r, f, *_: ops.nonlinear_force_gradient(list(f), pc,
                                                                  fft),
        lambda ref, d, r, f, *_: ref.extend(sum(
            B_ax.T @ (ref.V * ref.restrict(f_ax))
            for B_ax, f_ax in zip(ref.shape_matrices()[1], f)))),
    "mass_force": ("mass", 2,
                   lambda pc, fft, d, *_: ops.mass_force(d, pc, fft),
                   lambda ref, d, *_: ref.mass_apply_direct(d)),
    "lumped_mass": ("lumped", 1,
                    lambda pc, fft, *_: ops.lumped_mass(pc, fft),
                    lambda ref, *_: ref.lumped_mass_direct()),
    "implicit_form": _form_entry("form-implicit", _backward_euler),
    # the Newton Jacobian K + M_w, with the positive field w = 1 + r^2 in
    # place of N'(u_h)
    "jacobian_form": _form_entry("form-jacobian",
                                  lambda grid, r: (1.0 + r * r, 1.0)),
}

# the name each entry carries in the check records
CHECK_NAMES = {name: entry[0] for name, entry in _OPERATORS.items()}


def rel_err(a, b) -> float:
    """max|a - b| relative to max|b| (absolute when b is zero)."""
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / (scale if scale > 0 else 1.0))


def _check(name, err, tol):
    return {
        "name": name,
        "passed": bool(err <= tol),
        "error": float(err),
        "tolerance": float(tol),
    }


def _inputs(precomp: MomentPrecomp, rng):
    """Random masked operands: coefficients d, a source r, one vector
    nonlinearity component per axis, and a flux q with areas on the
    boundary nodes (the active nodes whose weight V a lattice neighbor off
    the domain cuts below 3/4 of a cell; no box bounds needed)."""
    chi, shape = precomp.chi, precomp.grid.shape
    d = chi * rng.standard_normal(shape)
    r = chi * rng.standard_normal(shape)
    fields = chi * rng.standard_normal((precomp.dim, *shape))
    boundary = chi * (precomp.V < 0.75 * precomp.grid.cell_volume)
    q = boundary * rng.standard_normal(shape)
    area = boundary * rng.uniform(0.5, 1.5, shape)
    return d, r, fields, q, area


def convolution_checks(rng, shapes, pairs: int, provider=None) -> list[dict]:
    """Criterion 1: FFT circular convolution against the direct sum on
    `pairs` random pairs, cycling through `shapes`, at 1e-12."""
    worst = 0.0
    for k in range(pairs):
        shape = shapes[k % len(shapes)]
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        err = rel_err(circular_convolve(a, b, provider),
                      direct_circular_convolve(a, b))
        worst = max(worst, err)
    return [_check("convolution-oracle", worst, 1e-12)]


def spectra_check(table, label: str, provider=None) -> dict:
    """The closed-form basis spectra (build_basis_table) against the FFT
    of the weighted fields on the lattice (weighted_monomials): hat_Ha[p]
    against the kept component of F(H_p^a) and zero against the dropped
    one, so a field that is not even or odd with |alpha_p| shows up here;
    the error is the max over p relative to max|kept|, at 1e-12."""
    fields = weighted_monomials(table.grid, table.kernel,
                                table.basis.exponents)
    odd = table.parity_split[1]
    err = 0.0
    for p, (hat, ha) in enumerate(zip(table.hat_Ha, fields)):
        spectrum = forward(ha, provider)
        kept, dropped = spectrum.real, spectrum.imag
        if p in odd:
            kept, dropped = dropped, kept
        scale = np.abs(kept).max()
        err = max(err, np.abs(hat - kept).max() / scale,
                  np.abs(dropped).max() / scale)
    return _check(f"spectra-{label}", err, 1e-12)


def oracle_checks(
    precomp: MomentPrecomp, ref: ReferenceModel, rng, label: str,
    provider=None,
) -> list[dict]:
    """Criterion 2: the moments and every entry of _OPERATORS (each
    operator of operators.__all__ and the two weak forms) against direct
    summation, each at relative error 1e-10.

    The moments are compared entry by entry (all s(s + 1)/2, each read
    from its exponent sum's field) and the gradient component by
    component, so each keeps its own scale.  The gradient force is judged
    against sum_ax B_ax^T V f_ax, f_q on the boundary nodes of _inputs.
    One more record, interior-moments, is the check that invert_moments
    raises on: the moment matrices off the precomp's boundary band against
    the interior one, at INTERIOR_RTOL, so its margin is on record.  The
    first, spectra, is spectra_check of the precomp's table.
    """
    M = assemble_moment_fields(precomp.chi, precomp.table, provider)
    M_direct = ref.moment_matrices()
    _, index = _exponent_sums(precomp.table.basis)
    err = max(
        rel_err(ref.restrict(M[index[pq]]), M_direct[pq])
        for pq in combinations_with_replacement(range(precomp.size), 2)
    )
    deviation, _ = off_band_deviation(
        M, precomp.chi, precomp.band, interior_moments(precomp.table)
    )
    checks = [
        spectra_check(precomp.table, label, provider),
        _check(f"moment-{label}", err, 1e-10),
        _check(f"interior-moments-{label}", deviation, INTERIOR_RTOL),
    ]
    inputs = _inputs(precomp, rng)
    for check, _, fast, direct in _OPERATORS.values():
        out, want = fast(precomp, provider, *inputs), direct(ref, *inputs)
        if isinstance(out, list):
            err = max(rel_err(a, b) for a, b in zip(out, want, strict=True))
        else:
            err = rel_err(out, want)
        checks.append(_check(f"{check}-{label}", err, 1e-10))
    return checks


def reproduction_checks(precomp: MomentPrecomp, provider=None) -> list[dict]:
    """Criterion 4: at the active nodes u_h reproduces 1 (1e-10) and x
    (1e-9, relative to max|x|), and the implicit gradient of x is 1 (1e-8)."""
    active = precomp.chi > 0.5
    u1 = ops.evaluate_field(np.ones(precomp.grid.shape), precomp, provider)
    X = precomp.grid.coordinates()[0]
    ux = ops.evaluate_field(X, precomp, provider)
    gx = ops.evaluate_gradient(X, precomp, provider)[0]
    return [
        _check("partition-of-unity", np.max(np.abs(u1[active] - 1.0)), 1e-10),
        _check(
            "linear-reproduction",
            np.max(np.abs(ux[active] - X[active])) / np.max(np.abs(X[active])),
            1e-9,
        ),
        _check("gradient-reproduction", np.max(np.abs(gx[active] - 1.0)), 1e-8),
    ]


def structure_checks(precomp: MomentPrecomp, rng, samples: int,
                     provider=None) -> list[dict]:
    """Criterion 5: f_int is symmetric over consecutive pairs of `samples`
    random coefficient fields and semi-definite on each (1e-10, relative to
    the largest sampled |f|/|d|), and it annihilates constants (1e-9,
    relative to the first sample's force)."""
    shape = precomp.grid.shape
    ds = [precomp.chi * rng.standard_normal(shape) for _ in range(samples)]
    fs = [ops.internal_force(d, precomp, provider) for d in ds]
    norms = [np.linalg.norm(d) for d in ds]
    scale = max(np.linalg.norm(f) / n for f, n in zip(fs, norms))
    sym = max(
        abs(np.vdot(ds[i], fs[i + 1]) - np.vdot(ds[i + 1], fs[i]))
        / (norms[i] * norms[i + 1] * scale)
        for i in range(0, samples - 1, 2)
    )
    psd = max(-np.vdot(d, f) / (scale * n**2) for d, f, n in zip(ds, fs, norms))
    const = ops.internal_force(np.ones(shape), precomp, provider)
    return [
        _check("f_int-symmetry", sym, 1e-10),
        _check("f_int-semidefinite", max(psd, 0.0), 1e-10),
        _check(
            "f_int-annihilates-constants",
            np.max(np.abs(const)) / np.max(np.abs(fs[0])),
            1e-9,
        ),
    ]


def transform_count_checks(precomp: MomentPrecomp, rng) -> list[dict]:
    """Criterion 6: one call of each entry of _OPERATORS runs exactly its
    multiple of s+1 transforms, 2(s+1) (internal_force, mass_force and the
    forms) or s+1 (all others); the error is the count's distance from
    that."""
    s = precomp.size
    fft = CountingFFTProvider()
    inputs = _inputs(precomp, rng)
    checks = []
    for check, times, fast, _ in _OPERATORS.values():
        fft.reset()
        fast(precomp, fft, *inputs)
        err = abs(fft.total - times * (s + 1))
        checks.append(_check(f"{check}-transforms", err, 0.0))
    return checks


def lumped_mass_total_check(precomp: MomentPrecomp, provider=None) -> dict:
    """Criterion 7: the lumped mass sums to the domain's quadrature volume
    (relative 1e-12)."""
    volume = np.sum(precomp.chi * precomp.V)
    total = np.sum(ops.lumped_mass(precomp, provider))
    return _check("lumped-mass-total", abs(total - volume) / volume, 1e-12)


def symbol_checks(precomp: MomentPrecomp, chi_omega: np.ndarray,
                  label: str, provider=None) -> list[dict]:
    """Criterion 9, the preconditioner: solvers.interior_symbol against
    the response K(o) of the form (operators._form) to a unit delta at a
    node whose footprint's footprint is all active, rolled back to the
    origin, at 1e-12; for K and M/dt + nu K (_backward_euler), on
    the precomp and on its mask rolled by half the box across the seam.

    Two frequency sets: the DFT ones, against the DFT (real part) of the
    response (symbol-<form>-<case>), and the sine frequencies pi j / (n + 1)
    of the free set's (chi_omega's) cyclic extent per axis
    (solvers._free_box, the frequencies the preconditioner divides at),
    against sum_o K(o) prod_ax cos(theta_ax o_ax)
    (symbol-sine-<form>-<case>).  A mask without such a node fails."""
    grid, table, axes = precomp.grid, precomp.table, tuple(range(precomp.dim))
    half = [n // 2 for n in grid.shape]
    rolled = build_moment_precomp(np.roll(precomp.chi, half, axes),
                                  np.roll(precomp.V, half, axes), table,
                                  provider)
    forms = {"f_int": (0.0, 1.0), "implicit": _backward_euler(grid)}
    # minimal-image node offsets, and the sine frequencies of the extent,
    # which rolling the mask does not change
    offsets = [(np.arange(n) + n // 2) % n - n // 2 for n in grid.shape]
    _, thetas, _ = _free_box(chi_omega > 0.5)
    checks = []
    for case, pc in ((label, precomp), (f"{label}-rolled", rolled)):
        # the active nodes off the band whose footprint is off it too
        deep = pc.chi.copy()
        deep.flat[pc.band] = 0.0
        deep.flat[boundary_band(deep, table)] = 0.0
        center = np.unravel_index(int(np.argmax(deep)), grid.shape)
        delta = np.zeros(grid.shape)
        delta[center] = 1.0
        for name, (w0, w1) in forms.items():
            col = np.roll(ops._form(delta, w0, w1, pc, provider)[0],
                          [-k for k in center], axes)
            err = rel_err(interior_symbol(pc, w0, w1),
                          forward(col, provider).real)
            sine = col
            for o, theta in zip(offsets, thetas):
                # contract the leading offset axis; the frequency goes last
                sine = np.tensordot(sine, np.cos(np.outer(o, theta)), (0, 0))
            sine_err = rel_err(interior_symbol(pc, w0, w1, thetas), sine)
            if not deep.any():
                err = sine_err = np.inf
            checks.append(_check(f"symbol-{name}-{case}", err, 1e-12))
            checks.append(_check(f"symbol-sine-{name}-{case}", sine_err,
                                 1e-12))
    return checks


def mask_check(disc) -> dict:
    """The masks of a box discretization, exactly: chi is 0/1, equals the
    domain predicate box_predicates(case.bounds) at the grid nodes, and
    splits into chi_omega + chi_gamma_g."""
    chi = disc.chi
    inside, _ = box_predicates(disc.case.bounds)
    err = max(
        np.max(np.abs(chi * chi - chi)),
        np.max(np.abs(chi - inside(*disc.grid.coordinates()))),
        np.max(np.abs(disc.chi_omega + disc.chi_gamma_g - chi)),
    )
    return _check("mask-algebra", err, 0.0)


def corrupt_table(precomp: MomentPrecomp, provider=None) -> None:
    """Corrupt one kernel-table entry in place, the fault of
    run_verification(inject_fault=True).

    By linearity, adding the parity component of a single-node bump's
    spectrum gives the spectrum of H_p^a plus the bump's even or odd part,
    which keeps every spectrum Hermitian.  The direct-summation side stays
    clean, so criterion 2 must fail by its measured error, not by a crash.
    """
    table, grid = precomp.table, precomp.grid
    p = min(1, table.size - 1)
    exponents = table.basis.exponents[p : p + 1]
    ha = next(weighted_monomials(grid, table.kernel, exponents))
    bump = np.zeros(grid.shape)
    bump.flat[bump.size // 3] = 1e-3 * (1.0 + np.max(np.abs(ha)))
    spectrum = forward(bump, provider)
    odd = p in table.parity_split[1]
    table.hat_Ha[p] += spectrum.imag if odd else spectrum.real


def run_verification(seed: int = 0, inject_fault: bool = False,
                     provider=None) -> dict:
    """Run every check at the default sizes; returns {"passed": bool,
    "checks": [...], "seed", "fault_injection"}.  Every transform but
    criterion 6's runs on `provider` (the default backend when None).

    Criteria 2 and 9 run on each default cell; a cell that raises is
    itself a failed check.  The mask algebra and criteria 4-7 run on the 2D
    n = 1 cell, which carries the fault when inject_fault is set.
    """
    rng = np.random.default_rng(seed)
    shapes = [(8,), (12,), (16,), (8, 16), (8, 8, 8)]
    checks = convolution_checks(rng, shapes, pairs=25, provider=provider)
    disc2 = None
    # dim, nodes per axis, n, a_tilde; criterion 9 needs a node whose
    # footprint's footprint fits the domain
    cells = [(1, 64, 1, 1.5), (1, 64, 2, 2.5), (2, 32, 1, 1.5),
             (2, 32, 2, 2.5), (3, 12, 1, 1.5), (3, 16, 2, 2.5)]
    for dim, counts, n, a_tilde in cells:
        label = f"{dim}d-n{n}-a{a_tilde}"
        try:
            disc = discretize(
                poisson_case(dim), n=n, a_tilde=a_tilde, counts=counts,
                provider=provider,
            )
            if inject_fault and (dim, n) == (2, 1):
                corrupt_table(disc.precomp, provider)
            checks.extend(oracle_checks(disc.precomp, disc.reference(), rng,
                                        label, provider))
            checks.extend(symbol_checks(disc.precomp, disc.chi_omega, label,
                                        provider))
            if (dim, n) == (2, 1):
                disc2 = disc
        except Exception as exc:  # a crash is itself a failed check
            crash = _check(f"cross-method-{label}", float("inf"), 1e-10)
            checks.append(crash | {"exception": f"{type(exc).__name__}: {exc}"})
    if disc2 is not None:
        checks.append(mask_check(disc2))
        checks.extend(reproduction_checks(disc2.precomp, provider))
        checks.extend(structure_checks(disc2.precomp, rng, samples=4,
                                       provider=provider))
        checks.append(lumped_mass_total_check(disc2.precomp, provider))
        checks.extend(transform_count_checks(disc2.precomp, rng))
    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "seed": seed,
        "fault_injection": inject_fault,
    }
