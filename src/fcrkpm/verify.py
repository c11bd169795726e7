"""Self-contained verification suite: oracle equivalence plus invariants.

Runs the fast-path-vs-direct-summation comparisons on small grids in all
three dimensions, the convolution oracle, and the structural invariants
(mask algebra, reproducing conditions, operator symmetry, transform
counts).  Returns a machine-readable report; any failed check makes the
whole run fail.  A fault-injection switch perturbs one cached spectrum
entry so the harness itself can be shown to catch a corrupted kernel
table.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from . import operators as ops
from .basis import weighted_monomials
from .grid import boundary_face_weights
from .moment import assemble_moment_fields
from .problems import discretize, poisson_case
from .spectral import (
    CountingFFTProvider,
    circular_convolve,
    direct_circular_convolve,
    forward,
)

__all__ = ["run_verification"]

DEFAULT_COUNTS = {1: 64, 2: 32, 3: 12}


def _check(name, err, tol):
    return {
        "name": name,
        "passed": bool(err <= tol),
        "error": float(err),
        "tolerance": float(tol),
    }


def _rel(a, b):
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / (scale if scale > 0 else 1.0))


def _convolution_checks(rng):
    checks = []
    worst = 0.0
    for shape in [(8,), (12,), (16,), (8, 16), (8, 8, 8)]:
        for _ in range(5):
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            fast = circular_convolve(a, b)
            slow = direct_circular_convolve(a, b)
            worst = max(worst, _rel(fast, slow))
    checks.append(_check("convolution-oracle", worst, 1e-12))
    return checks


def _cross_method_checks(dim, counts, n, a_tilde, rng, inject_fault=False):
    disc = discretize(poisson_case(dim), n=n, a_tilde=a_tilde, counts=counts)
    if inject_fault:
        # corrupt one kernel-table entry: by linearity, adding the parity
        # component of a single-node bump's spectrum gives the spectrum of
        # H_p^a plus the bump's even or odd part, which keeps every spectrum
        # Hermitian; the direct-summation side stays clean, so equivalence
        # must fail by its measured error
        table = disc.table
        p = min(1, table.size - 1)
        exponents = table.basis.exponents[p : p + 1]
        ha = next(weighted_monomials(disc.grid, table.kernel, exponents))
        bump = np.zeros(disc.grid.shape)
        bump.flat[bump.size // 3] = 1e-3 * (1.0 + np.max(np.abs(ha)))
        spectrum = forward(bump)
        odd = p in table.parity_split[1]
        table.hat_Ha[p] += spectrum.imag if odd else spectrum.real
    ref = disc.reference()
    label = f"{dim}d-n{n}-a{a_tilde}"
    checks = []

    # entry by entry, so the small higher moments keep their own scale
    M = assemble_moment_fields(disc.chi, disc.table)
    direct = ref.moment_matrices()
    err = max(
        _rel(ref.restrict(M[pq]), direct[pq])
        for pq in combinations_with_replacement(range(disc.table.size), 2)
    )
    checks.append(_check(f"moment-{label}", err, 1e-10))

    d = disc.chi * rng.standard_normal(disc.grid.shape)
    r = disc.chi * rng.standard_normal(disc.grid.shape)
    checks.append(
        _check(
            f"f_int-{label}",
            _rel(ops.internal_force(d, disc.precomp), ref.f_int_direct(d)),
            1e-10,
        )
    )
    checks.append(
        _check(
            f"f_r-{label}",
            _rel(ops.external_force(r, disc.precomp), ref.f_r_direct(r)),
            1e-10,
        )
    )
    checks.append(
        _check(
            f"u_h-{label}",
            _rel(ops.evaluate_field(d, disc.precomp), ref.u_h_direct(d)),
            1e-10,
        )
    )
    checks.append(
        _check(
            f"mass-{label}",
            _rel(ops.mass_force(d, disc.precomp), ref.mass_apply_direct(d)),
            1e-10,
        )
    )
    checks.append(
        _check(
            f"lumped-{label}",
            _rel(ops.lumped_mass(disc.precomp), ref.lumped_mass_direct()),
            1e-10,
        )
    )
    if dim >= 2:
        face, area = boundary_face_weights(
            disc.grid, disc.chi, disc.case.bounds, axis=0, side="hi"
        )
        q = face * rng.standard_normal(disc.grid.shape)
        checks.append(
            _check(
                f"f_q-{label}",
                _rel(
                    ops.boundary_force(q, area, disc.precomp),
                    ref.f_q_direct(q, area),
                ),
                1e-10,
            )
        )
    return disc, checks


def _invariant_checks(disc, rng):
    checks = []
    chi, chi_g, chi_o = disc.chi, disc.chi_gamma_g, disc.chi_omega
    mask_err = max(
        np.max(np.abs(chi * chi - chi)),
        np.max(np.abs((1 - chi) * chi)),
        np.max(np.abs(chi_o + chi_g - chi)),
    )
    checks.append(_check("mask-algebra", mask_err, 0.0))

    active = chi > 0.5
    u1 = ops.evaluate_field(np.ones(disc.grid.shape), disc.precomp)
    checks.append(
        _check("partition-of-unity", np.max(np.abs(u1[active] - 1.0)), 1e-10)
    )
    X = disc.grid.coordinates()[0]
    ux = ops.evaluate_field(X, disc.precomp)
    checks.append(
        _check(
            "linear-reproduction",
            np.max(np.abs(ux[active] - X[active])) / np.max(np.abs(X[active])),
            1e-9,
        )
    )
    gx = ops.evaluate_gradient(X, disc.precomp)[0]
    checks.append(
        _check("gradient-reproduction", np.max(np.abs(gx[active] - 1.0)), 1e-8)
    )

    samples = [chi * rng.standard_normal(disc.grid.shape) for _ in range(4)]
    scale = max(
        np.linalg.norm(ops.internal_force(s, disc.precomp))
        / np.linalg.norm(s)
        for s in samples
    )
    sym = 0.0
    psd = 0.0
    for d1, d2 in zip(samples[::2], samples[1::2]):
        f1 = ops.internal_force(d1, disc.precomp)
        f2 = ops.internal_force(d2, disc.precomp)
        sym = max(
            sym,
            abs(np.vdot(d1, f2) - np.vdot(d2, f1))
            / (np.linalg.norm(d1) * np.linalg.norm(d2) * scale),
        )
    for s in samples:
        quad = np.vdot(s, ops.internal_force(s, disc.precomp))
        psd = max(psd, -quad / (scale * np.linalg.norm(s) ** 2))
    checks.append(_check("f_int-symmetry", sym, 1e-10))
    checks.append(_check("f_int-semidefinite", psd, 1e-10))

    const = ops.internal_force(np.ones(disc.grid.shape), disc.precomp)
    probe = ops.internal_force(samples[0], disc.precomp)
    checks.append(
        _check(
            "f_int-annihilates-constants",
            np.max(np.abs(const)) / np.max(np.abs(probe)),
            1e-9,
        )
    )

    Ml = ops.lumped_mass(disc.precomp)
    checks.append(
        _check(
            "lumped-mass-total",
            abs(np.sum(Ml) - np.sum(chi * disc.V)) / np.sum(chi * disc.V),
            1e-12,
        )
    )

    s = disc.table.size
    prov = CountingFFTProvider()
    ops.internal_force(samples[0], disc.precomp, prov)
    count_err = abs(prov.total - 2 * (s + 1))
    prov.reset()
    ops.external_force(samples[0], disc.precomp, prov)
    count_err = max(count_err, abs(prov.total - (s + 1)))
    prov.reset()
    ops.evaluate_field(samples[0], disc.precomp, prov)
    count_err = max(count_err, abs(prov.total - (s + 1)))
    checks.append(_check("transform-count", count_err, 0.0))
    return checks


def _periodic_special_case(dim, rng):
    """With chi = 1 everywhere the box is genuinely periodic and constants
    must still be reproduced without any boundary truncation."""
    disc = discretize(poisson_case(dim), counts=16)
    grid = disc.grid
    chi = np.ones(grid.shape)
    from .grid import quadrature_weights
    from .moment import build_moment_precomp

    V = quadrature_weights(grid, chi)
    precomp = build_moment_precomp(chi, V, disc.table)
    u1 = ops.evaluate_field(np.ones(grid.shape), precomp)
    return [_check("periodic-chi1-constants", np.max(np.abs(u1 - 1.0)), 1e-10)]


def run_verification(
    counts: dict | None = None,
    seed: int = 0,
    inject_fault: bool = False,
) -> dict:
    """Run every check; returns {"passed": bool, "checks": [...]}."""
    rng = np.random.default_rng(seed)
    sizes = dict(DEFAULT_COUNTS)
    if counts:
        sizes.update(counts)
    checks = _convolution_checks(rng)
    disc_for_invariants = None
    for dim in (1, 2, 3):
        try:
            disc, cross = _cross_method_checks(
                dim, sizes[dim], 1, 1.5, rng,
                inject_fault=inject_fault and dim == 2,
            )
            checks.extend(cross)
            if dim == 2:
                disc_for_invariants = disc
        except Exception as exc:  # a crash is itself a failed check
            checks.append(
                {
                    "name": f"cross-method-{dim}d",
                    "passed": False,
                    "error": float("inf"),
                    "tolerance": 1e-10,
                    "exception": f"{type(exc).__name__}: {exc}",
                }
            )
    _, cross_n2 = _cross_method_checks(3, max(8, sizes[3] - 4), 2, 2.5, rng)
    checks.extend(cross_n2)
    if disc_for_invariants is not None:
        checks.extend(_invariant_checks(disc_for_invariants, rng))
    checks.extend(_periodic_special_case(2, rng))
    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "seed": seed,
        "fault_injection": inject_fault,
    }
