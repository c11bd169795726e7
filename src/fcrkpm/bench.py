"""Timing and memory comparison between the two implementations.

Per benchmark cell (node count on the physical box, basis degree, support
size), the harness times the convolution path's internal force, load
vector, field evaluation, and moment stage against the traditional path's
counterparts, plus the traditional stiffness assembly and sparse
matrix-vector product.  Timings are medians over R repetitions after one
warm-up on a monotonic clock; if a measurement lands below timer
resolution the inner loop count doubles until it does not.

Memory columns are analytic: the byte totals of the arrays each side
actually keeps between force evaluations (spectra, b/C fields, masks and
weights on one side; node table, neighbor lists, and sparse operator on
the other), not process RSS.

The physical box keeps the same nodes in every cell of a sweep, so the
spacing is fixed and the extension follows the support size, padded to an
FFT-friendly count (the minimal extension can land on a prime node count,
which would bias the comparison with transform-size artifacts unrelated to
the support).

The traditional stiffness assembly above the size guard is skipped and
replaced by an O(N*M^2) extrapolation from a small calibration cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .moment import build_moment_precomp
from .problems import discretize, poisson_case
from .reference import ReferenceModel

__all__ = ["TimingRecord", "bench_cell", "measure"]

TIMER_FLOOR = 1e-6


@dataclass
class TimingRecord:
    term: str
    method: str
    dim: int
    n: int
    a_tilde: float
    neighbors: int
    n_omega: int
    n_total: int
    reps: int
    median_s: float | None
    persistent_bytes: int | None = None
    speedup: float | None = None
    note: str = ""

    def row(self) -> list:
        return [
            self.term,
            self.method,
            self.dim,
            self.n,
            self.a_tilde,
            self.neighbors,
            self.n_omega,
            self.n_total,
            self.reps,
            "" if self.median_s is None else repr(self.median_s),
            "" if self.persistent_bytes is None else self.persistent_bytes,
            "" if self.speedup is None else repr(self.speedup),
            self.note,
        ]


CSV_HEADER = [
    "term", "method", "dim", "n", "a_tilde", "M", "N_omega", "N_total",
    "reps", "median_s", "persistent_bytes", "speedup", "note",
]


def measure(fn, reps: int = 5) -> float:
    """Median wall time of fn() over `reps` runs after one warm-up."""
    fn()
    loops = 1
    while True:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(loops):
                fn()
            times.append((time.perf_counter() - t0) / loops)
        med = float(np.median(times))
        if med >= TIMER_FLOOR or loops >= 4096:
            return med
        loops *= 2


def _stiffness_from_scratch(model: ReferenceModel):
    """Shape-value expansion plus sparse accumulation, fresh each call (the
    neighbor table and moment rows are staged, as a solver would)."""
    model._psi = None
    model._dpsi = None
    model._K = None
    return model.assemble_stiffness()


def _extrapolate_assembly(dim: int, n: int, a_tilde: float, n_omega: int, reps):
    """Calibrate the assembly cost on a small cell with the same support
    (hence the same M) and scale by the O(N*M^2) node-count factor."""
    import warnings as _warnings

    from .errors import NonPowerOfTwoWarning

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", NonPowerOfTwoWarning)
        small = discretize(
            poisson_case(dim),
            n=n,
            a_tilde=a_tilde,
            spacing=2.0 / 7,
            pad_to_fast=True,
        )
    model = small.reference()
    model.moment_rows()
    t_small = measure(lambda: _stiffness_from_scratch(model), reps)
    return t_small * n_omega / model.n_nodes, t_small


def bench_cell(
    dim: int = 3,
    n: int = 1,
    a_tilde: float = 1.5,
    nodes_per_axis: int = 20,
    reps: int = 5,
    skip_traditional_above: int = 32**3,
    seed: int = 0,
    provider=None,
) -> list[TimingRecord]:
    """Time every term of one benchmark cell on both implementations.

    The physical box [-1, 1]^dim carries `nodes_per_axis` nodes per axis;
    the extension adapts to the support size with an FFT-friendly pad.
    """
    import warnings as _warnings

    from .errors import NonPowerOfTwoWarning

    rng = np.random.default_rng(seed)
    spacing = 2.0 / (nodes_per_axis - 1)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", NonPowerOfTwoWarning)
        disc = discretize(
            poisson_case(dim),
            n=n,
            a_tilde=a_tilde,
            spacing=spacing,
            pad_to_fast=True,
            provider=provider,
        )
    n_omega = disc.n_omega
    n_total = disc.grid.total_nodes

    d = disc.chi * rng.standard_normal(disc.grid.shape)
    r = disc.chi * rng.standard_normal(disc.grid.shape)

    def rec(term, method, median, nbytes=None, speedup=None, note=""):
        return TimingRecord(
            term=term,
            method=method,
            dim=dim,
            n=n,
            a_tilde=a_tilde,
            neighbors=n_neighbors,
            n_omega=n_omega,
            n_total=n_total,
            reps=reps,
            median_s=median,
            persistent_bytes=nbytes,
            speedup=speedup,
            note=note,
        )

    model = disc.reference()
    model.find_neighbors()
    n_neighbors = len(model._offsets)

    records = []

    # convolution path; the moment stage rebuilds from the basis table
    fc_times = {
        "moment": measure(
            lambda: build_moment_precomp(disc.chi, disc.V, disc.table, provider),
            reps,
        ),
        "f_int": measure(
            lambda: ops.internal_force(d, disc.precomp, provider), reps
        ),
        "f_r": measure(
            lambda: ops.external_force(r, disc.precomp, provider), reps
        ),
        "u_h": measure(
            lambda: ops.evaluate_field(d, disc.precomp, provider), reps
        ),
    }
    fc_bytes = disc.precomp.persistent_nbytes() + disc.chi_gamma_g.nbytes

    # traditional path
    trad_times = {
        "moment": measure(
            lambda: (model.reset_moment_cache(), model.moment_rows()), reps
        ),
        "f_r": measure(lambda: model.f_r_direct(r), reps),
        "u_h": measure(lambda: model.u_h_direct(d), reps),
    }
    skipped = n_omega > skip_traditional_above
    f_int_note = ""
    if skipped:
        est, _ = _extrapolate_assembly(dim, n, a_tilde, n_omega, reps)
        trad_times["K_assembly"] = None
        trad_times["Kd_product"] = None
        trad_times["f_int"] = None
        assembly_note = (
            f"skipped (size guard {skip_traditional_above}); "
            f"O(N*M^2) extrapolation: {est:.3e} s"
        )
        f_int_note = assembly_note
    else:
        model.moment_rows()
        trad_times["K_assembly"] = measure(
            lambda: _stiffness_from_scratch(model), reps
        )
        K = model.assemble_stiffness()
        d_omega = model.restrict(d)
        trad_times["Kd_product"] = measure(lambda: K @ d_omega, reps)
        # producing f_int from scratch is the assembly plus one product
        trad_times["f_int"] = trad_times["K_assembly"] + trad_times["Kd_product"]
        assembly_note = ""
        f_int_note = "K_assembly + Kd_product medians"
    trad_bytes = model.persistent_nbytes()

    matching = {"f_int": "f_int", "f_r": "f_r", "u_h": "u_h", "moment": "moment"}
    for term in ("f_int", "f_r", "u_h", "moment"):
        trad = trad_times.get(matching[term])
        speedup = (
            trad / fc_times[term] if trad is not None and fc_times[term] > 0
            else None
        )
        records.append(
            rec(term, "fc", fc_times[term], nbytes=fc_bytes, speedup=speedup)
        )
    for term in ("f_int", "f_r", "u_h", "moment", "K_assembly", "Kd_product"):
        if term not in trad_times:
            continue
        note = {"f_int": f_int_note, "K_assembly": assembly_note}.get(term, "")
        records.append(
            rec(term, "traditional", trad_times[term], nbytes=trad_bytes,
                note=note)
        )
    return records
