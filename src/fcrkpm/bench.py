"""Timing and memory comparison between the two implementations.

Each term of a benchmark cell (node count on the physical box, basis
degree, support size) pairs one public call on the convolution path with
its counterpart on the traditional path:

    term     convolution (fc) path   traditional path
    setup    discretize              disc.reference().assemble_stiffness()
    moment   build_moment_precomp    disc.reference().moment_rows()
    f_int    internal_force          one K @ d
    f_r      external_force          f_r_direct
    u_h      evaluate_field          u_h_direct

The fc row's `speedup` is the traditional median over the fc median of the
same term; on setup it includes the interpreter overhead of the stiffness
assembly's per-node Python loop (README, Bench notes).  Timings are
medians over R repetitions after one warm-up on a monotonic clock; if a
measurement lands below timer resolution the inner loop count doubles
until it does not.  `K` is the stiffness of the model
built by the last timed traditional setup, so a cell assembles it R + 1
times.

Memory columns are analytic: the byte totals of the arrays each side
actually keeps between force evaluations (spectra, the interior b-row
constant and the boundary band's rows and index, masks and weights on one
side; node table, neighbor lists, and sparse operator on the other), not
process RSS.  The fc rows also report band_nodes, the size of the
boundary band (moment.py), which grows with the support size.

The physical box keeps the same nodes in every cell of a sweep, so the
spacing is fixed and the extension follows the support size, padded to an
FFT-friendly count (the minimal extension can land on a prime node count,
which would bias the comparison with transform-size artifacts unrelated to
the support).
"""

from __future__ import annotations

import time

import numpy as np

from . import operators as ops
from .moment import build_moment_precomp
from .problems import discretize, poisson_case

__all__ = ["CSV_HEADER", "bench_cell", "measure"]

TIMER_FLOOR = 1e-6

CSV_HEADER = [
    "term", "method", "dim", "n", "a_tilde", "M", "N_omega", "N_total",
    "reps", "median_s", "persistent_bytes", "band_nodes", "speedup",
    "warnings",
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


def _cell_spacing(nodes_per_axis: int) -> float:
    """The spacing of a cell: `nodes_per_axis` nodes on [-1, 1]."""
    return 2.0 / (nodes_per_axis - 1)


def bench_cell(
    dim: int = 3,
    n: int = 1,
    a_tilde: float = 1.5,
    nodes_per_axis: int = 20,
    reps: int = 5,
    seed: int = 0,
    provider=None,
) -> list[list]:
    """Time every term of one benchmark cell on both implementations.

    The physical box [-1, 1]^dim carries `nodes_per_axis` nodes per axis;
    the extension adapts to the support size with an FFT-friendly pad.
    Returns one row per (term, method), laid out as CSV_HEADER up to its
    last column, warnings, which the caller appends.
    """
    rng = np.random.default_rng(seed)
    case = poisson_case(dim)
    disc = model = None

    def fc_setup():
        nonlocal disc
        disc = discretize(
            case, n=n, a_tilde=a_tilde, spacing=_cell_spacing(nodes_per_axis),
            provider=provider,
        )

    def trad_setup():
        nonlocal model
        model = disc.reference()
        model.assemble_stiffness()

    fc_times = {"setup": measure(fc_setup, reps)}
    d = disc.chi * rng.standard_normal(disc.grid.shape)
    r = disc.chi * rng.standard_normal(disc.grid.shape)
    fc_times["moment"] = measure(
        lambda: build_moment_precomp(disc.chi, disc.V, disc.table, provider),
        reps,
    )
    fc_times["f_int"] = measure(
        lambda: ops.internal_force(d, disc.precomp, provider), reps
    )
    fc_times["f_r"] = measure(
        lambda: ops.external_force(r, disc.precomp, provider), reps
    )
    fc_times["u_h"] = measure(
        lambda: ops.evaluate_field(d, disc.precomp, provider), reps
    )
    fc_bytes = disc.precomp.persistent_nbytes() + disc.chi_gamma_g.nbytes
    band_nodes = disc.precomp.band.size

    trad_times = {"setup": measure(trad_setup, reps)}
    trad_times["moment"] = measure(
        lambda: disc.reference().moment_rows(), reps
    )
    K = model.assemble_stiffness()
    d_omega = model.restrict(d)
    trad_times["f_int"] = measure(lambda: K @ d_omega, reps)
    trad_times["f_r"] = measure(lambda: model.f_r_direct(r), reps)
    trad_times["u_h"] = measure(lambda: model.u_h_direct(d), reps)
    trad_bytes = model.persistent_nbytes()

    cell = [dim, n, a_tilde, int(model.find_neighbors().counts.max()),
            disc.n_omega, disc.grid.total_nodes, reps]
    rows = []
    for term, fc_s in fc_times.items():
        trad_s = trad_times[term]
        rows.append(
            [term, "fc", *cell, fc_s, fc_bytes, band_nodes, trad_s / fc_s]
        )
        rows.append([term, "traditional", *cell, trad_s, trad_bytes, "", ""])
    return rows
