"""Command-line driver: verify | converge | bench | diffuse.

Experiments are described by a single versioned JSON config.  Each
experiment accepts only the keys it reads; every key is schema-checked and
any other key is rejected before any compute starts.
Outputs are plot-ready CSVs (converge, bench, diffuse) or a JSON report
(verify).  Exit codes: 0 success, 1 check failure or a solve that did not
converge (the CSV is still written), 2 config error or an output
directory that cannot be created.  Config errors include a support too
wide for one of the config's grids (an extension that consumes the box,
or a kernel support that reaches half the box period: every grid is
planned before any compute), a basis degree n below 1 and a converge
powers list that repeats a power.

Numeric CSV payloads are deterministic for a fixed config and seed
(timing columns excepted): random inputs come from a seeded generator and
floats are written at full precision.  The diffuse column
err_vs_static_linf measures the gap to a static solution that CG solved
only to the config's tol, so it is meaningful down to about tol; below
that it is rounding noise, so the column is floored at tol.  The
converge and bench columns warnings list the categories of the warnings
that fired while each cell ran, ;-joined (empty when none), the diffuse
one those that fired since the previous row (the first row also covers the
setup and the static solve), and the verify report's "warnings" field
those of the whole run; they are still shown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import operators as ops
from .bench import CSV_HEADER, _cell_spacing, bench_cell
from .problems import (
    _plan_case,
    continuous_l2_error_1d,
    convergence_slope,
    discretize,
    nodal_errors,
    poisson_case,
)
from .solvers import (
    SolverConfig,
    explicit_stable_dt,
    run_transient,
    solve_static_linear,
)
from .spectral import ScipyFFTProvider
from .verify import run_verification

__all__ = ["main", "load_config", "ConfigError", "CONVERGE_HEADER"]

CONVERGE_HEADER = [
    "dim", "n", "a_tilde", "Nx", "Ny", "Nz", "N_omega",
    "e_l2", "e_linf", "cg_iters", "wall_s", "warnings",
]

DIFFUSE_HEADER = ["t", "u_linf", "err_vs_static_linf", "warnings"]

DEFAULT_POWERS = {1: [3, 4, 5, 6, 7, 8, 9], 2: [3, 4, 5, 6, 7], 3: [3, 4, 5]}


class ConfigError(ValueError):
    pass


def _is_number(v):
    """An int or a finite float: json parses NaN and Infinity as floats."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


# the validators (validator, default) that more than one experiment shares;
# a None default: the program picks the value
_DIM = (lambda v: v in (1, 2, 3), 2)
_N = (lambda v: isinstance(v, int) and v >= 1, 1)
_A_TILDE = (lambda v: _is_number(v) and v >= 1, 1.5)
_SEED = (lambda v: isinstance(v, int) and v >= 0, 0)
_TOL = (lambda v: _is_number(v) and v > 0, 1e-12)
_MAX_ITER = (lambda v: v is None or (isinstance(v, int) and v > 0), None)
_OUT = (lambda v: v is None or isinstance(v, str), None)


def load_config(doc: dict) -> dict:
    """Validate a config document against its experiment's schema in
    _EXPERIMENTS, the keys that experiment reads besides the required
    version and experiment; any other key fails."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "experiment" not in doc:
        raise ConfigError("missing required key 'experiment'")
    if "version" not in doc:
        raise ConfigError("missing required key 'version'")
    experiment = doc["experiment"]
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    _, schema = _EXPERIMENTS[experiment]
    unknown = set(doc) - {"version", "experiment", *schema}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if doc["version"] != 1:
        raise ConfigError(f"invalid value for 'version': {doc['version']!r}")
    cfg = {"version": doc["version"], "experiment": experiment}
    for key, (check, default) in schema.items():
        if key in doc:
            value = doc[key]
            if not check(value):
                raise ConfigError(f"invalid value for {key!r}: {value!r}")
            cfg[key] = value
        else:
            cfg[key] = default
    if experiment == "converge" and cfg["powers"] is None:
        cfg["powers"] = DEFAULT_POWERS[cfg["dim"]]
    return cfg


def _grids(cfg: dict) -> list[tuple]:
    """The grids the experiment runs, in its order, as (a_tilde, counts,
    nodes_per_axis): box counts for converge and diffuse, nodes on the
    box's [-1, 1] axes for bench; verify runs fixed cells and lists none."""
    experiment = cfg["experiment"]
    if experiment == "converge":
        return [(cfg["a_tilde"], 2**p, None) for p in cfg["powers"]]
    if experiment == "diffuse":
        return [(cfg["a_tilde"], cfg["counts"], None)]
    if experiment == "bench":
        return [(a_tilde, None, nodes) for nodes in cfg["nodes_per_axis"]
                for a_tilde in cfg["a_tilde_values"]]
    return []


def _check_plans(cfg: dict) -> None:
    """Plan every grid of the experiment with the pure plan_extension, so
    that a support too wide for its grid is a ConfigError before any
    compute."""
    for a_tilde, counts, nodes in _grids(cfg):
        spacing = None if nodes is None else _cell_spacing(nodes)
        try:
            _plan_case(poisson_case(cfg["dim"]), a_tilde, counts, spacing)
        except ValueError as exc:
            raise ConfigError(f"a_tilde={a_tilde!r}: {exc}") from exc


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _reissue(fired) -> str:
    """Show recorded warnings to the user and return their categories,
    ;-joined in the order they first fired ('' when none)."""
    for w in fired:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return ";".join(dict.fromkeys(w.category.__name__ for w in fired))


def cmd_verify(cfg, provider) -> int:
    with warnings.catch_warnings(record=True) as fired:
        warnings.simplefilter("always")
        report = run_verification(
            seed=cfg["seed"], inject_fault=cfg["fault_injection"],
            provider=provider,
        )
    report["warnings"] = _reissue(fired)
    text = json.dumps(report, indent=2)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


def cmd_converge(cfg, provider) -> int:
    dim = cfg["dim"]
    case = poisson_case(dim)
    rows = []
    hs, e2s, einfs = [], [], []
    all_converged = True
    for a_tilde, counts, _ in _grids(cfg):
        with warnings.catch_warnings(record=True) as fired:
            warnings.simplefilter("always")
            disc = discretize(
                case, n=cfg["n"], a_tilde=a_tilde, counts=counts,
                provider=provider,
            )
            rhs = ops.external_force(disc.r, disc.precomp, provider)
            solver_cfg = SolverConfig(tol=cfg["tol"], max_iter=cfg["max_iter"])
            t0 = time.perf_counter()
            d, u_h, report = solve_static_linear(
                disc.precomp, disc.chi_omega, rhs, dirichlet=disc.dirichlet,
                config=solver_cfg, provider=provider,
            )
            wall = time.perf_counter() - t0
            err = nodal_errors(u_h, disc.exact_field, disc.chi)
            if dim == 1:
                # the 1D study uses the continuous integral norm
                e_l2 = continuous_l2_error_1d(d, case.exact, disc.reference())
            else:
                e_l2 = err.e_l2
        all_converged &= report.converged
        shape = list(disc.grid.counts) + [""] * (3 - dim)
        rows.append(
            [dim, cfg["n"], cfg["a_tilde"], *shape, disc.n_omega,
             e_l2, err.e_linf, report.iterations, wall, _reissue(fired)]
        )
        hs.append(max(disc.grid.spacing))
        e2s.append(e_l2)
        einfs.append(err.e_linf)
    slope_l2 = convergence_slope(hs, e2s)
    slope_linf = convergence_slope(hs, einfs)
    rows.append(
        [dim, cfg["n"], cfg["a_tilde"], "", "", "", "slope",
         slope_l2, slope_linf, "", "", ""]
    )
    _write_csv(cfg["out"], CONVERGE_HEADER, rows)
    return 0 if all_converged else 1


def cmd_bench(cfg, provider) -> int:
    rows = []
    for a_tilde, _, nodes in _grids(cfg):
        with warnings.catch_warnings(record=True) as fired:
            warnings.simplefilter("always")
            cell = bench_cell(
                dim=cfg["dim"],
                n=cfg["n"],
                a_tilde=a_tilde,
                nodes_per_axis=nodes,
                reps=cfg["reps"],
                seed=cfg["seed"],
                provider=provider,
            )
        categories = _reissue(fired)
        rows.extend(row + [categories] for row in cell)
    _write_csv(cfg["out"], CSV_HEADER, rows)
    return 0


def cmd_diffuse(cfg, provider) -> int:
    case = poisson_case(cfg["dim"])
    [(a_tilde, counts, _)] = _grids(cfg)
    # row i's warnings are fired[marks[i]:marks[i + 1]]
    rows, marks = [], [0]
    with warnings.catch_warnings(record=True) as fired:
        warnings.simplefilter("always")
        disc = discretize(
            case, n=cfg["n"], a_tilde=a_tilde, counts=counts,
            provider=provider,
        )
        rhs = ops.external_force(disc.r, disc.precomp, provider)
        # steady state of the nu-scaled diffusion: nu K d = rhs, i.e.
        # K d = rhs/nu
        _, u_static, static_report = solve_static_linear(
            disc.precomp, disc.chi_omega, rhs / cfg["nu"],
            config=SolverConfig(tol=cfg["tol"], max_iter=cfg["max_iter"]),
            provider=provider,
        )
        active = disc.chi > 0.5
        static_scale = float(np.max(np.abs(u_static[active])))
        dt = cfg["dt"]
        if dt is None:
            Ml = ops.lumped_mass(disc.precomp, provider)
            dt = 0.5 * explicit_stable_dt(
                disc.precomp, disc.chi_omega, Ml, nu=cfg["nu"],
                provider=provider,
            )
            if cfg["scheme"] == "implicit-euler":
                dt *= 50.0
        n_steps = int(np.ceil(cfg["t_end"] / dt))
        solver_cfg = SolverConfig(
            tol=cfg["tol"], max_iter=cfg["max_iter"], dt=dt, n_steps=n_steps,
            scheme=cfg["scheme"], nu=cfg["nu"],
        )

        def sample(state):
            if state.step % cfg["sample_stride"] and state.step != n_steps:
                return
            u_t = ops.evaluate_field(state.d, disc.precomp, provider)
            gap = float(np.max(np.abs(u_t[active] - u_static[active])))
            # below the static solve's tol the gap is rounding noise
            rows.append(
                [state.t, float(np.max(np.abs(u_t[active]))),
                 max(gap / static_scale, cfg["tol"])]
            )
            marks.append(len(fired))

        final = run_transient(
            disc.precomp, disc.chi_omega, rhs, solver_cfg,
            dirichlet=disc.dirichlet, provider=provider, callback=sample,
        )
    # the last row is sampled at the last step, so this shows every warning
    for row, first, last in zip(rows, marks, marks[1:]):
        row.append(_reissue(fired[first:last]))
    _write_csv(cfg["out"], DIFFUSE_HEADER, rows)
    return 0 if static_report.converged and final.converged else 1


# experiment -> (handler, schema): the schema maps each key the handler
# reads, besides version and experiment, to (validator, default)
_EXPERIMENTS = {
    "verify": (cmd_verify, {
        "seed": _SEED,
        "out": _OUT,
        "fault_injection": (lambda v: isinstance(v, bool), False),
    }),
    "converge": (cmd_converge, {
        "dim": _DIM, "n": _N, "a_tilde": _A_TILDE, "tol": _TOL,
        "max_iter": _MAX_ITER, "out": _OUT,
        "powers": (
            lambda v: isinstance(v, list)
            and len(v) >= 3
            and all(isinstance(p, int) and 2 <= p <= 12 for p in v)
            and len(set(v)) == len(v),
            None,  # resolved per dim
        ),
    }),
    "bench": (cmd_bench, {
        "dim": _DIM, "n": _N, "seed": _SEED, "out": _OUT,
        "nodes_per_axis": (
            lambda v: isinstance(v, list)
            and all(isinstance(x, int) and x >= 6 for x in v),
            [20],
        ),
        "a_tilde_values": (
            lambda v: isinstance(v, list) and all(_is_number(x) and x >= 1 for x in v),
            [1.5, 2.5, 3.5],
        ),
        "reps": (lambda v: isinstance(v, int) and v >= 3, 5),
    }),
    "diffuse": (cmd_diffuse, {
        "dim": _DIM, "n": _N, "a_tilde": _A_TILDE, "tol": _TOL,
        "max_iter": _MAX_ITER, "out": _OUT,
        "counts": (lambda v: isinstance(v, int) and v >= 8, 32),
        "scheme": (
            lambda v: v in ("explicit-euler", "implicit-euler"),
            "explicit-euler",
        ),
        "t_end": (lambda v: _is_number(v) and v > 0, 2.5),
        "dt": (lambda v: v is None or (_is_number(v) and v > 0), None),
        "nu": (lambda v: _is_number(v) and v > 0, 1.0),
        "sample_stride": (lambda v: isinstance(v, int) and v >= 1, 10),
    }),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fcrkpm",
        description="FFT-accelerated RKPM experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema) in _EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", help="output file (CSV or JSON)")
        if "seed" in schema:
            p.add_argument("--seed", type=int, help="random seed override")
    args = parser.parse_args(argv)

    doc = {"version": 1, "experiment": args.command}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict):
            print("config error: config must be a JSON object", file=sys.stderr)
            return 2
        doc.setdefault("version", 1)
        doc.setdefault("experiment", args.command)
    if doc.get("experiment") != args.command:
        print(
            f"config error: config is for {doc.get('experiment')!r}, "
            f"not {args.command!r}",
            file=sys.stderr,
        )
        return 2
    for key in ("out", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    try:
        cfg = load_config(doc)
        _check_plans(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg["out"]:
        # before any compute, so a bad path cannot cost a whole sweep
        try:
            Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    handler, _ = _EXPERIMENTS[cfg["experiment"]]
    return handler(cfg, ScipyFFTProvider())


if __name__ == "__main__":
    sys.exit(main())
