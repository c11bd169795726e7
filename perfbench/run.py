"""Time-to-solution benchmark of the FFT and traditional RKPM paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poisson3d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

One workload repeats its solve, from the manufactured case to a checked
nodal field, until the next repetition would pass ``--seconds``. Each
repetition is one operation: it fails when CG does not converge, when
e_l2 is off the value in perfbench/expected.json, when a traced
``internal_force`` does not run exactly 2(s+1) transforms, or when a
UserWarning or RuntimeWarning fires. Warnings are recorded, never
filtered. Exact counts (transforms, CG iterations, steps, nnz, persistent
bytes) must repeat across repetitions and across runs of the same code and
seed; a mismatch is a benchmark fault.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead: the
difference of their median time_to_solution_s. Spans are written to
.perfbench/ when the run ends.

``--workload all`` runs every workload, untraced and traced, each in its
own process, and prints the like-for-like ratio lines.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
every repetition passed and no fault was found.
"""

from __future__ import annotations

import os
import sys

# single-threaded runs: BLAS/OpenMP are pinned before numpy is imported
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("poisson3d", "poisson3d-traditional", "diffuse2d-explicit")
MIN_REPS = 3
CHILD_TIMEOUT_S = 900

SEED_USE = {
    "poisson3d": "none: deterministic, draws no random input",
    "poisson3d-traditional": "none: deterministic, draws no random input",
    "diffuse2d-explicit": "start vector of the power iteration in "
                          "explicit_stable_dt, hence dt and the step count",
}
SOLVERS = {
    "poisson3d": "fcrkpm.solvers.solve_static_linear: matrix-free masked CG "
                 "on the FFT internal_force",
    "poisson3d-traditional": "scipy.sparse.linalg.cg on the assembled, "
                             "Dirichlet-eliminated K",
}


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def code_hash() -> str:
    """Hash of the package and benchmark sources: counts recorded under one
    hash must repeat exactly."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "fcrkpm").rglob("*.py")) + sorted(
        HERE.glob("*.py")
    )
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np
    import scipy

    def blas(config):
        try:
            dep = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_use": SEED_USE[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_pins": THREAD_PINS,
        "fft_workers": 1,
        "pythonpath": "src",
        "code_hash": code_hash(),
    }


@dataclass
class Outcome:
    """One repetition: its Rep (None if it raised), the reasons it failed,
    every warning it raised, and its per-layer metrics when traced."""

    traced: bool
    rep: object = None
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    layers: dict | None = None
    tracer: object = None
    wall: float = 0.0


def one_rep(fn, seed: int, traced: bool, run_id: str, expected) -> Outcome:
    from fcrkpm import CountingFFTProvider, ScipyFFTProvider
    from tracing import NullTracer, TimingFFTProvider, Tracer, layer_metrics

    gc.collect()
    out = Outcome(traced)
    if traced:
        tracer = out.tracer = Tracer(run_id)
        provider = TimingFFTProvider(tracer)
    else:
        tracer = NullTracer()
        provider = CountingFFTProvider(ScipyFFTProvider(workers=1))
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if traced:
                with tracer.patched() as missing:
                    out.rep = fn(seed, tracer, provider)
                if missing:
                    out.warnings.append(f"import sites missing: {missing}")
            else:
                out.rep = fn(seed, tracer, provider)
        except Exception as exc:  # the repetition fails; the run goes on
            out.problems.append(f"raised {type(exc).__name__}: {exc}")
    out.wall = time.perf_counter() - start
    for w in caught:
        text = f"{w.category.__name__}: {w.message}"
        out.warnings.append(text)
        if issubclass(w.category, (UserWarning, RuntimeWarning)):
            out.problems.append(f"warning {text}")
    rep = out.rep
    if rep is None:
        return out
    if not rep.converged:
        out.problems.append("solve did not converge")
    ref, rtol = expected
    if not abs(rep.e_l2 - ref) <= rtol * ref:
        out.problems.append(f"e_l2 {rep.e_l2!r} off the recorded {ref!r} "
                            f"(rtol {rtol})")
    if traced:
        out.layers, per_call = layer_metrics(tracer.spans, rep.info)
        want = {2 * (rep.info["s"] + 1)} if "s" in rep.info else set()
        if per_call and per_call != want:
            out.problems.append(f"internal_force ran {sorted(per_call)} "
                                f"transforms, expected {sorted(want)}")
    return out


def check_counts(outcomes, path: Path) -> list[str]:
    """Exact counts must repeat across repetitions, and across runs of the
    same code and seed (recorded in ``path`` by the first such run)."""
    counts = [o.rep.counts for o in outcomes if o.rep is not None]
    if not counts:
        return []
    faults = [
        f"counts of repetition {i} differ: {c} vs {counts[0]}"
        for i, c in enumerate(counts) if c != counts[0]
    ]
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts[0]:
            faults.append(f"counts differ from an earlier run of the same code "
                          f"and seed: {counts[0]} vs {earlier}")
    else:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts[0]))
        tmp.replace(path)
    return faults


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args) -> int:
    from workloads import WORKLOADS

    expected_doc = json.loads((HERE / "expected.json").read_text())
    expected = (expected_doc["e_l2"][args.workload],
                expected_doc["rtol"][args.workload])
    env = environment(args)
    units = declared_units(args.trace)
    e2e_units = declared_units(0)
    fn = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
    OUT.mkdir(exist_ok=True)

    outcomes: list[Outcome] = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(outcomes) % 2 == 1
        outcomes.append(one_rep(fn, args.seed, traced, run_id, expected))
        if len(outcomes) == 1:
            # one solve in a fresh process; later repetitions only add
            # allocator fragmentation to the high-water mark
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(o.wall for o in outcomes)
        if len(outcomes) >= MIN_REPS and elapsed + typical > args.seconds:
            break
    env["loadavg_end"] = os.getloadavg()
    env["measured_s"] = time.perf_counter() - t_start

    counts_path = OUT / f"counts-{args.workload}-seed{args.seed}-{env['code_hash']}.json"
    faults = check_counts(outcomes, counts_path)
    failed = sum(1 for o in outcomes if o.problems)
    plain = [o.rep for o in outcomes if not o.traced and o.rep is not None]
    traced = [o for o in outcomes if o.traced and o.layers is not None]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={len(outcomes)} failed={failed}")
    e2e = {}
    if plain:
        for name in ("time_to_solution_s", "setup_s", "solve_s"):
            values = [getattr(r, name) for r in plain]
            e2e[name] = statistics.median(values)
            q1, q3 = quartiles(values)
            print(f"  {name:<22} {e2e[name]:.6f} s   median of {len(values)}"
                  f" (q1 {q1:.6f}, q3 {q3:.6f})")
        e2e["peak_rss_mb"] = peak_kib * 1024 / 1e6
        e2e["persistent_mb"] = statistics.median(
            r.persistent_bytes for r in plain) / 1e6
        e2e["e_l2"] = statistics.median(r.e_l2 for r in plain)
        for name in ("peak_rss_mb", "persistent_mb", "e_l2"):
            print(f"  {name:<22} {e2e[name]!r} {e2e_units[name]}")
    if args.workload in SOLVERS:
        print(f"  solver: {SOLVERS[args.workload]}")

    layers = {}
    if args.trace:
        if traced:
            for name in traced[0].layers:
                values = [o.layers[name] for o in traced]
                # counts and bytes stay whole numbers
                exact = all(isinstance(v, int) for v in values)
                layers[name] = (statistics.median_low if exact
                                else statistics.median)(values)
            if plain:
                layers["trace.overhead_s"] = statistics.median(
                    o.rep.time_to_solution_s for o in traced
                ) - e2e["time_to_solution_s"]
        for name, value in layers.items():
            print(f"  {name:<40} {value!r} {units.get(name)}")
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for i, o in enumerate(outcomes):
                if o.tracer is not None:
                    o.tracer.write(fh, i)

    metrics = layers if args.trace else e2e
    if set(metrics) != set(units):
        faults.append("reported metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(units))}")
    for i, o in enumerate(outcomes):
        for text in o.problems:
            print(f"  FAILED repetition {i}: {text}")
    for text in faults:
        print(f"  FAULT {text}")
    record = {
        "env": env,
        "counts": [o.rep.counts for o in outcomes if o.rep is not None],
        "reps": [
            None if o.rep is None else {
                "traced": o.traced,
                "time_to_solution_s": o.rep.time_to_solution_s,
                "setup_s": o.rep.setup_s,
                "solve_s": o.rep.solve_s,
                "e_l2": o.rep.e_l2,
            }
            for o in outcomes
        ],
        "warnings": [o.warnings for o in outcomes],
        "problems": [o.problems for o in outcomes],
        "faults": faults,
    }
    print("record " + json.dumps(record))

    correct = failed == 0 and not faults
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units.get(n)}
                    for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_suite(args) -> int:
    """Every workload untraced and traced, each in a fresh process, then the
    like-for-like ratio lines and the cross-path e_l2 agreement."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                cwd=ROOT,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(l for l in lines if not l.startswith("record ")))
            if proc.stderr:
                print(proc.stderr, file=sys.stderr, end="")
            status |= proc.returncode != 0
            if proc.returncode in (0, 1) and lines:
                results[name, trace] = json.loads(lines[-1])["metrics"]

    def metric(name, trace, key):
        return results.get((name, trace), {}).get(key, {}).get("value")

    print("ratios")
    trad = metric("poisson3d-traditional", 0, "time_to_solution_s")
    fft = metric("poisson3d", 0, "time_to_solution_s")
    if trad and fft:
        print(f"  per solve: poisson3d-traditional time_to_solution_s "
              f"{trad:.4f} s / poisson3d time_to_solution_s {fft:.4f} s "
              f"= {trad / fft:.3f}x")
        print(f"    traditional solver: {SOLVERS['poisson3d-traditional']}")
        print(f"    FFT solver: {SOLVERS['poisson3d']}")
    f_int = metric("poisson3d", 1, "operators.internal_force_s")
    n_xform = metric("poisson3d", 1, "operators.transforms_per_internal_force")
    matvec = metric("poisson3d-traditional", 1, "reference.matvec_s")
    if f_int and matvec:
        print(f"  per application: operators.internal_force_s {f_int:.6f} s "
              f"(FFT, {n_xform} transforms) / reference.matvec_s "
              f"{matvec:.6f} s (assembled K_ff @ v) = {f_int / matvec:.3f}x")
    e_fft = metric("poisson3d", 0, "e_l2")
    e_trad = metric("poisson3d-traditional", 0, "e_l2")
    if e_fft and e_trad:
        agree = abs(e_fft - e_trad) <= 1e-9 * e_fft
        print(f"  e_l2 poisson3d {e_fft!r} vs poisson3d-traditional "
              f"{e_trad!r}: {'agree' if agree else 'DISAGREE'} to rounding")
        status |= not agree
    print(json.dumps({"correct": status == 0, "runs": len(results)}))
    return int(status != 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fcrkpm" / "__init__.py").is_file():
        print(f"perfbench: no fcrkpm sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_suite(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
