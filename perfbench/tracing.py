"""In-memory spans around the calls into each fcrkpm layer, and the
per-layer numbers derived from them.

Spans are taken from outside the package. A timing FFT provider goes in
through the public ``provider=`` argument. Wrappers replace the public
functions at the module attributes through which the package calls them
(their import sites, e.g. ``fcrkpm.solvers.internal_force``) for the length
of one traced repetition, and are removed afterwards.

A span is (id, name, start, end, parent id); the run id is kept once per
tracer. Spans are appended when they end, so children always precede their
parent, which lets one pass in list order derive self times and the
transform and check time inside every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

from fcrkpm import CountingFFTProvider, ScipyFFTProvider

# (module, attribute, span name): the attribute is the name through which
# the package itself calls the function
IMPORT_SITES = [
    ("fcrkpm.problems", "plan_extension", "grid.plan_extension"),
    ("fcrkpm.problems", "build_grid", "grid.build_grid"),
    ("fcrkpm.problems", "box_predicates", "grid.box_predicates"),
    ("fcrkpm.problems", "build_masks", "grid.build_masks"),
    ("fcrkpm.problems", "quadrature_weights", "grid.quadrature_weights"),
    ("fcrkpm.problems", "build_basis_table", "basis.build_basis_table"),
    ("fcrkpm.moment", "assemble_moment_fields", "moment.assemble_moment_fields"),
    ("fcrkpm.moment", "invert_moments", "moment.invert_moments"),
    ("fcrkpm.moment", "inverse", "spectral.inverse"),
    ("fcrkpm.operators", "inverse", "spectral.inverse"),
    ("fcrkpm.solvers", "internal_force", "operators.internal_force"),
    ("fcrkpm.solvers", "evaluate_field", "operators.evaluate_field"),
    ("fcrkpm.solvers", "lumped_mass", "operators.lumped_mass"),
    ("fcrkpm.solvers", "step_transient_diffusion", "solvers.step_transient_diffusion"),
]

GRID_SPANS = (
    "grid.plan_extension",
    "grid.build_grid",
    "grid.box_predicates",
    "grid.build_masks",
    "grid.quadrature_weights",
)
PROVIDER_SPANS = ("spectral.fftn", "spectral.ifftn")


class NullTracer:
    """Calls straight through; used by the untraced (timing) repetitions."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Install the import-site wrappers; yields the sites that were
        missing (a renamed function leaves its layer metric at zero)."""
        saved, missing = [], []
        try:
            for modname, attr, name in IMPORT_SITES:
                module = importlib.import_module(modname)
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{modname}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield missing
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, fh, rep_index: int):
        """One header line with the run id, then one [id, name, start, end,
        parent] line per span (parent -1 for a root span)."""
        fh.write(json.dumps({"run": self.run_id, "rep": rep_index,
                             "spans": len(self.spans)}) + "\n")
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")


class TimingFFTProvider(CountingFFTProvider):
    """Counting provider whose every transform is also a span."""

    def __init__(self, tracer: Tracer):
        super().__init__(ScipyFFTProvider(workers=1))
        self.tracer = tracer

    def fftn(self, a):
        return self.tracer.call("spectral.fftn", super().fftn, a)

    def ifftn(self, a):
        return self.tracer.call("spectral.ifftn", super().ifftn, a)


def span_records(spans):
    """Per span: name, duration, self time, and the provider time, check
    time and transform count inside it (itself included).

    The check time is the self time of ``spectral.inverse``: the part of an
    inverse transform spent outside the provider.
    """
    pending: dict[int, list] = {}
    records = []
    for sid, name, start, end, parent in spans:
        child_s, xform_s, check_s, n_xform = pending.pop(sid, (0.0, 0.0, 0.0, 0))
        dur = end - start
        self_s = dur - child_s
        if name in PROVIDER_SPANS:
            xform_s += dur
            n_xform += 1
        elif name == "spectral.inverse":
            check_s += self_s
        records.append((name, dur, self_s, xform_s, check_s, n_xform))
        if parent >= 0:
            acc = pending.setdefault(parent, [0.0, 0.0, 0.0, 0])
            acc[0] += dur
            acc[1] += xform_s
            acc[2] += check_s
            acc[3] += n_xform
    return records


def _median(values):
    return statistics.median(values) if values else 0.0


def internal_force_bytes(n_nodes: int, s: int, dim: int) -> int:
    """Bytes one ``internal_force`` reads and writes, computed from array
    sizes, not measured: every elementwise operand and result, plus each
    transform's input and output once. Passes inside a transform and cache
    misses are not counted.

    R is one real field, C one complex field; counts follow the pipeline in
    ``fcrkpm.operators.internal_force`` and the residue check in
    ``fcrkpm.spectral.inverse`` (|imag| and |real| scans, 3R each).
    """
    R, C = 8 * n_nodes, 16 * n_nodes
    total = 3 * R + (R + C) + dim * R  # chi*d, forward, acc init
    # per p: d_hat*hat_Ha, ifftn, check, dim x (acc += bgrad*Dp)
    total += s * (3 * C + 2 * C + 6 * R + dim * 6 * R)
    total += C  # B_hat init
    # per p: mixed over dim axes, forward, *hat_Hbar_a, B_hat +=
    total += s * (3 * R + (dim - 1) * 6 * R + (R + C) + 3 * C + 3 * C)
    total += 2 * C + 6 * R + 3 * R  # final ifftn, check, chi*
    return total


def layer_metrics(spans, info: dict) -> tuple[dict, set[int]]:
    """Per-layer metrics of one traced repetition, and the distinct
    transform counts of its ``internal_force`` calls.

    ``info`` holds what the workload measured itself: counts, byte totals,
    array sizes and the solver's own CG time. Layers a workload does not
    run read zero.
    """
    recs = span_records(spans)
    by_name: dict[str, list] = {}
    for rec in recs:
        by_name.setdefault(rec[0], []).append(rec)

    def total(name, field=1):
        return sum(r[field] for r in by_name.get(name, ()))

    def per_call(name, fn):
        return _median([fn(r) for r in by_name.get(name, ())])

    f_int = by_name.get("operators.internal_force", [])
    cg_iters = info.get("cg_iters", 0)
    metrics = {
        "grid.build_s": sum(total(n) for n in GRID_SPANS),
        "basis.table_s": total("basis.build_basis_table"),
        "basis.spectra_bytes": info.get("spectra_bytes", 0),
        "moment.fields_s": total("moment.assemble_moment_fields"),
        "moment.invert_s": total("moment.invert_moments"),
        "moment.persistent_bytes": info.get("moment_bytes", 0),
        "spectral.forward_calls": info.get("forward_calls", 0),
        "spectral.inverse_calls": info.get("inverse_calls", 0),
        "spectral.transform_s": sum(total(n) for n in PROVIDER_SPANS),
        "spectral.check_s": total("spectral.inverse", 2),
        "operators.internal_force_calls": len(f_int),
        "operators.internal_force_s": per_call(
            "operators.internal_force", lambda r: r[1]),
        "operators.internal_force_other_s": per_call(
            "operators.internal_force", lambda r: r[1] - r[3] - r[4]),
        "operators.transforms_per_internal_force": max(
            (r[5] for r in f_int), default=0),
        "operators.bytes_per_internal_force": (
            internal_force_bytes(info["nodes"], info["s"], info["dim"])
            if f_int else 0
        ),
        "operators.external_force_s": per_call(
            "operators.external_force", lambda r: r[1]),
        "operators.evaluate_field_s": per_call(
            "operators.evaluate_field", lambda r: r[1]),
        "operators.lumped_mass_s": per_call(
            "operators.lumped_mass", lambda r: r[1]),
        "solvers.cg_iters": cg_iters,
        "solvers.cg_s_per_iter": info["cg_s"] / cg_iters if cg_iters else 0.0,
        "solvers.final_residual": info.get("final_residual", 0.0),
        "solvers.steps": info.get("steps", 0),
        "solvers.step_s": per_call(
            "solvers.step_transient_diffusion", lambda r: r[1]),
        "solvers.dt_estimate_s": total("solvers.explicit_stable_dt"),
        "reference.neighbors_s": total("reference.find_neighbors"),
        "reference.moment_rows_s": total("reference.moment_rows"),
        "reference.assembly_s": total("reference.assemble_stiffness"),
        "reference.nnz": info.get("nnz", 0),
        "reference.matvec_s": per_call("reference.matvec", lambda r: r[1]),
        "reference.cg_iters": info.get("reference_cg_iters", 0),
        "reference.persistent_bytes": info.get("reference_bytes", 0),
        "problems.discretize_s": total("problems.discretize", 2),
    }
    return metrics, {r[5] for r in f_int}

