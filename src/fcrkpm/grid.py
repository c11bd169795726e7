"""Extended periodic box, node lattice, characteristic masks, nodal weights.

The physical domain Omega is embedded in a periodic box T obtained by
extending Omega's bounding box along the positive direction of each axis.
The extension l_e must exceed the kernel support so no shape function wraps
across the periodic seam.  With m = floor(a_tilde), the minimum extension is

    l_e = (m + 1) * h                                   (spacing h given)

(then grown by whole spacings until N is a fast FFT size), and, when the
node count N per axis is chosen first (powers of two make the FFTs fastest),

    l_e = (m + 1) * L_omega / (N - m - 1).

In both modes the spacing is dx = (L_omega + l_e) / N, the one value the
plan, the lattice and every stencil read.  A kernel support that reaches
half the box period is refused (check_support).

Nodes are laid out uniformly, node i at x_min + i*dx (0-based), and the box
is periodic with period L = N*dx.  Fields are plain grid-shaped numpy
arrays indexed [i0, i1, i2]; where a flat node order is needed (the
direct-summation oracle), it is numpy's own C order.

Three 0/1 masks partition the box: chi marks the closure of Omega (Dirichlet
boundary nodes included, so they can participate in the approximation),
chi_gamma_g marks the Dirichlet nodes, and chi_omega = chi - chi_gamma_g
marks the nodes the solvers actually update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

__all__ = [
    "PeriodicGrid",
    "ExtensionPlan",
    "plan_extension",
    "check_support",
    "build_grid",
    "build_masks",
    "quadrature_weights",
    "box_predicates",
    "boundary_face_weights",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform node lattice on a d-dimensional periodic box.

    Attributes:
        x_min: per-axis origin.
        length: per-axis period length L_k.
        counts: per-axis node count N_k (>= 4).
    """

    x_min: tuple[float, ...]
    length: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= len(self.counts) <= 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {len(self.counts)}")
        if len(self.x_min) != len(self.counts) or len(self.length) != len(self.counts):
            raise ValueError("x_min, length, counts must have equal lengths")
        if any(n < 4 for n in self.counts):
            raise ValueError(f"need at least 4 nodes per axis, got {self.counts}")
        if any(L <= 0 for L in self.length):
            raise ValueError(f"period lengths must be positive, got {self.length}")

    @property
    def spacing(self) -> tuple[float, ...]:
        """Per-axis spacing dx_k = L_k / N_k."""
        return tuple(L / n for L, n in zip(self.length, self.counts))

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def total_nodes(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axes(self) -> list[np.ndarray]:
        """1D coordinate arrays per axis."""
        return [
            x0 + dx * np.arange(n)
            for x0, dx, n in zip(self.x_min, self.spacing, self.counts)
        ]

    def coordinates(self) -> list[np.ndarray]:
        """Grid-shaped coordinate array per axis (indexing='ij')."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def node_coordinate(self, multi) -> tuple[float, ...]:
        return tuple(
            x0 + i * dx for x0, dx, i in zip(self.x_min, self.spacing, multi)
        )

    def wrapped_offsets(self) -> list[np.ndarray]:
        """Minimal-image signed offsets xi_k per axis, grid-shaped.

        xi_k = i*dx for 2*i < N, else (i - N)*dx, so xi lies in [-L/2, L/2)
        with the tie at exactly L/2 mapped to the negative side.  Computed
        from integers so the reflection xi[N-i] == -xi[i] is exact.
        """
        out = []
        for axis, (n, dx) in enumerate(zip(self.counts, self.spacing)):
            i = np.arange(n)
            xi = np.where(2 * i < n, i, i - n).astype(float) * dx
            shape = [1] * self.dim
            shape[axis] = n
            out.append(np.broadcast_to(xi.reshape(shape), self.shape).copy())
        return out

    def check_field(self, a: np.ndarray, name: str = "field"):
        if a.shape != self.shape:
            raise ValueError(f"{name} has shape {a.shape}, grid expects {self.shape}")


@dataclass(frozen=True)
class ExtensionPlan:
    """Resolved extension of a physical box to a periodic box.

    The plan holds what plan_extension chooses, the extension l_e and the
    node count N per axis, and derives the rest: the box length L + l_e,
    the spacing dx = (L + l_e)/N (build_grid's, bit for bit),
    m = floor(a_tilde) and the kernel support a = a_tilde*dx.  The
    extension is l_e >= (m+1)*dx, so a stays strictly below it and nothing
    wraps across the seam.
    """

    domain_length: tuple[float, ...]
    a_tilde: tuple[float, ...]
    extension: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(math.floor(a) for a in self.a_tilde)

    @property
    def box_length(self) -> tuple[float, ...]:
        return tuple(L + e for L, e in zip(self.domain_length, self.extension))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.box_length, self.counts))

    @property
    def kernel_support(self) -> tuple[float, ...]:
        """Physical support a_k = a_tilde_k * dx_k."""
        return tuple(a * dx for a, dx in zip(self.a_tilde, self.spacing))


def check_support(support, length) -> None:
    """Raise ValueError if a kernel support reaches half its box period
    along any axis: a shape function would wrap across the periodic seam."""
    for k, (a, L) in enumerate(zip(support, length)):
        if a >= L / 2:
            raise ValueError(
                f"kernel support {a} along axis {k} reaches half the box "
                f"period {L}; convolutions would wrap"
            )


def _per_axis(value, dim, name):
    if np.isscalar(value):
        return (value,) * dim
    value = tuple(value)
    if len(value) != dim:
        raise ValueError(f"{name} must be scalar or length-{dim}, got {value}")
    return value


def plan_extension(
    domain_length,
    a_tilde,
    *,
    counts=None,
    spacing=None,
) -> ExtensionPlan:
    """Plan the periodic extension of a physical box.

    Exactly one of `counts` (fix-count mode: total nodes per axis chosen
    first, typically a power of two) or `spacing` (fix-spacing mode: nodal
    spacing chosen first) must be given.  In both modes the far boundary of
    the physical box lands on a lattice node, and the plan's spacing is
    box length / N.

    Args:
        domain_length: per-axis extent of the physical box (scalar or tuple).
        a_tilde: per-axis normalized kernel support, >= 1.
        counts: per-axis total node count N (fix-count mode).
        spacing: per-axis nodal spacing h (fix-spacing mode).  The
            extension grows beyond its (m+1)*h minimum until N is the next
            fast FFT size, scipy.fft.next_fast_len (11-smooth).

    Raises:
        ValueError: on an inadmissible box, including a kernel support
            that reaches half the box period (check_support).
    """
    if (counts is None) == (spacing is None):
        raise ValueError("give exactly one of counts= or spacing=")
    dim = max(
        1 if np.isscalar(v) else len(v)
        for v in (domain_length, a_tilde, counts, spacing)
        if v is not None
    )
    L = _per_axis(domain_length, dim, "domain_length")
    at = _per_axis(a_tilde, dim, "a_tilde")
    if any(l <= 0 for l in L):
        raise ValueError(f"domain lengths must be positive, got {L}")
    if any(a < 1 for a in at):
        raise ValueError(f"a_tilde must be >= 1, got {at}")
    m = tuple(math.floor(a) for a in at)

    if counts is not None:
        N = tuple(int(n) for n in _per_axis(counts, dim, "counts"))
        for n, mk in zip(N, m):
            if n <= mk + 1:
                raise ValueError(
                    f"N={n} too small: the (m+1)={mk + 1} spacing extension "
                    "would consume the whole box"
                )
        l_e = tuple((mk + 1) * lk / (n - mk - 1) for lk, mk, n in zip(L, m, N))
    else:
        h = tuple(float(x) for x in _per_axis(spacing, dim, "spacing"))
        if any(x <= 0 for x in h):
            raise ValueError(f"spacings must be positive, got {h}")
        cells = tuple(round(lk / hk) for lk, hk in zip(L, h))
        for lk, hk, c in zip(L, h, cells):
            if abs(lk / hk - c) > 1e-9:
                raise ValueError(
                    f"spacing {hk} does not divide the domain length {lk}; "
                    "the far boundary would miss the lattice"
                )
        try:
            N = tuple(scipy.fft.next_fast_len(c + mk + 1)
                      for c, mk in zip(cells, m))
        except OverflowError as exc:
            raise ValueError(f"a_tilde={at} needs more nodes than an FFT "
                             "size can hold") from exc
        l_e = tuple((n - c) * hk for n, c, hk in zip(N, cells, h))
    plan = ExtensionPlan(domain_length=L, a_tilde=at, extension=l_e, counts=N)
    check_support(plan.kernel_support, plan.box_length)
    return plan


def build_grid(plan: ExtensionPlan, x_min) -> PeriodicGrid:
    """Build the periodic lattice for a resolved extension plan."""
    x0 = _per_axis(x_min, plan.dim, "x_min")
    grid = PeriodicGrid(
        x_min=tuple(float(x) for x in x0),
        length=plan.box_length,
        counts=plan.counts,
    )
    # postcondition: the far boundary of the physical box sits on a node
    for k in range(plan.dim):
        far = x0[k] + plan.domain_length[k]
        ax = grid.axes()[k]
        if np.min(np.abs(ax - far)) > 1e-12 * grid.length[k]:
            raise ValueError(
                f"far boundary along axis {k} misses the lattice by more "
                f"than 1e-12*L (plan/spacing inconsistency)"
            )
    return grid


def build_masks(grid: PeriodicGrid, inside, on_gamma_g=None):
    """Evaluate the characteristic masks on the lattice.

    Args:
        grid: the periodic lattice.
        inside: predicate over coordinate arrays; True on the closure of the
            physical domain (Dirichlet nodes included).
        on_gamma_g: optional predicate marking Dirichlet nodes.

    Returns:
        (chi, chi_gamma_g, chi_omega) float 0/1 fields with
        chi_omega = chi - chi_gamma_g.
    """
    coords = grid.coordinates()
    chi = np.asarray(inside(*coords), dtype=bool)
    grid.check_field(chi, "chi")
    if on_gamma_g is None:
        chi_g = np.zeros(grid.shape, dtype=bool)
    else:
        chi_g = np.asarray(on_gamma_g(*coords), dtype=bool)
        grid.check_field(chi_g, "chi_gamma_g")
    if np.any(chi_g & ~chi):
        bad = np.argwhere(chi_g & ~chi)[0]
        raise ValueError(
            f"Dirichlet node {tuple(bad)} lies outside the domain mask"
        )
    chi = chi.astype(float)
    chi_g = chi_g.astype(float)
    return chi, chi_g, chi - chi_g


def quadrature_weights(grid: PeriodicGrid, chi: np.ndarray) -> np.ndarray:
    """Nodal quadrature weights for direct nodal integration.

    Interior nodes of the domain carry the full cell volume prod(dx_k);
    nodes on the domain boundary get the tensor-product trapezoid fraction,
    one factor 1/2 per axis along which a lattice neighbor falls outside the
    mask.  Nodes outside the domain get zero.  For a box domain the weights
    sum exactly to the box volume; for the periodic special case (chi == 1
    everywhere) every node keeps the full cell volume.
    """
    grid.check_field(chi, "chi")
    inside = chi > 0.5
    V = np.ones(grid.shape)
    for axis in range(grid.dim):
        left = np.roll(inside, 1, axis=axis)
        right = np.roll(inside, -1, axis=axis)
        w = 1.0 - 0.5 * (~left) - 0.5 * (~right)
        V *= np.maximum(w, 0.0) * grid.spacing[axis]
    V[~inside] = 0.0
    return V


def _snap_tol(bounds) -> float:
    """The coordinate snap tolerance of a box: 1e-9 times its largest
    extent."""
    return 1e-9 * max(hi - lo for lo, hi in bounds)


def box_predicates(bounds):
    """Predicates for a box domain with all faces Dirichlet; a node within
    _snap_tol of a face counts as on it.

    Args:
        bounds: per-axis (lo, hi) of the physical box.

    Returns:
        (inside, on_gamma_g) predicates over coordinate arrays.
    """
    bounds = [tuple(b) for b in bounds]
    tol = _snap_tol(bounds)

    def inside(*coords):
        ok = np.ones(coords[0].shape, dtype=bool)
        for x, (lo, hi) in zip(coords, bounds):
            ok &= (x >= lo - tol) & (x <= hi + tol)
        return ok

    def on_gamma_g(*coords):
        on_face = np.zeros(coords[0].shape, dtype=bool)
        for x, (lo, hi) in zip(coords, bounds):
            on_face |= (np.abs(x - lo) <= tol) | (np.abs(x - hi) <= tol)
        return on_face & inside(*coords)

    return inside, on_gamma_g


def boundary_face_weights(grid: PeriodicGrid, chi, bounds, axis, side):
    """Boundary-area weights A for one face of a box domain.

    Marks the nodes on the face `axis`/`side` ('lo' or 'hi') of the box
    (within _snap_tol of it) and assigns each the tensor-trapezoid area of
    the (d-1)-dimensional face patch (full product of the transverse
    spacings, halved per transverse axis on the face's rim, again within
    _snap_tol).  Zero elsewhere, as the extension trick for boundary
    convolutions requires.

    Returns:
        (face_mask, A) where face_mask is a 0/1 field and A the area field.

    Raises:
        ValueError: side not 'lo' or 'hi', or axis not in range(grid.dim).
    """
    if side not in ("lo", "hi"):
        raise ValueError(f"side must be 'lo' or 'hi', got {side!r}")
    if axis not in range(grid.dim):
        raise ValueError(f"axis must be in range({grid.dim}), got {axis!r}")
    bounds = [tuple(b) for b in bounds]
    tol = _snap_tol(bounds)
    coords = grid.coordinates()
    lo, hi = bounds[axis]
    target = lo if side == "lo" else hi
    face = (np.abs(coords[axis] - target) <= tol) & (chi > 0.5)
    A = np.zeros(grid.shape)
    if grid.dim == 1:
        A[face] = 1.0
        return face.astype(float), A
    patch = np.ones(grid.shape)
    for k in range(grid.dim):
        if k == axis:
            continue
        x = coords[k]
        lo_k, hi_k = bounds[k]
        w = np.where(
            (np.abs(x - lo_k) <= tol) | (np.abs(x - hi_k) <= tol), 0.5, 1.0
        )
        patch *= w * grid.spacing[k]
    A[face] = patch[face]
    return face.astype(float), A
