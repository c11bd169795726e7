"""Monomial basis, cubic B-spline kernel, and the cached basis spectra.

The reproducing kernel approximation is built from a vector of monomials
H(x) = [1, x, y, x^2, xy, y^2, ...] up to total degree n and a compactly
supported kernel phi_a with tensor-product cubic B-spline profile

    phi(z) = 2/3 - 4 z^2 + 4 z^3              0 <= z <= 1/2
           = 4/3 - 4 z + 4 z^2 - (4/3) z^3    1/2 <= z <= 1     z = |x|/a
           = 0                                z > 1

which is C^2 across both breakpoints.

On the periodic box the convolution kernels must be positioned so their
zero coincides with the box origin: the per-node argument is the
minimal-image offset xi of the node index (grid.wrapped_offsets), which is
pointwise equivalent to splitting the centered function into 2^d corner
blocks and reordering them onto the box.  For each basis entry p the table
keeps only the spectrum F_a,p = F(H_p^a) of H_p^a = H_p phi_a(xi), and
keeps it as one real number per frequency (below).

The spectra are not transformed: they are derived per axis.  Kernel and
monomial are tensor products, and the kernel reaches r_k nodes along axis
k (_footprint_reach), so the DFT of the weighted monomial of any exponent
tuple alpha is a product of per-axis trig sums,

    F(x^alpha phi_a)(theta) = prod_k h_{alpha_k}(theta_k),
    h_m(theta) = sum_{|o| <= r} (o dx)^m phi_1(o dx) e^{-i theta o}
               = (-i)^(m mod 2) r_m(theta),

with r_m the cosine sum for even m and the sine sum for odd m (the other
half cancels over o -> -o).  axis_sums evaluates r_m at any per-axis
frequencies, the DFT ones by default: the basis spectra here, the moment
integrands of moment.py (exponent sums alpha_p + alpha_q) and the
preconditioner symbol of solvers.py all read it, and none runs a transform,
so setup's only transforms are the moment stack's: the mask's and one
inverse per distinct exponent sum (moment.py).

weighted_monomials evaluates the real-space fields H_p^a and the
integrands H_p H_q^a on the lattice.  Nothing on the solver path calls
it: it is the oracle that `fcrkpm verify` transforms to check the closed
form (spectra-<cell>).  monomial and eval_kernel are the one evaluation of
H and phi_a; the direct-summation oracle calls them at its neighbor
offsets and query points too.

The kernel is evaluated through |x|, so phi_a(-xi) equals phi_a(xi) bit
for bit, and (-xi)^alpha is (-1)^|alpha| xi^alpha exactly (negation is
exact in IEEE arithmetic and rounding is sign-symmetric).  Hence

    H_p^a(-xi) = (-1)^|alpha_p| H_p^a(xi),

so H_p^a is even or odd with |alpha_p|, and the spectrum of a real even
(odd) field is real (imaginary).  The table stores one real (s, *grid)
array hat_Ha with

    F_a,p = c_p hat_Ha[p],   c_p = 1 for even |alpha_p|, i for odd,

i.e. hat_Ha[p] is F(H_p^a).real or F(H_p^a).imag.  In the closed form that
is (1, -1, -1, 1)[k mod 4] prod_k r_{alpha_k}, k the number of odd entries
of alpha_p (kept_spectrum): the dropped component is zero by construction.
The operators apply c_p to the one transformed field they hold, not to
the spectra.

No reflected array is stored either.  The correlations of the weak form
need the reflection Hbar_p^a(xi) = H_p^a(-xi) = (-1)^|alpha_p| H_p^a(xi),
whose spectrum is (-1)^|alpha_p| F_a,p by linearity of the transform.  The
operators apply that sign too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .grid import PeriodicGrid

__all__ = [
    "BasisIndex",
    "enumerate_basis",
    "KernelSpec",
    "eval_kernel_1d",
    "eval_kernel",
    "weighted_monomials",
    "axis_sums",
    "kept_spectrum",
    "BasisTable",
    "build_basis_table",
]


@dataclass(frozen=True)
class BasisIndex:
    """Graded monomial basis up to total degree n in d dimensions.

    Exponent tuples are ordered by total degree, and within a degree by the
    x-exponent descending, then the y-exponent descending; this reproduces
    the 2D sequence [1, x, y, x^2, xy, y^2] and fixes the 3D degree-2 order
    as [x^2, xy, xz, y^2, yz, z^2].
    """

    degree: int
    dim: int
    exponents: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.exponents)


def enumerate_basis(n: int, d: int) -> BasisIndex:
    """Enumerate the monomial exponent tuples for degree n in d dimensions."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
    exps = []
    for total in range(n + 1):
        level = [
            alpha
            for alpha in np.ndindex(*([total + 1] * d))
            if sum(alpha) == total
        ]
        level.sort(key=lambda alpha: tuple(-a for a in alpha))
        exps.extend(tuple(alpha) for alpha in level)
    return BasisIndex(degree=n, dim=d, exponents=tuple(exps))


@dataclass(frozen=True)
class KernelSpec:
    """Tensor-product cubic B-spline kernel with per-axis support a_k."""

    support: tuple[float, ...]

    def __post_init__(self):
        if any(a <= 0 for a in self.support):
            raise ValueError(f"kernel supports must be positive, got {self.support}")

    @property
    def dim(self) -> int:
        return len(self.support)


def eval_kernel_1d(x, a: float):
    """Cubic B-spline profile in z = |x|/a (vectorized).

    Both polynomial branches are kept in exact rational-coefficient form so
    they agree at z = 1/2 (value 1/6, matching first and second derivatives).
    """
    z = np.abs(np.asarray(x, dtype=float)) / a
    inner = 2.0 / 3.0 - 4.0 * z**2 + 4.0 * z**3
    outer = 4.0 / 3.0 - 4.0 * z + 4.0 * z**2 - (4.0 / 3.0) * z**3
    return np.where(z <= 0.5, inner, np.where(z < 1.0, outer, 0.0))


def eval_kernel(coords, kernel: KernelSpec):
    """Tensor-product kernel value at per-axis coordinate arrays."""
    phi = eval_kernel_1d(coords[0], kernel.support[0])
    for x, a in zip(coords[1:], kernel.support[1:]):
        phi = phi * eval_kernel_1d(x, a)
    return phi


def monomial(coords, alpha) -> np.ndarray:
    """prod_k coords[k] ** alpha[k] over grid-shaped coordinate arrays."""
    out = np.ones(coords[0].shape)
    for x, a in zip(coords, alpha):
        if a:
            out = out * x**a
    return out


def weighted_monomials(grid: PeriodicGrid, kernel: KernelSpec, exponents):
    """Yield monomial(xi, alpha) * phi_a(xi) on the lattice, one exponent
    tuple alpha at a time (xi = grid.wrapped_offsets()).

    For the basis exponents these are the kernel-weighted fields H_p^a; for
    an exponent sum alpha_p + alpha_q, the moment integrand H_p H_q^a.
    """
    xi = grid.wrapped_offsets()
    phi = eval_kernel(xi, kernel)
    for alpha in exponents:
        yield monomial(xi, alpha) * phi


def _footprint_reach(grid: PeriodicGrid, kernel: KernelSpec) -> list[int]:
    """Nodes the kernel footprint reaches along each axis: the offsets
    i dx_k with phi_a(i dx_k) > 0, so r_k = floor(a_tilde) unless a_tilde
    is a whole number."""
    return [
        np.count_nonzero(eval_kernel_1d(dx * np.arange(1, n // 2 + 1), a))
        for n, dx, a in zip(grid.counts, grid.spacing, kernel.support)
    ]


def axis_sums(grid: PeriodicGrid, kernel: KernelSpec, degree: int,
              thetas=None) -> list[np.ndarray]:
    """Per axis, the (degree + 1, n_theta) trig sums

        r_m(theta) = sum_{|o| <= r} (o dx)^m phi_1(o dx) cos(theta o)   m even
                   = sum_{|o| <= r} (o dx)^m phi_1(o dx) sin(theta o)   m odd

    over the footprint offsets o (_footprint_reach), at the angular
    frequencies `thetas` (one array per axis; by default the DFT ones,
    2 pi m / N_k in FFT order).  h_m = (-i)^(m mod 2) r_m is the axis
    factor of every weighted-monomial spectrum (module docstring).
    """
    if thetas is None:
        thetas = [2.0 * np.pi * np.fft.fftfreq(n) for n in grid.counts]
    sums = []
    for theta, dx, a, r in zip(thetas, grid.spacing, kernel.support,
                               _footprint_reach(grid, kernel)):
        o = np.arange(-r, r + 1)
        x = o * dx
        phi = eval_kernel_1d(x, a)
        angle = np.outer(o, theta)
        trig = (np.cos(angle), np.sin(angle))
        sums.append(np.array([(x**m * phi) @ trig[m % 2]
                              for m in range(degree + 1)]))
    return sums


def kept_spectrum(sums, alpha) -> np.ndarray:
    """The kept parity component of F(x^alpha phi_a) on the tensor grid of
    the frequencies of `sums` (axis_sums): its real part for even |alpha|,
    its imaginary part for odd, (1, -1, -1, 1)[k mod 4] prod_k
    r_{alpha_k} with k the number of odd entries of alpha.  The other
    component is zero."""
    sign = (1.0, -1.0, -1.0, 1.0)[sum(m % 2 for m in alpha) % 4]
    factors = [r[m] for r, m in zip(sums, alpha)]
    factors[0] = sign * factors[0]
    return reduce(np.multiply.outer, factors)


@dataclass
class BasisTable:
    """Cached spectra of the seam-adjusted kernel-weighted basis entries.

    hat_Ha is one real (s, *grid.shape) array with F(H_p^a) = c_p hat_Ha[p],
    c_p = 1 for even |alpha_p| and i for odd (see the module docstring);
    parity_split lists the entries of each kind.  Every convolution-based
    operator reads it, and the reflected spectrum is the parity-signed one.
    weighted_monomials evaluates the real-space fields.
    """

    grid: PeriodicGrid
    basis: BasisIndex
    kernel: KernelSpec
    hat_Ha: np.ndarray

    @property
    def size(self) -> int:
        return self.basis.size

    @cached_property
    def parity_split(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(even, odd): the entries p with c_p = 1, then those with c_p = i."""
        parity = [sum(alpha) % 2 for alpha in self.basis.exponents]
        return (
            tuple(p for p, odd in enumerate(parity) if not odd),
            tuple(p for p, odd in enumerate(parity) if odd),
        )

    def persistent_nbytes(self) -> int:
        return self.hat_Ha.nbytes


def build_basis_table(
    grid: PeriodicGrid,
    basis: BasisIndex,
    kernel: KernelSpec,
) -> BasisTable:
    """Derive the kept parity component of every basis spectrum in closed
    form (kept_spectrum of axis_sums at the DFT frequencies); no transform
    runs.

    Raises:
        ValueError: if any kernel support reaches half the box period (a
            shape function would wrap across the periodic seam).
    """
    if basis.dim != grid.dim or kernel.dim != grid.dim:
        raise ValueError("grid, basis, and kernel dimensions must agree")
    for k, (a, L) in enumerate(zip(kernel.support, grid.length)):
        if a >= L / 2:
            raise ValueError(
                f"kernel support {a} along axis {k} reaches half the box "
                f"period {L}; convolutions would wrap"
            )
    sums = axis_sums(grid, kernel, basis.degree)
    hat_Ha = np.empty((basis.size,) + grid.shape)
    for p, alpha in enumerate(basis.exponents):
        hat_Ha[p] = kept_spectrum(sums, alpha)
    return BasisTable(grid, basis, kernel, hat_Ha)
