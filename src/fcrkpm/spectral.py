"""d-dimensional DFT provider and circular convolution engine.

Transform convention: the forward transform carries no normalization and
the inverse carries the full 1/(N1*...*Nd) factor,

    a_hat_k = sum_i a_i exp(-2*pi*i_imag * <k, i> / N),
    a_i     = (1/N) sum_k a_hat_k exp(+2*pi*i_imag * <k, i> / N),

which is the convention the circular convolution theorem

    a (*) b = F^-1 { F(a) o F(b) }        (o = elementwise product)

assumes here.  The sine pair is the DST-I of an n-node field per axis,

    a_hat_k = 2 sum_i a_i sin(pi (k + 1)(i + 1) / (n + 1)),

with the full 1/(2(n + 1)) factor per axis on the inverse (scipy's type-1
convention): it diagonalizes a symmetric Toeplitz stencil up to its
boundary rows, as the DFT diagonalizes a circulant one.  scipy runs a
DST-I of n nodes as a real FFT of length 2(n + 1), which costs a full
transform's overhead on a small axis and is slow where that length is not
a fast FFT size (n = 45 gives 92 = 2^2 * 23).  On an axis of up to
n = 128 nodes (_SINE_MATRIX_MAX) the default backend multiplies by the
n x n sine matrix instead, the fast diagonalization method (Lynch, Rice &
Thomas 1964, Numer. Math. 6); longer axes go through scipy.  The rule
reads only the axis length.  On the preconditioner's 45^3 free box of a
48^3 grid, one DST-I takes 0.65 ms as sine-matrix products against 2.4 ms
through scipy.  scipy's transforms run on the provider's
`workers` threads, one unless a caller asks for more (the package never
does); the matrix products run on the BLAS library's own threads
(OPENBLAS_NUM_THREADS and the like).  A direct O(N^2) summation of the
circular convolution is kept alongside the FFT path as an independent
oracle.

The FFT backend sits behind a small provider interface so it can be
swapped (counting, instrumented, ...) without touching the callers.
All providers must be deterministic: identical input gives bit-identical
output across calls.

The default backend calls scipy's pocketfft binding,
scipy.fft._pocketfft.pypocketfft.c2c, directly, with the arguments
scipy.fft.fftn/ifftn pass it (no normalization on the forward, 1/N on the
inverse, the inverse written into its complex input), so every output is
bit for bit scipy's.  It skips scipy's per-call front end (the uarray
dispatch, the shape, axes, dtype and workers checks), which is a fixed
cost of about 5 us per transform: a quarter of a 64^2 transform, nothing
at 48^3.  One call on one thread of a shared 2-core x86-64 box, min of 9
interleaved rounds (2,000 calls at 64^2, 40 at 48^3); the inverse includes
the copy of its input (2.2 us at 64^2, 142 us at 48^3):

    transform                    scipy.fft   direct c2c
    64^2 forward, real input      28.8 us      24.1 us
    64^2 inverse, complex         34.7 us      29.8 us
    48^3 forward, real input      1.01 ms      0.96 ms
    48^3 inverse, complex         1.63 ms      1.67 ms

The module is private, so a scipy release may move or change it; an
upgrade that does shows up at once, as an ImportError when this module is
imported or as a failure of the bit-identity tests against scipy.fft in
tests/test_spectral.py, never as a silent switch to another path.  The
workers count is checked once, when the provider is built, with
scipy.fft's rules.  A real input goes through pocketfft's c2c_sym, which
still transforms the full complex spectrum: 24 us at 64^2 against 16 us
for the half spectrum of r2c, the lever of real-input transforms.
"""

from __future__ import annotations

import math
import operator
import os
from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.fft._pocketfft import pypocketfft

from .errors import ImaginaryResidueError

__all__ = [
    "FFTProvider",
    "ScipyFFTProvider",
    "CountingFFTProvider",
    "forward",
    "inverse",
    "sine_forward",
    "sine_inverse",
    "circular_convolve",
    "direct_circular_convolve",
]

# max|imag| <= IMAG_TOL * (1 + max|real|) after an inverse transform of a
# spectrum that should be Hermitian
IMAG_TOL = 1e-10

# the most nodes direct_circular_convolve sums over, O(N^2) work
DIRECT_SIZE_GUARD = 4096

# longest axis whose DST-I runs as a sine-matrix product.  It bounds the
# O(n^2) matrix (128 KB at 128), the product's O(n) work per node, and the
# rounding of its n-term sums, which grows faster than the FFT's: at 1D
# n = 253 the product left CG's one-iteration relative residual at 1.3e-12
# against the FFT's 8.3e-13, across the default tol of 1e-12.
_SINE_MATRIX_MAX = 128

# the dtypes pocketfft transforms as they are (native byte order); scipy.fft
# converts any other input first, the default provider refuses it
_POCKETFFT_DTYPES = frozenset(np.dtype(c) for c in "fdgFDG")


class FFTProvider:
    """Interface for the FFT backend (complex transforms, no normalization
    on the forward, full 1/N on the inverse; the DST-I pair of a real field
    over every axis, normalized the same way)."""

    def fftn(self, a: np.ndarray) -> np.ndarray:
        """Forward transform into a new array, which callers may scale in
        place; the input is left as it is."""
        raise NotImplementedError

    def ifftn(self, a: np.ndarray) -> np.ndarray:
        """Inverse transform of a complex array, which it may overwrite
        (and return): callers pass a temporary they do not read again."""
        raise NotImplementedError

    def dstn(self, a: np.ndarray) -> np.ndarray:
        """Forward DST-I of a real array over every axis into a new array
        (the default backend's rule: ScipyFFTProvider)."""
        raise NotImplementedError

    def idstn(self, a: np.ndarray) -> np.ndarray:
        """Inverse DST-I of a real array, which it may overwrite."""
        raise NotImplementedError


@lru_cache(maxsize=64)  # at most 8 MB of matrices
def _sine_matrix(n: int, inverse: bool) -> np.ndarray:
    """S[j, k] = 2 sin(pi (j + 1)(k + 1) / (n + 1)), times 1/(2(n + 1)) for
    the inverse; read-only, since every caller shares it.  The angle is
    reduced modulo 2 pi in integers before the sine is taken."""
    j = np.arange(1, n + 1)
    S = 2.0 * np.sin(np.pi * (np.outer(j, j) % (2 * (n + 1))) / (n + 1))
    if inverse:
        S /= 2 * (n + 1)
    S.flags.writeable = False
    return S


def _sine_axis(a: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """The DST-I of a along `axis` as one matrix product with the symmetric
    sine matrix: a row block times S on the last axis, S times a stack of
    column blocks on any other."""
    shape = a.shape
    S = _sine_matrix(shape[axis], inverse)
    if axis == a.ndim - 1:
        out = a.reshape(-1, shape[axis]) @ S
    else:
        out = S @ a.reshape(-1, shape[axis], math.prod(shape[axis + 1:]))
    return out.reshape(shape)


def _pocketfft_input(a: np.ndarray) -> np.ndarray:
    """a itself when pocketfft takes its dtype; raises TypeError otherwise
    (integer, bool, float16 or byte-swapped input), where scipy.fft would
    convert a copy."""
    if a.dtype not in _POCKETFFT_DTYPES:
        raise TypeError(
            f"cannot transform {a.dtype} input; convert it to a native "
            "float or complex dtype first"
        )
    return a


class ScipyFFTProvider(FFTProvider):
    """Default backend.  fftn/ifftn call pocketfft's c2c directly, on
    `workers` threads (one by default).  dstn/idstn run the DST-I per axis
    (the module docstring gives why): a product with the n x n sine matrix
    on each axis of n <= _SINE_MATRIX_MAX = 128 nodes, on the BLAS
    library's own threads (e.g. OPENBLAS_NUM_THREADS), which `workers`
    does not set, and one scipy.fft call on `workers` threads over the
    longer axes.

    `workers` follows scipy.fft: 0 raises ValueError, and -k means
    cpu_count + 1 - k (-1 is every CPU), below -cpu_count a ValueError.
    """

    def __init__(self, workers: int = 1):
        workers = operator.index(workers)
        cpus = os.cpu_count()
        if workers == 0:
            raise ValueError("workers must not be zero")
        if workers < -cpus:
            raise ValueError(
                f"workers value out of range; got {workers}, must not be "
                f"less than {-cpus}"
            )
        self.workers = workers + 1 + cpus if workers < 0 else workers

    def fftn(self, a):
        return pypocketfft.c2c(_pocketfft_input(a), None, True, 0, None,
                               self.workers)

    def ifftn(self, a):
        out = a if a.dtype.kind == "c" else None
        return pypocketfft.c2c(_pocketfft_input(a), None, False, 2, out,
                               self.workers)

    def dstn(self, a):
        return self._sine(a, inverse=False)

    def idstn(self, a):
        return self._sine(a, inverse=True)

    def _sine(self, a, inverse):
        """The DST-I over every axis: a sine-matrix product on each axis of
        n <= _SINE_MATRIX_MAX nodes, then one scipy call over the longer
        axes, which may overwrite a temporary of the products or the
        inverse's input."""
        out = a
        for ax, n in enumerate(a.shape):
            if n <= _SINE_MATRIX_MAX:
                out = _sine_axis(out, ax, inverse)
        rest = tuple(ax for ax, n in enumerate(a.shape) if n > _SINE_MATRIX_MAX)
        if rest:
            transform = scipy.fft.idstn if inverse else scipy.fft.dstn
            out = transform(out, type=1, axes=rest, workers=self.workers,
                            overwrite_x=inverse or out is not a)
        return out


class CountingFFTProvider(FFTProvider):
    """Wrapper that counts transforms; used by the operation-count audits.
    A sine transform counts as one forward or one inverse, like a DFT."""

    def __init__(self, inner: FFTProvider | None = None):
        self.inner = inner if inner is not None else ScipyFFTProvider()
        self.forward_count = 0
        self.inverse_count = 0

    @property
    def total(self) -> int:
        return self.forward_count + self.inverse_count

    def reset(self):
        self.forward_count = 0
        self.inverse_count = 0

    def fftn(self, a):
        self.forward_count += 1
        return self.inner.fftn(a)

    def ifftn(self, a):
        self.inverse_count += 1
        return self.inner.ifftn(a)

    def dstn(self, a):
        self.forward_count += 1
        return self.inner.dstn(a)

    def idstn(self, a):
        self.inverse_count += 1
        return self.inner.idstn(a)


_DEFAULT = ScipyFFTProvider()


def forward(a: np.ndarray, provider: FFTProvider | None = None) -> np.ndarray:
    """Unnormalized forward DFT of a real or complex field."""
    provider = provider or _DEFAULT
    return provider.fftn(a)


def inverse(a_hat: np.ndarray, provider: FFTProvider | None = None) -> np.ndarray:
    """Normalized inverse DFT, returning the real part.

    The transform may run in place, so a complex a_hat may be overwritten
    (the result can be a view of it): pass a spectrum that is not read
    again.

    The residue test max|imag| > IMAG_TOL * (1 + max|real|) scans the real
    part only when max|imag| > IMAG_TOL.  That short circuit cannot change
    the verdict: 1 + max|real| >= 1, so a residue at or below IMAG_TOL
    passes either way, and a NaN on either side compares false (no raise)
    in both forms.

    Raises:
        ImaginaryResidueError: if the discarded imaginary part is larger
            than rounding noise, i.e. the spectrum was not Hermitian.
    """
    provider = provider or _DEFAULT
    c = provider.ifftn(a_hat)
    re = c.real
    resid = np.abs(c.imag).max()
    if resid > IMAG_TOL and resid > IMAG_TOL * (1.0 + np.abs(re).max()):
        raise ImaginaryResidueError(
            f"imaginary residue {resid:.3e} after inverse transform; "
            "the spectrum was not real-symmetric"
        )
    return re


def sine_forward(a: np.ndarray, provider: FFTProvider | None = None) -> np.ndarray:
    """Unnormalized forward DST-I of a real field over every axis."""
    return (provider or _DEFAULT).dstn(a)


def sine_inverse(a_hat: np.ndarray, provider: FFTProvider | None = None) -> np.ndarray:
    """Normalized inverse DST-I over every axis; a_hat may be overwritten."""
    return (provider or _DEFAULT).idstn(a_hat)


def circular_convolve(a, b, provider: FFTProvider | None = None) -> np.ndarray:
    """Circular convolution via the convolution theorem."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return inverse(forward(a, provider) * forward(b, provider), provider)


def direct_circular_convolve(a, b) -> np.ndarray:
    """O(N^2) circular convolution by direct summation (the oracle).

    c[k] = sum_j a[j] * b[(k - j) mod N] per axis.  Inputs of more than
    DIRECT_SIZE_GUARD nodes are refused.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size > DIRECT_SIZE_GUARD:
        raise ValueError(
            f"direct convolution of {a.size} nodes exceeds the size guard "
            f"{DIRECT_SIZE_GUARD}; this is an O(N^2) oracle"
        )
    c = np.zeros_like(a)
    axes = tuple(range(a.ndim))
    for j in np.ndindex(a.shape):
        aj = a[j]
        if aj != 0.0:
            c += aj * np.roll(b, shift=j, axis=axes)
    return c
