"""Shared fixtures: small discretizations reused across test modules."""

import itertools

import numpy as np
import pytest
import scipy.fft

from fcrkpm import ScipyFFTProvider, discretize, poisson_case


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def disc1d():
    return discretize(poisson_case(1), n=1, a_tilde=1.5, counts=64)


@pytest.fixture(scope="session")
def disc2d():
    return discretize(poisson_case(2), n=1, a_tilde=1.5, counts=16)


@pytest.fixture(scope="session")
def disc3d():
    return discretize(poisson_case(3), n=1, a_tilde=1.5, counts=8)


@pytest.fixture(scope="session")
def ref2d(disc2d):
    return disc2d.reference()


class ScipyFrontEndProvider(ScipyFFTProvider):
    """The default provider with fftn/ifftn through scipy.fft's public
    functions, which convert, check and dispatch before they call the same
    pocketfft routine: the outputs ScipyFFTProvider must match bit for
    bit."""

    def fftn(self, a):
        return scipy.fft.fftn(a, workers=self.workers)

    def ifftn(self, a):
        return scipy.fft.ifftn(a, workers=self.workers, overwrite_x=True)


def failed(checks):
    """The check records of fcrkpm.verify that did not pass."""
    return [c for c in checks if not c["passed"]]


def dense_rows(precomp):
    """The (1 + d, s, *grid.shape) b-row fields of a MomentPrecomp: c
    everywhere, band_rows on the band."""
    rows = np.empty(precomp.c.shape + (precomp.grid.total_nodes,))
    rows[...] = precomp.c[..., None]
    rows[..., precomp.band] = precomp.band_rows
    return rows.reshape(precomp.c.shape + precomp.grid.shape)


def footprint_band(chi, grid, support):
    """Flat indices of the active nodes with an inactive node within
    r_k nodes along every axis k (wrapped), r_k the number of offsets
    i dx_k strictly inside the support a_k (ceil(a_k / dx_k) - 1), by one
    roll of the inactive mask per offset of that box."""
    reach = [int(np.count_nonzero(dx * np.arange(1, n) < a))
             for a, dx, n in zip(support, grid.spacing, grid.counts)]
    inactive = chi < 0.5
    near = np.zeros(chi.shape, dtype=bool)
    for offset in itertools.product(*(range(-r, r + 1) for r in reach)):
        near |= np.roll(inactive, offset, axis=tuple(range(chi.ndim)))
    return np.flatnonzero((chi > 0.5) & near)
