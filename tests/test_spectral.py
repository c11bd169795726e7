"""Transform convention, round trips, and the convolution oracle."""

import os

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrkpm import (
    CountingFFTProvider,
    ScipyFFTProvider,
    circular_convolve,
    direct_circular_convolve,
    forward,
    inverse,
)
from fcrkpm import spectral
from fcrkpm.errors import ImaginaryResidueError
from fcrkpm.spectral import IMAG_TOL
from fcrkpm.verify import convolution_checks

from conftest import ScipyFrontEndProvider, failed


class TestTransformConvention:
    def test_constant_to_dc(self):
        assert np.allclose(forward(np.ones(4)), [4, 0, 0, 0])

    def test_delta_to_flat(self):
        a = np.zeros(4)
        a[0] = 1.0
        assert np.allclose(forward(a), np.ones(4))

    def test_dc_to_constant(self):
        spec = np.zeros(4, dtype=complex)
        spec[0] = 4.0
        assert np.allclose(inverse(spec), np.ones(4))

    def test_parseval(self, rng):
        a = rng.standard_normal((8, 8))
        lhs = np.sum(np.abs(a) ** 2)
        rhs = np.sum(np.abs(forward(a)) ** 2) / a.size
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_round_trip(self, rng):
        for shape in ((16,), (8, 12), (4, 6, 8)):
            a = rng.standard_normal(shape)
            b = inverse(forward(a))
            assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))

    def test_shift_spectrum(self, rng):
        # spectrum built from the inverse-transform definition directly:
        # multiplying by exp(-2 pi i k j0 / N) shifts the field by j0
        n, j0 = 16, 5
        a = rng.standard_normal(n)
        k = np.arange(n)
        shifted_spec = forward(a) * np.exp(-2j * np.pi * k * j0 / n)
        assert np.allclose(inverse(shifted_spec), np.roll(a, j0), atol=1e-12)

    def test_hermitian_symmetry(self, rng):
        a = rng.standard_normal((8, 12))
        spec = forward(a)
        mirrored = spec[
            np.ix_(*[(-np.arange(n)) % n for n in a.shape])
        ]
        assert np.max(np.abs(spec - np.conj(mirrored))) < 1e-12 * np.max(
            np.abs(spec)
        )

    def test_imaginary_residue_raises(self):
        spec = np.zeros(8, dtype=complex)
        spec[1] = 1.0  # single mode: inverse is genuinely complex
        with pytest.raises(ImaginaryResidueError):
            inverse(spec)

    @staticmethod
    def _dc_spectrum(value):
        # a DC-only spectrum inverts exactly to the constant `value`
        spec = np.zeros((4, 4), dtype=complex)
        spec[0, 0] = 16 * value
        return spec

    def test_imaginary_residue_verdict_at_the_boundary(self):
        # raise iff max|imag| > IMAG_TOL * (1 + max|real|): a residue in
        # (IMAG_TOL, bound] passes the short circuit and then the bound
        real = 3.0
        bound = IMAG_TOL * (1.0 + real)
        for resid in (IMAG_TOL, np.nextafter(IMAG_TOL, 1), bound):
            out = inverse(self._dc_spectrum(real + 1j * resid))
            assert np.all(out == real)
        with pytest.raises(ImaginaryResidueError):
            inverse(self._dc_spectrum(real + 1j * np.nextafter(bound, 1)))
        # at max|real| = 0 the bound is IMAG_TOL itself
        with pytest.raises(ImaginaryResidueError):
            inverse(self._dc_spectrum(1j * np.nextafter(IMAG_TOL, 1)))

    def test_nan_spectrum_passes_through(self):
        # NaN compares false against the bound: no raise, NaN comes back
        out = inverse(np.full((4, 4), np.nan, dtype=complex))
        assert np.all(np.isnan(out))

    def test_counting_provider(self, rng):
        prov = CountingFFTProvider()
        a = rng.standard_normal(8)
        circular_convolve(a, a, prov)
        assert prov.forward_count == 2
        assert prov.inverse_count == 1

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (6, 8, 10)])
    def test_inplace_inverse_matches_scipy(self, shape, rng):
        # the provider may consume its input; its output is unchanged
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = ScipyFFTProvider().ifftn(a.copy())
        assert out.tobytes() == scipy.fft.ifftn(a).tobytes()

    def test_determinism(self, rng):
        a = rng.standard_normal((16, 16))
        first = forward(a).copy()
        for _ in range(3):
            assert np.array_equal(forward(a), first)


# 1D, 2D and 3D, each at even, odd and prime lengths
_SCIPY_SHAPES = [(16,), (15,), (17,), (8, 12), (9, 15), (13, 11),
                 (4, 6, 8), (9, 5, 15), (7, 5, 3)]


class TestProviderMatchesScipy:
    """ScipyFFTProvider calls pocketfft's c2c directly; its outputs must be
    scipy.fft's byte for byte, so a scipy that moves or changes the private
    module fails here."""

    @staticmethod
    def _field(rng, shape, kind):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if kind == "complex" else a

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", _SCIPY_SHAPES)
    def test_fftn_bit_identical_and_input_untouched(self, shape, kind, rng):
        a = self._field(rng, shape, kind)
        before = a.copy()
        out = ScipyFFTProvider().fftn(a)
        expected = scipy.fft.fftn(a)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", _SCIPY_SHAPES)
    def test_ifftn_bit_identical(self, shape, kind, rng):
        a = self._field(rng, shape, kind)
        out = ScipyFFTProvider().ifftn(a.copy())
        expected = scipy.fft.ifftn(a)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_float32_matches_scipy(self, rng):
        a = rng.standard_normal((8, 6)).astype(np.float32)
        prov = ScipyFFTProvider()
        out = prov.fftn(a)
        assert out.dtype == np.complex64
        assert out.tobytes() == scipy.fft.fftn(a).tobytes()
        assert prov.ifftn(out.copy()).tobytes() == scipy.fft.ifftn(out).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float16, ">f8"])
    def test_unconverted_dtypes_raise_type_error(self, dtype):
        # scipy.fft converts these first; the provider refuses them loudly
        a = np.ones((4, 4), dtype=dtype)
        prov = ScipyFFTProvider()
        for transform in (prov.fftn, prov.ifftn, forward):
            with pytest.raises(TypeError, match="cannot transform"):
                transform(a)

    def test_workers_follow_scipy(self):
        # the count scipy.fft would run on, checked once at construction
        cpus = os.cpu_count()
        for workers in (1, 2, -1, -cpus):
            with scipy.fft.set_workers(workers):
                assert ScipyFFTProvider(workers).workers == scipy.fft.get_workers()
        assert ScipyFFTProvider().workers == 1
        assert ScipyFFTProvider(-1).workers == cpus
        for workers in (0, -cpus - 1):
            with pytest.raises(ValueError), scipy.fft.set_workers(workers):
                pass
            with pytest.raises(ValueError, match="workers"):
                ScipyFFTProvider(workers)
        with pytest.raises(TypeError):
            ScipyFFTProvider(1.5)

    def test_matches_the_scipy_front_end(self, rng):
        # the whole default path (residue check included) against the same
        # provider through scipy.fft's public functions
        a = rng.standard_normal((12, 10))
        spec = forward(a)
        assert spec.tobytes() == forward(a, ScipyFrontEndProvider()).tobytes()
        assert (inverse(spec.copy()).tobytes()
                == inverse(spec.copy(), ScipyFrontEndProvider()).tobytes())


def _direct_dst(a):
    """The DST-I over every axis as the direct O(N^2) sum

        a_hat[k] = sum_i a[i] prod_ax 2 sin(pi (k + 1)(i + 1) / (n + 1))

    (k, i and n those of axis ax), one kernel entry per (output, input)
    pair of nodes; each angle is reduced modulo 2 pi exactly, in
    integers."""
    factors = []
    for n in a.shape:
        j = np.arange(1, n + 1)
        jk = np.outer(j, j) % (2 * (n + 1))
        factors.append(2.0 * np.sin(np.pi * jk / (n + 1)))
    kernel = np.ones((1, 1))
    for f in factors:
        kernel = (kernel[:, None, :, None] * f[None, :, None, :]).reshape(
            kernel.shape[0] * f.shape[0], -1)
    return (kernel @ a.ravel()).reshape(a.shape)


class TestSinePair:
    """The default backend's DST-I pair: sine-matrix products on the axes
    of n <= 128 nodes, scipy on the longer ones."""

    # both sides of the rule: products only, scipy only ((300,)) and both
    # ((300, 5))
    SHAPES = [(7,), (45, 3), (63, 5), (300,), (300, 5), (13, 13, 13),
              (61, 61)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_direct_sum(self, shape, rng):
        a = rng.standard_normal(shape)
        ref = _direct_dst(a)
        scale = np.max(np.abs(ref))
        keep = a.copy()
        prov = ScipyFFTProvider()
        out = prov.dstn(a)
        assert np.array_equal(a, keep)  # the forward leaves its input
        assert np.max(np.abs(out - ref)) <= 1e-14 * scale
        # the inverse carries 1/(2(n + 1)) per axis: back to a, from the
        # direct sum and from the forward (the round trip)
        for spectrum in (ref, out):
            back = prov.idstn(spectrum.copy())
            assert np.max(np.abs(back - a)) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("shape", [(45, 3), (13, 13, 13), (7,)])
    def test_one_count_per_call(self, shape, rng):
        prov = CountingFFTProvider()
        a = rng.standard_normal(shape)
        prov.idstn(prov.dstn(a))
        assert (prov.forward_count, prov.inverse_count) == (1, 1)

    @pytest.mark.parametrize("shape", [(45, 3), (13, 13, 13), (45, 45, 45)])
    def test_repeat_calls_bit_identical(self, shape, rng):
        prov = ScipyFFTProvider()
        a = rng.standard_normal(shape)
        first = prov.dstn(a)
        back = prov.idstn(first.copy())
        for _ in range(3):
            assert prov.dstn(a).tobytes() == first.tobytes()
            assert prov.idstn(first.copy()).tobytes() == back.tobytes()

    def test_long_axes_go_through_scipy(self, rng):
        a = rng.standard_normal(300)
        prov = ScipyFFTProvider()
        assert prov.dstn(a).tobytes() == scipy.fft.dstn(a, type=1).tobytes()
        assert (prov.idstn(a.copy()).tobytes()
                == scipy.fft.idstn(a, type=1).tobytes())


class TestCircularConvolution:
    def test_identity_element(self, rng):
        a = rng.standard_normal((8, 8))
        delta = np.zeros((8, 8))
        delta[0, 0] = 1.0
        assert np.allclose(circular_convolve(a, delta), a, atol=1e-12)

    def test_shift_element(self, rng):
        # convolving with a delta at index 1 along axis 0 shifts cyclically;
        # oracle: direct sum c_k = sum_j a_j b_{(k-j) mod N}
        a = rng.standard_normal((6, 4))
        delta1 = np.zeros((6, 4))
        delta1[1, 0] = 1.0
        expected = np.roll(a, 1, axis=0)
        assert np.allclose(circular_convolve(a, delta1), expected, atol=1e-12)
        assert np.allclose(direct_circular_convolve(a, delta1), expected, atol=1e-12)

    def test_ones(self):
        a = np.ones(4)
        assert np.allclose(circular_convolve(a, a), 4.0 * np.ones(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            circular_convolve(np.ones(4), np.ones(5))

    def test_size_guard(self, monkeypatch):
        big = np.ones(5000)
        with pytest.raises(ValueError, match="guard"):
            direct_circular_convolve(big, big)
        monkeypatch.setattr(spectral, "DIRECT_SIZE_GUARD", 5000)
        direct_circular_convolve(big, big)

    def test_commutativity_and_linearity(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        c = rng.standard_normal((8, 8))
        ab = circular_convolve(a, b)
        scale = np.max(np.abs(ab))
        assert np.max(np.abs(ab - circular_convolve(b, a))) < 1e-12 * scale
        lin = circular_convolve(a, 2.0 * b + c)
        lin_ref = 2.0 * ab + circular_convolve(a, c)
        assert np.max(np.abs(lin - lin_ref)) < 1e-12 * np.max(np.abs(lin_ref))


SHAPES = [(8,), (12,), (16,), (8, 8), (16, 8), (8, 8, 8)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fft_matches_direct(self, shape, rng):
        assert not failed(convolution_checks(rng, [shape], pairs=5))

    @given(
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_fft_matches_direct_random(self, shape, seed):
        rng = np.random.default_rng(seed)
        assert not failed(convolution_checks(rng, [shape], pairs=1))
