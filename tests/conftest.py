import numpy as np
import pytest

from fourierpath import PathSamples, Spectrum, dft, make_trig_path, synth_path


def random_path(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return PathSamples(scale * rng.standard_normal((n, 2)))


def sparse_spectrum(n, coeffs):
    """Spectrum with the given {index: coefficient} entries, zeros elsewhere."""
    ks = sorted(coeffs)
    return Spectrum(
        k=np.array(ks, dtype=np.int64),
        a=np.array([coeffs[k] for k in ks], dtype=np.complex128),
        n_samples=n,
    )


def decaying_spectrum(n, seed, base=0.6, scale=1.0):
    """Full spectrum with geometrically decaying magnitudes and random phases.

    A stand-in for real digitized shapes: dominant low frequencies plus a
    genuine high-frequency tail.
    """
    rng = np.random.default_rng(seed)
    lo = -(n // 2) + 1 if n % 2 == 0 else -((n - 1) // 2)
    ks = np.arange(lo, n // 2 + 1, dtype=np.int64)
    mag = scale * base ** np.abs(ks)
    phases = rng.uniform(-np.pi, np.pi, ks.size)
    return Spectrum(k=ks, a=mag * np.exp(1j * phases), n_samples=n)


def decaying_path(n, seed, base=0.6, scale=1.0):
    """The N samples ``c[n] = sum_k a_k exp(2j*pi*k*n/N)`` of a decaying spectrum."""
    spec = decaying_spectrum(n, seed, base, scale)
    bins = np.zeros(n, dtype=np.complex128)
    bins[np.mod(spec.k, n)] = spec.a
    c = np.fft.ifft(bins, norm="forward")
    return PathSamples(np.column_stack((c.real, c.imag)))


@pytest.fixture
def unit_epicycle():
    """Single-term curve (cos t, sin t) built through the real pipeline."""
    return make_trig_path(dft(synth_path("circle", 64, [1.0])))
