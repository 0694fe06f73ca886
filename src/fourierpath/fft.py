"""Fourier transform engine for sequences of arbitrary length.

Composite lengths are split recursively on their smallest prime factor,
small prime lengths use a direct quadratic kernel, and large prime
lengths are reduced to a power-of-two circular convolution with a chirp
sequence, so the cost stays near O(n log n) even when n has a large
prime factor (e.g. n = 758 = 2 * 379).

``fft`` is the plain unnormalized forward transform
``X[k] = sum_n x[n] exp(-2j*pi*k*n/n_len)``; spectral normalization
conventions live in :mod:`fourierpath.spectrum`, not here.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["fft"]

# Largest prime length handled by the direct O(n^2) kernel; beyond this
# the chirp-convolution path is both faster and just as accurate.
_DIRECT_PRIME_LIMIT = 61


def fft(x) -> np.ndarray:
    """Unnormalized forward transform of a 1-D complex sequence."""
    data = np.ascontiguousarray(x, dtype=np.complex128)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("fft expects a non-empty 1-D sequence")
    return _fft_any(data)


def _fft_any(x: np.ndarray) -> np.ndarray:
    n = x.size
    if n == 1:
        return x.copy()
    p = _smallest_prime_factor(n)
    if p == n:
        if n <= _DIRECT_PRIME_LIMIT:
            return _dft_direct(x)
        return _bluestein(x)
    return _cooley_tukey(x, p)


def _cooley_tukey(x: np.ndarray, p: int) -> np.ndarray:
    # n = p*q: transform the p interleaved subsequences, then recombine.
    # Twiddle exponents are reduced with exact integer arithmetic so the
    # angles handed to exp stay in [0, 2*pi).
    n = x.size
    q = n // p
    subs = [_fft_any(x[r::p]) for r in range(p)]
    k = np.arange(n, dtype=np.int64)
    idx = k % q
    out = subs[0][idx].astype(np.complex128, copy=True)
    for r in range(1, p):
        out += subs[r][idx] * np.exp((-2j * np.pi / n) * ((r * k) % n))
    return out


def _dft_direct(x: np.ndarray) -> np.ndarray:
    n = x.size
    k = np.arange(n, dtype=np.int64)
    return np.exp((-2j * np.pi / n) * ((k[:, None] * k[None, :]) % n)) @ x


@functools.lru_cache(maxsize=64)
def _bluestein_tables(n: int):
    # Chirp b[t] = exp(-1j*pi*t^2/n), with t^2 reduced mod 2n so the
    # angle is computed from a small exact integer.
    pad = 1 << (2 * n - 2).bit_length()
    t = np.arange(n, dtype=np.int64)
    b = np.exp((-1j * np.pi / n) * ((t * t) % (2 * n)))
    kernel = np.zeros(pad, dtype=np.complex128)
    kernel[:n] = np.conj(b)
    kernel[pad - n + 1 :] = np.conj(b[1:])[::-1]
    kernel_fft = _fft_any(kernel)
    b.setflags(write=False)
    kernel_fft.setflags(write=False)
    return b, kernel_fft, pad


def _bluestein(x: np.ndarray) -> np.ndarray:
    # Prime-length transform as a linear convolution against the chirp,
    # evaluated at a padded power-of-two length (>= 2n-1, no wrap-around).
    n = x.size
    b, kernel_fft, pad = _bluestein_tables(n)
    buf = np.zeros(pad, dtype=np.complex128)
    buf[:n] = x * b
    conv = np.conj(_fft_any(np.conj(_fft_any(buf) * kernel_fft))) / pad
    return conv[:n] * b


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n
