"""Fourier transform engine for sequences of arbitrary length.

Composite lengths are split on their smallest prime factor, level by
level, small prime lengths use a direct quadratic kernel, and large prime
lengths are reduced to a power-of-two circular convolution with a chirp
sequence, so the cost stays near O(n log n) even when n has a large
prime factor (e.g. n = 758 = 2 * 379).

Each level of the split runs as one numpy pass over all of that level's
subsequences (rows), not as one Python call per subsequence: the input is
gathered into leaf order once, every leaf is transformed together, and
the levels are recombined bottom up.  Only one level is held at a time,
so memory stays O(n).  Every output element still gets exactly the
floating-point operations of the per-subsequence recursion, in the same
order, so the results are bit-identical to it.

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
    return _fft_rows(data[None, :])[0]


def _fft_rows(x: np.ndarray) -> np.ndarray:
    """Transform each row of a ``(rows, n)`` complex array."""
    n = x.shape[1]
    radices = []
    q = n
    while q > 1 and (p := _smallest_prime_factor(q)) != q:
        radices.append(p)
        q //= p
    # Leaf (r1, .., rL, j) is element r1 + p1*r2 + .. + p1*..*pL*j of a row,
    # the subsequence the recursion would reach by taking x[r::p] per level.
    order = np.arange(n).reshape((q, *radices[::-1])).T.reshape(-1)
    out = _transform_leaves(x[:, order].reshape(-1, q))
    for p in reversed(radices):
        out = _combine(out.reshape(-1, p, out.shape[1]), p)
    return out


def _transform_leaves(leaves: np.ndarray) -> np.ndarray:
    q = leaves.shape[1]
    if q == 1:
        return leaves
    if q <= _DIRECT_PRIME_LIMIT:
        # A stacked gemv: it rounds like ``w @ leaf`` for one leaf, where
        # ``leaves @ w.T`` does not.
        k = np.arange(q, dtype=np.int64)
        w = np.exp((-2j * np.pi / q) * ((k[:, None] * k[None, :]) % q))
        return np.matmul(w, leaves[..., None])[..., 0]
    return _bluestein(leaves)


def _combine(subs: np.ndarray, p: int) -> np.ndarray:
    # n = p*q: recombine the transforms of the p interleaved subsequences
    # of each row.  Twiddle exponents are reduced with exact integer
    # arithmetic so the angles handed to exp stay in [0, 2*pi).
    q = subs.shape[2]
    n = p * q
    k = np.arange(n, dtype=np.int64)
    idx = k % q
    out = subs[:, 0, idx]
    for r in range(1, p):
        out += subs[:, r, idx] * np.exp((-2j * np.pi / n) * ((r * k) % n))
    return out


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
    kernel_fft = _fft_rows(kernel[None, :])[0]
    b.setflags(write=False)
    kernel_fft.setflags(write=False)
    return b, kernel_fft, pad


def _bluestein(x: np.ndarray) -> np.ndarray:
    # Prime-length transform of each row as a linear convolution against
    # the chirp, evaluated at a padded power-of-two length (>= 2n-1, no
    # wrap-around).
    rows, n = x.shape
    b, kernel_fft, pad = _bluestein_tables(n)
    buf = np.zeros((rows, pad), dtype=np.complex128)
    buf[:, :n] = x * b
    conv = np.conj(_fft_rows(np.conj(_fft_rows(buf) * kernel_fft))) / pad
    return conv[:, :n] * b


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n
