"""Fourier transform engine for sequences of arbitrary length.

A length n = 2**L * q with q odd is halved L times (radix-2 Cooley-Tukey),
and the odd leaves of length q > 1 are reduced to a power-of-two circular
convolution with a chirp sequence (Bluestein), so the cost stays near
O(n log n) for any n, whether q is prime (e.g. n = 758 = 2 * 379) or not.

Each halving runs as one numpy pass over all of that level's
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


def fft(x) -> np.ndarray:
    """Unnormalized forward transform of a 1-D complex sequence."""
    data = np.ascontiguousarray(x, dtype=np.complex128)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("fft expects a non-empty 1-D sequence")
    return _fft_rows(data[None, :])[0]


def _fft_rows(x: np.ndarray) -> np.ndarray:
    """Transform each row of a ``(rows, n)`` complex array."""
    n = x.shape[1]
    halvings = (n & -n).bit_length() - 1
    q = n >> halvings
    # Leaf (r1, .., rL, j) is element r1 + 2*r2 + .. + 2**L*j of a row, the
    # subsequence the recursion would reach by taking x[r::2] per halving.
    order = np.arange(n).reshape((q,) + (2,) * halvings).T.reshape(-1)
    out = x[:, order].reshape(-1, q)
    if q > 1:
        out = _bluestein(out)
    for _ in range(halvings):
        out = _combine(out.reshape(-1, 2, out.shape[1]))
    return out


def _combine(subs: np.ndarray) -> np.ndarray:
    # n = 2*q: recombine the transforms of the even and odd subsequences
    # of each row.  Twiddle exponents are exact integers below n, so the
    # angles handed to exp stay in [0, 2*pi).
    q = subs.shape[2]
    n = 2 * q
    k = np.arange(n, dtype=np.int64)
    idx = k % q
    out = subs[:, 0, idx]
    out += subs[:, 1, idx] * np.exp((-2j * np.pi / n) * k)
    return out


# one command transforms at most a few odd lengths (the data's and a
# reconstruction's), and a table of a large length holds up to 2**21 points
@functools.lru_cache(maxsize=4)
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
    # Odd-length transform of each row as a linear convolution against
    # the chirp, evaluated at a padded power-of-two length (>= 2n-1, no
    # wrap-around).
    rows, n = x.shape
    b, kernel_fft, pad = _bluestein_tables(n)
    buf = np.zeros((rows, pad), dtype=np.complex128)
    buf[:, :n] = x * b
    conv = np.conj(_fft_rows(np.conj(_fft_rows(buf) * kernel_fft))) / pad
    return conv[:, :n] * b
