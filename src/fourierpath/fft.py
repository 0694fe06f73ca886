"""Fourier transform engine for sequences of arbitrary length.

A length n = 2**L * q with q odd is halved L times (radix-2 Cooley-Tukey),
and the odd leaves of length q > 1 are reduced to a power-of-two circular
convolution with a chirp sequence (Bluestein), so the cost stays near
O(n log n) for any n, whether q is prime (e.g. n = 758 = 2 * 379) or not.

Each halving runs as one numpy pass over all of that level's
subsequences, not as one Python call per subsequence.  The leaves
x[s::2**L] are copied once into the rows of a (subsequences, bins) table
in the natural order of s (Stockham's autosort: no bit reversal), so
every level pairs the first half of its rows, the even subsequences,
with the second half, the odd ones, as two contiguous blocks, and leaves
its output rows in the same order.  A level's passes run along the
longer axis: while the subsequences outnumber the bins its output is
stored bins-major (column order) and each pass runs across the
subsequences; once the bins outnumber them it is stored row by row and
each pass runs along the bins.  Only one level is held at a time, so
memory stays O(n).  The layout moves elements, not arithmetic: every
output bin is still odd*twiddles[k] + even[k mod q] with the same
twiddle entry, one complex multiply and one add, so the results are
bit-identical to the per-subsequence recursion (the tests pin this for
lengths that switch layout at different levels).

What depends on n alone is planned once per length and cached: one
twiddle table ``exp((-2j*pi/n)*t)`` for t < n, and for q > 1 the chirp and
the transformed convolution kernel.  The level of length n >> l reads
every 2**l-th twiddle.  Entry 2**l*t is bit for bit the level's own
``exp((-2j*pi/(n >> l))*t)``: the rounded 2*pi/n is the rounded
2*pi/(n >> l) scaled by 2**-l, and a product scaled by a power of two
rounds to the scaled rounded product in binary floating point, so the
angles handed to exp are the same numbers.

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
    rows, n = x.shape
    halvings, twiddles, chirp = _plan(n)
    q = n >> halvings
    # Leaf s of a row is its subsequence x[s::2**L], the one the recursion
    # reaches by taking x[r::2] per halving, and row s*rows + row of the
    # leaf table holds it, so each level's even subsequences fill its first
    # half of rows and the odd ones its second half.
    out = x.reshape(rows, q, n // q).transpose(2, 0, 1).copy().reshape(-1, q)
    if chirp is not None:
        out = _bluestein(out, *chirp)
    for level in range(halvings - 1, -1, -1):
        out = _combine(out, twiddles[:: 1 << level])
    return out


def _combine(subs: np.ndarray, twiddles: np.ndarray) -> np.ndarray:
    # n = 2*q: recombine the transforms of the even (first half) and odd
    # (second half) subsequences, bin k from odd*twiddles[k] + even[k mod q].
    # Each pass runs along the longer axis: the output is stored bins-major
    # while its subsequences outnumber its bins.
    m, q = subs.shape
    even, odd = subs[: m // 2], subs[m // 2 :]
    out = np.empty((m // 2, 2 * q), dtype=np.complex128, order="F" if m > 4 * q else "C")
    for half in (slice(0, q), slice(q, 2 * q)):
        np.multiply(odd, twiddles[half], out=out[:, half])
        out[:, half] += even
    return out


# One command transforms at most a few lengths (the data's, its chirp's
# padded length and a reconstruction grid's), and the plan of a large
# length holds up to 2**21 points per table.
@functools.lru_cache(maxsize=4)
def _plan(n: int):
    """Halvings of length n, its twiddle table (None without halvings) and
    its odd leaves' chirp tables (None for a power of two)."""
    halvings = (n & -n).bit_length() - 1
    q = n >> halvings
    twiddles = chirp = None
    if halvings:
        # exponents are exact integers below n, so the angles handed to exp
        # stay in [0, 2*pi)
        twiddles = np.exp((-2j * np.pi / n) * np.arange(n, dtype=np.int64))
        twiddles.setflags(write=False)
    if q > 1:
        # Chirp b[t] = exp(-1j*pi*t^2/q), with t^2 reduced mod 2q so the
        # angle is computed from a small exact integer.
        pad = 1 << (2 * q - 2).bit_length()
        t = np.arange(q, dtype=np.int64)
        b = np.exp((-1j * np.pi / q) * ((t * t) % (2 * q)))
        kernel = np.zeros((1, pad), dtype=np.complex128)
        kernel[0, :q] = np.conj(b)
        kernel[0, pad - q + 1 :] = np.conj(b[1:])[::-1]
        kernel_fft = _fft_rows(kernel)[0]
        b.setflags(write=False)
        kernel_fft.setflags(write=False)
        chirp = b, kernel_fft, pad
    return halvings, twiddles, chirp


def _bluestein(x: np.ndarray, b: np.ndarray, kernel_fft: np.ndarray, pad: int) -> np.ndarray:
    # Odd-length transform of each row as a linear convolution against
    # the chirp, evaluated at a padded power-of-two length (>= 2n-1, no
    # wrap-around).
    rows, n = x.shape
    conv = np.zeros((rows, pad), dtype=np.complex128)
    np.multiply(x, b, out=conv[:, :n])
    conv = _fft_rows(conv)
    conv *= kernel_fft
    conv = _fft_rows(np.conj(conv, out=conv))
    np.conj(conv, out=conv)
    conv /= pad
    return conv[:, :n] * b
