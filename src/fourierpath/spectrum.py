"""Spectra of planar paths: forward transform, windowing, tail energy.

A spectrum is the truncated trigonometric curve of its own coefficients:
:class:`Spectrum` extends ``trigpath.TrigPath`` with the sample count N,
so a spectrum, windowed or not, is followed and evaluated as it stands.

Conventions (they differ from most FFT libraries, so read this once):

* The 1/N factor sits on the *forward* transform:
  ``a_k = (1/N) * sum_n c[n] exp(-2j*pi*k*n/N)`` with ``c[n] = x[n] + 1j*y[n]``.
* Coefficients are stored on the signed index set ``-((N-1)//2) .. N//2``:
  for even N the single bin at the half-sample rate is stored once, at
  ``+N/2`` (``-N/2`` is the same bin).  Unsigned bin N-k is signed index -k,
  so the signed order is the FFT output rotated left by N//2 + 1 places.
* A "window of width m" keeps the signed indices with ``2*|k| <= m``: for
  even m that is ``-m/2 .. m/2`` (m+1 coefficients, e.g. m=100 keeps
  -50..50), for odd m it is ``-(m-1)/2 .. (m-1)/2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fft import fft
from .pathdata import PathSamples, write_table
from .trigpath import TrigPath

__all__ = [
    "Spectrum",
    "dft",
    "apply_window",
    "checked_widths",
    "tail_energy",
    "write_spectrum_csv",
]


def checked_widths(m: int | np.ndarray, n_samples: int) -> np.ndarray:
    """``m`` (one width or an array of widths) as an integer array.

    Every width must be an integer in 1..n_samples: a wider window would
    reach past the index range of an n_samples-point spectrum.
    """
    widths = np.asarray(m)
    if widths.dtype.kind not in "iu" or np.any(widths < 1):
        raise ValueError(f"window width must be an integer >= 1, got {m!r}")
    if np.any(widths > n_samples):
        raise ValueError(
            f"window width {int(widths.max())} exceeds the index range of a "
            f"spectrum of {n_samples} samples"
        )
    return widths


@dataclass(frozen=True, eq=False)
class Spectrum(TrigPath):
    """One curve whose terms are the transform of N samples; indices not
    stored are zero.

    ``k`` is strictly increasing within ``-((N-1)//2) .. N//2``, ``a`` holds
    the matching coefficients and ``n_samples`` is the length N of the
    originating dataset.
    """

    n_samples: int

    def __post_init__(self):
        super().__post_init__()
        if self.a.ndim != 1:
            raise ValueError("a spectrum is one curve: a must be 1-D")
        k = self.k
        if k.size and np.any(np.diff(k) <= 0):
            raise ValueError("indices must be strictly increasing")
        n = int(self.n_samples)
        if n < 2:
            raise ValueError("n_samples must be >= 2")
        lo, hi = -((n - 1) // 2), n // 2
        if k.size and (k[0] < lo or k[-1] > hi):
            raise ValueError(f"indices must lie in [{lo}, {hi}] for n_samples={n}")
        object.__setattr__(self, "n_samples", n)

    def coefficient(self, k: int) -> complex:
        """Coefficient at signed index k (zero when not stored)."""
        pos = int(np.searchsorted(self.k, k))
        if pos < self.k.size and self.k[pos] == k:
            return complex(self.a[pos])
        return 0j

    def energy(self) -> float:
        """Total spectral energy, sum of |a_k|^2."""
        return float(np.sum(np.abs(self.a) ** 2))


def dft(samples: PathSamples) -> Spectrum:
    """Forward transform of a path on the signed index set: the FFT output
    rotated left by N//2 + 1 places, since unsigned bin N-k is index -k."""
    n = samples.n_samples
    coeffs = np.roll(fft(samples.x + 1j * samples.y) / n, -(n // 2 + 1))
    return Spectrum(k=np.arange(n) - (n - 1) // 2, a=coeffs, n_samples=n)


def apply_window(spec: Spectrum, m: int) -> Spectrum:
    """Keep exactly the coefficients inside the width-m window, drop the rest.

    The kept coefficients are passed through unchanged, so re-applying the
    same window is the identity.
    """
    mask = 2 * np.abs(spec.k) <= checked_widths(m, spec.n_samples)
    return Spectrum(k=spec.k[mask], a=spec.a[mask], n_samples=spec.n_samples)


def tail_energy(spec: Spectrum, m: int | np.ndarray) -> float | np.ndarray:
    """Spectral energy outside the width-m window: sum of |a_k|^2 there.

    ``m`` may be one width or an array of widths.  Index k joins the window
    once the width reaches its entry width 2*|k|, so one stable sort of the
    energies by entry width followed by suffix sums gives every tail at
    once.  An int width returns a float, an array of widths an array.
    """
    widths = checked_widths(m, spec.n_samples)
    entry = 2 * np.abs(spec.k)
    order = np.argsort(entry, kind="stable")
    energy = np.abs(spec.a[order]) ** 2
    suffix = np.append(np.cumsum(energy[::-1])[::-1], 0.0)
    tails = suffix[np.searchsorted(entry[order], widths, side="right")]
    return float(tails) if tails.ndim == 0 else tails


def write_spectrum_csv(spec: Spectrum, fh) -> None:
    """Write ``k,re,im,magnitude`` lines sorted by k ascending; with 17
    significant digits ``k`` prints as an integer, and magnitude is hypot(re, im)."""
    re, im = spec.a.real, spec.a.imag
    write_table(fh, "k,re,im,magnitude", (spec.k, re, im, np.hypot(re, im)))
