"""Truncated trigonometric curves and their exact parameter derivative.

A curve is the finite sum ``x(th) + i*y(th) = sum a_k*exp(i*k*th)`` of its
complex coefficients.  A spectrum (``spectrum.Spectrum``) is such a curve,
with the transform's coefficients as its terms, so a full N-point spectrum
passes through the data samples at ``th = 2*pi*n/N``.  A scalar on one
curve, or one parameter per curve of a stack, takes a table of terms: one
shared trig evaluation of ``x = sum |a_k|*cos(k*th + arg a_k)``,
``y = sum |a_k|*sin(...)``, with the derivatives from the same cosines and
sines, two dot products in all.  An array on one curve takes Horner's rule
in ``w = exp(i*th)`` (in conj(w) for k < 0): each point is the same whatever
the array's shape, within ``4*eps*sum (1+|k|)*|a_k|`` of the exact sum
(``|k*a_k|`` for the derivative).  Both are O(K) per parameter for K terms.
Evaluation wraps th mod 2*pi, so the curve is 2*pi-periodic and stays
accurate for large unwrapped parameters.

On the uniform grid ``th_j = 2*pi*j/S`` (a :class:`UniformGrid`) the
points come from one length-S transform instead: with the coefficients
folded as ``b[(-k) mod S] += a_k``, the forward transform gives
``z_j = sum a_k exp(i*k*th_j)`` exactly, aliasing included, in
O(S log S + K) rather than O(S*K).

A ``TrigPath`` may also hold a stack of R curves over one shared ``k``:
``a`` is then an (R, K) array, and evaluating it at R parameters pairs
parameter r with curve r, into one (4, R) array of rows x, y, dx, dy (the
first two for ``eval``).  Each curve of a stack rounds exactly like the
same curve held alone at a scalar, as long as both have the same terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fft import fft
from .pathdata import _is_integer, write_table

__all__ = ["TrigPath", "UniformGrid", "write_reconstruction_csv"]

TWO_PI = 2.0 * math.pi
# parameters of one curve evaluated at once by the Horner recurrence, whose
# scratch is about 100 B a parameter (200 B with the derivative)
_BLOCK_ROWS = 1024
# numpy multiplies an array by a 0-d array faster than by a Python scalar
_I, _TWO_PI = np.array(1j), np.array(TWO_PI)


@dataclass(frozen=True)
class UniformGrid:
    """The S parameters ``th_j = 2*pi*j/S``, j < S, of one period."""

    samples: int

    def __post_init__(self):
        if not _is_integer(self.samples) or self.samples < 1:
            raise ValueError(f"a grid takes an integer sample count >= 1, got {self.samples!r}")

    @property
    def theta(self) -> np.ndarray:
        return TWO_PI * np.arange(self.samples) / self.samples


@dataclass(frozen=True, eq=False)
class TrigPath:
    """Immutable term list: indices ``k`` and complex coefficients ``a``.

    ``a`` is (K,) for one curve, or (R, K) for a stack of R curves.  Both
    arrays are read-only copies of the caller's.  The tables the pointwise
    sums run on are derived from them once, on first pointwise use.
    """

    k: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k)
        if k.size and (k.dtype.kind not in "iu" or not np.can_cast(k.dtype, np.int64)):
            raise ValueError(f"k must hold integers in the int64 range, not {k.dtype} values")
        k, a = k.astype(np.int64), np.array(self.a, dtype=np.complex128)
        if k.ndim != 1 or a.ndim not in (1, 2) or a.shape[-1] != k.size:
            raise ValueError("k must be 1-D, and a a (K,) or (R, K) array over its K terms")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        for name, arr in (("k", k), ("a", a)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def _tables(self):
        """Read-only ``(k as float64, phase in (-pi, pi], (|a|, k*|a|))``, the
        last one (2, ..., K) table, held in the instance ``__dict__`` once derived."""
        # the float k is what numpy's int64 -> float64 promotion forms in
        # th*k, so every angle is the number the int64 k gives
        kf = self.k.astype(np.float64)
        amp = np.abs(self.a)
        phase = np.angle(self.a)
        # angle() returns -pi for a negative real part with a -0.0 imaginary
        # part; fold that onto +pi to keep phases in (-pi, pi].
        phase = np.where(phase <= -np.pi, phase + TWO_PI, phase)
        tables = (kf, phase, np.stack((amp, kf * amp)))
        for arr in tables:
            arr.setflags(write=False)
        return tables

    @cached_property
    def _horner(self):
        """Gaps and coefficients of a lone curve's Horner pass down |k| to 0:
        at each |k|, the real then imaginary parts of ``a_k``, ``conj(a_-k)``,
        ``i*k*a_k`` and ``conj(-i*k*a_-k)``, as a (steps, 2, 4, 1) table."""
        # Python ints hold every |k|, where int64 overflows at -2**63
        mags = sorted({abs(v) for v in self.k.tolist()} | {0}, reverse=True)
        slot = dict(zip(mags, range(len(mags))))
        rows, neg = [slot[abs(v)] for v in self.k.tolist()], (self.k < 0).astype(np.intp)
        c = np.zeros((len(mags), 4), dtype=np.complex128)
        for col, v in ((neg, self.a), (neg + 2, 1j * self.k * self.a)):
            np.add.at(c, (rows, col), np.where(neg, v.conj(), v))
        gaps = [hi - lo for hi, lo in zip(mags[:1] + mags, mags)]
        return gaps, np.stack((c.real, c.imag), axis=1)[..., None]

    @property
    def n_terms(self) -> int:
        return self.k.size

    def eval(self, theta):
        """Curve point(s) at theta; scalars in, floats out, arrays in, arrays out.

        A :class:`UniformGrid` in gives the (S,) arrays at its parameters,
        from one transform of the folded coefficients; a stack refuses it.
        """
        if isinstance(theta, UniformGrid):
            return self._eval_grid(theta.samples)
        return self._evaluate(theta, 2)

    def eval_with_deriv(self, theta):
        """(x, y, dx/dtheta, dy/dtheta) sharing one trig evaluation."""
        return self._evaluate(theta, 4)

    # vecdot sums a row the same way whether it stands alone or in a block
    # of any height, where ``@`` picks a kernel by the block's shape.
    def _sums(self, th):  # (x, y, dx, dy): floats at a float, one (4, R) array at an (R, 1) column
        kf, phase, table = self._tables
        w = np.exp(_I * (th * kf + phase))
        # each curve's (x, dy) from the cosines, (y, -dx) from the sines
        if self.a.ndim == 1:
            xdy, ydx = np.vecdot(w.real, table).tolist(), np.vecdot(w.imag, table).tolist()
            # indexing, since unpacking an array iterates it, at twice the cost
            return xdy[0], ydx[0], -ydx[1], xdy[1]
        out = np.empty((4, self.a.shape[0]))
        np.vecdot(w.real, table, out=out[::3])
        np.vecdot(w.imag, table, out=out[1:3])
        np.negative(out[2], out=out[2])
        return out

    def _evaluate(self, theta, n):
        """The first n of (x, y, dx, dy) at theta.

        A scalar, or a stack of R curves at R parameters (one per curve),
        takes :meth:`_sums`.  An array on one curve takes one Horner pass of
        :attr:`_horner` in ``w = exp(i*th)`` per block of ``_BLOCK_ROWS``
        parameters, into one (n, size) output: with ``p = sum_{k>=0} a_k w^k``
        and ``q = sum_{k<0} conj(a_k) w^|k|`` the curve is p + conj(q).  Its
        complex products are written out in real multiplies and adds, which
        round alike wherever a parameter sits in an array; numpy's complex
        kernels do not.
        """
        # a lone curve at a scalar: float % wraps as np.mod does, -0.0 included;
        # isinstance first, since np.ndim builds a 0-d array from a float
        if self.a.ndim == 1 and (isinstance(theta, float) or np.ndim(theta) == 0):
            return self._sums(float(theta) % TWO_PI)[:n]
        th = np.mod(np.asarray(theta, dtype=np.float64), _TWO_PI)
        if self.a.ndim == 2:
            if th.shape != self.a.shape[:1]:
                raise ValueError(f"a stack of {self.a.shape[0]} curves takes "
                                 f"one parameter per curve, got shape {th.shape}")
            return self._sums(th[:, None])[:n]
        (gaps, coefs), flat = self._horner, th.ravel()
        out = np.empty((n, flat.size))
        for start in range(0, flat.size, _BLOCK_ROWS):
            block, powers = flat[start:start + _BLOCK_ROWS], {}
            # real, then imaginary parts of p, q and their derivatives
            re, im = acc = np.zeros((2, n, block.size))
            t, u = np.empty_like(acc)
            for gap, c in zip(gaps, coefs[:, :, :n]):
                if gap:
                    if gap not in powers:
                        w = np.exp(1j * (gap * block))
                        powers[gap] = np.tile(w.real, (n, 1)), np.tile(w.imag, (n, 1))
                    wr, wi = powers[gap]
                    np.multiply(re, wi, out=t)
                    re *= wr
                    re -= np.multiply(im, wi, out=u)
                    im *= wr
                    im += t
                acc += c
            out[0::2, start:start + block.size] = re[0::2] + re[1::2]
            out[1::2, start:start + block.size] = im[0::2] - im[1::2]
        return tuple(out.reshape(n, *th.shape))

    def _eval_grid(self, samples):
        if self.a.ndim == 2:
            raise ValueError("a stack of curves cannot be evaluated on a grid")
        folded = np.zeros(samples, dtype=np.complex128)
        np.add.at(folded, -self.k % samples, self.a)
        z = fft(folded)
        return z.real, z.imag


def write_reconstruction_csv(path: TrigPath, fh, samples: int = 1024) -> None:
    """Write ``theta,x,y`` rows at `samples` uniform parameters in [0, 2*pi).

    The points come from one transform on the grid (see :class:`UniformGrid`).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    grid = UniformGrid(samples)
    write_table(fh, "theta,x,y", (grid.theta, *path.eval(grid)))
