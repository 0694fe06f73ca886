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
first two for ``eval``).  A stack writes every step of that sum into the
buffers of a :class:`StackWork`, made once and reused by call after call,
so a call builds no array.  Each curve of a stack rounds exactly like the
same curve held alone at a scalar, as long as both have the same terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fft import fft
from .pathdata import _is_integer, write_table

__all__ = ["StackWork", "TrigPath", "UniformGrid", "write_reconstruction_csv"]

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
        # part; fold that onto +pi to keep phases in (-pi, pi].  Adding +0.0
        # turns a -0.0 phase into +0.0, so th*k + phase is never -0.0: the
        # angle a stack writes straight into an imaginary part is then the
        # one 1j*(th*k + phase) gives a lone curve, whose 0 + angle is +0.0.
        phase = np.where(phase <= -np.pi, phase + TWO_PI, phase) + 0.0
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
        A stack gives the first two rows of :meth:`eval_with_deriv`.
        """
        if isinstance(theta, UniformGrid):
            return self._eval_grid(theta.samples)
        if self.a.ndim == 2:
            return self.eval_with_deriv(theta)[:2]
        return self._evaluate(theta, 2)

    def eval_with_deriv(self, theta, work=None):
        """(x, y, dx/dtheta, dy/dtheta) sharing one trig evaluation.

        A stack of R curves takes R parameters, one per curve, and writes
        the four as the (4, R) rows of ``work``, a :class:`StackWork` made
        for it (a fresh one when omitted), which it returns: the next call
        through the same ``work`` overwrites them.  Each curve's rows are
        the bytes of the same curve alone at its parameter, a scalar.
        """
        if self.a.ndim == 1:
            return self._evaluate(theta, 4)
        w = StackWork(self) if work is None else work
        # out= would broadcast a scalar or a one-parameter array silently;
        # the workspace's own parameter row has the stack's shape
        if theta is not w.theta and np.shape(theta) != w.th.shape:
            raise ValueError(f"a stack of {self.a.shape[0]} curves takes "
                             f"one parameter per curve, got shape {np.shape(theta)}")
        kf, phase, table = self._tables
        # the hot loop's calls pass out positionally, which numpy parses faster
        np.mod(theta, _TWO_PI, w.th)
        # exp(i*(th*k + phase)): the angle goes into the imaginary part of a
        # table whose real part stays +0.0
        np.multiply(w.column, kf, w.angle)
        np.add(w.angle, phase, w.angle)
        np.exp(w.turn, w.rot)
        # each curve's (x, dy) from the cosines, (y, -dx) from the sines
        np.vecdot(w.cos, table, w.x_dy)
        np.vecdot(w.sin, table, w.y_ndx)
        np.negative(w.dx, w.dx)
        return w.rows

    # vecdot sums a row the same way whether it stands alone or in a block
    # of any height, where ``@`` picks a kernel by the block's shape.
    def _sums(self, th):  # (x, y, dx, dy) as floats, at a float in [0, 2*pi)
        kf, phase, table = self._tables
        w = np.exp(_I * (th * kf + phase))
        # the curve's (x, dy) from the cosines, (y, -dx) from the sines;
        # indexing, since unpacking an array iterates it, at twice the cost
        xdy, ydx = np.vecdot(w.real, table).tolist(), np.vecdot(w.imag, table).tolist()
        return xdy[0], ydx[0], -ydx[1], xdy[1]

    def _evaluate(self, theta, n):
        """The first n of (x, y, dx, dy) at theta, on one curve.

        A scalar takes :meth:`_sums`.  An array takes one Horner pass of
        :attr:`_horner` in ``w = exp(i*th)`` per block of ``_BLOCK_ROWS``
        parameters, into one (n, size) output: with ``p = sum_{k>=0} a_k w^k``
        and ``q = sum_{k<0} conj(a_k) w^|k|`` the curve is p + conj(q).  Its
        complex products are written out in real multiplies and adds, which
        round alike wherever a parameter sits in an array; numpy's complex
        kernels do not.
        """
        # float % wraps as np.mod does, -0.0 included; isinstance first,
        # since np.ndim builds a 0-d array from a float
        if isinstance(theta, float) or np.ndim(theta) == 0:
            return self._sums(float(theta) % TWO_PI)[:n]
        th = np.mod(np.asarray(theta, dtype=np.float64), _TWO_PI)
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


class StackWork:
    """The buffers a stack's term sums are written into, for call after call.

    Made for one stack (see :meth:`TrigPath.eval_with_deriv`): its wrapped
    parameters, the (R, K) table of angles ``th*k + phase`` as imaginary
    parts, their exponentials, and the (4, R) rows x, y, dx, dy, with every
    view a sum writes through made here, once.  A workspace belongs to one
    caller, never to the curve; calls through it overwrite each other.
    """

    # a parameter array known to hold one parameter per curve (set by subclasses)
    theta = None

    def __init__(self, path: TrigPath):
        runs, terms = path.a.shape
        self.th = np.empty(runs)
        self.column = self.th[:, None]
        # written only in its imaginary part, so its real part stays +0.0
        self.turn = np.zeros((runs, terms), dtype=np.complex128)
        self.angle = self.turn.imag
        self.rot = np.empty_like(self.turn)
        self.cos, self.sin = self.rot.real, self.rot.imag
        self.rows = np.empty((4, runs))
        self.x_dy, self.y_ndx, self.dx = self.rows[::3], self.rows[1:3], self.rows[2]


def write_reconstruction_csv(path: TrigPath, fh, samples: int = 1024) -> None:
    """Write ``theta,x,y`` rows at `samples` uniform parameters in [0, 2*pi).

    The points come from one transform on the grid (see :class:`UniformGrid`).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    grid = UniformGrid(samples)
    write_table(fh, "theta,x,y", (grid.theta, *path.eval(grid)))
