"""Truncated trigonometric curves and their exact parameter derivative.

A curve is the finite sum ``x(th) + i*y(th) = sum a_k*exp(i*k*th)`` of its
complex coefficients.  A spectrum (``spectrum.Spectrum``) is such a curve,
with the transform's coefficients as its terms, so a full N-point spectrum
passes through the data samples at ``th = 2*pi*n/N``.  At arbitrary
parameters the point and its derivative come from one shared trig
evaluation of the polar form ``x = sum |a_k|*cos(k*th + arg a_k)``,
``y = sum |a_k|*sin(k*th + arg a_k)``, O(K) per parameter for K terms.
Evaluation wraps th mod 2*pi, so the curve is 2*pi-periodic and stays
accurate for large unwrapped parameters.

On the uniform grid ``th_j = 2*pi*j/S`` (a :class:`UniformGrid`) the
points come from one length-S transform instead: with the coefficients
folded as ``b[(-k) mod S] += a_k``, the forward transform gives
``z_j = sum a_k exp(i*k*th_j)`` exactly, aliasing included, in
O(S log S + K) rather than O(S*K).

A ``TrigPath`` may also hold a stack of R curves over one shared ``k``:
``a`` is then an (R, K) array, and evaluating it at R parameters pairs
parameter r with curve r.  Each curve of a stack rounds exactly like the
same curve held alone, as long as both have the same terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fft import fft
from .pathdata import _is_integer, write_table

__all__ = ["TrigPath", "UniformGrid", "write_reconstruction_csv"]

TWO_PI = 2.0 * math.pi
# largest parameter-by-term table built at once when evaluating arrays
_BLOCK_ELEMENTS = 1 << 13


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
    arrays are read-only copies of the caller's.  The polar tables the
    pointwise sums run on, amplitudes ``|a|`` and phases in (-pi, pi], are
    derived from ``a`` once, on first pointwise use.
    """

    k: np.ndarray
    a: np.ndarray
    # the polar tables: None until the first pointwise evaluation derives
    # them into the instance __dict__, where the step loop reads them as
    # plain attributes
    _amp = _phase = _kamp = None

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

    def _derive_polar_tables(self):
        amp = np.abs(self.a)
        phase = np.angle(self.a)
        # angle() returns -pi for a negative real part with a -0.0 imaginary
        # part; fold that onto +pi to keep phases in (-pi, pi].
        phase = np.where(phase <= -np.pi, phase + TWO_PI, phase)
        kamp = (self.k * amp).astype(np.float64)
        for name, arr in (("_amp", amp), ("_phase", phase), ("_kamp", kamp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        return self._evaluate(theta)[:2]

    def eval_with_deriv(self, theta):
        """(x, y, dx/dtheta, dy/dtheta) sharing one trig evaluation."""
        return self._evaluate(theta)

    # vecdot sums a row the same way whether it stands alone or in a block
    # of any height, where ``@`` picks a kernel by the block's shape.
    def _sums(self, w):  # (x, y, dx, dy) from the rotations w of the terms
        c, s = w.real, w.imag
        return (np.vecdot(c, self._amp), np.vecdot(s, self._amp),
                -np.vecdot(s, self._kamp), np.vecdot(c, self._kamp))

    def _evaluate(self, theta):
        """:meth:`_sums` of the terms at theta.

        Array parameters are taken in blocks of rows whose tables hold at
        most ``_BLOCK_ELEMENTS`` entries, each written into its columns of
        one (4, n) output, so memory follows the output however many terms
        there are.  A stack of R curves takes R parameters, one per curve,
        in one table the size of its coefficients.
        """
        if self._phase is None:
            self._derive_polar_tables()
        # a lone curve at a scalar: float % wraps as np.mod does, -0.0 included;
        # isinstance first, since np.ndim builds a 0-d array from a float
        if self.a.ndim == 1 and (isinstance(theta, float) or np.ndim(theta) == 0):
            return tuple(map(float, self._sums(self._rotations(float(theta) % TWO_PI))))
        th = np.mod(np.asarray(theta, dtype=np.float64), TWO_PI)
        if self.a.ndim == 2:
            if th.shape != self.a.shape[:1]:
                raise ValueError(f"a stack of {self.a.shape[0]} curves takes "
                                 f"one parameter per curve, got shape {th.shape}")
            return self._sums(self._rotations(th))
        flat = th.ravel()
        rows = max(1, _BLOCK_ELEMENTS // max(1, self.n_terms))
        out = np.empty((4, flat.size))
        for start in range(0, flat.size, rows):
            out[:, start:start + rows] = self._sums(self._rotations(flat[start:start + rows]))
        return tuple(out.reshape(4, *th.shape))

    def _rotations(self, th):
        return np.exp(1j * (np.multiply.outer(th, self.k) + self._phase))

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
