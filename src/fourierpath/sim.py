"""Fixed-step integration of the closed loop state' = chi(state).

The step loop takes classic fourth-order Runge-Kutta steps from t = 0 to
the duration, which dt divides, and records the state and the curve
offsets at every step from a given time on.  For one curve the state is
three floats, x, y and theta, and each RK4 formula is applied to each
alone.  The quadratic energy V1 and the squared distance to a reference
curve are computed from those rows once the loop ends, so trajectories
can be audited after the fact.

The same loop integrates a stack of R curves (see ``TrigPath``) at once:
the state is then one (3, R) array, each RK4 formula is applied to it as
one block, every recorded array gains a trailing run axis, and column r
is byte for byte the trajectory that following curve r alone gives.

The recorded rows are checked for divergence one block of ``_CHECK_ROWS``
rows at a time, not at every step, so a diverging run may step up to one
block past the divergence; the step it reports is still the first one out
of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .gvf import FieldState, GvfParams, _field_terms
from .pathdata import write_table
from .trigpath import TrigPath

__all__ = ["IntegrationError", "SimConfig", "Trajectory", "integrate", "convergence_time"]

_DIVERGENCE_LIMIT = 1e12
# recorded rows whose range is checked at once; a diverging run steps at
# most this many rows past the divergence before it is reported
_CHECK_ROWS = 256
# most RK4 steps a run may take, a memory guard rail: a simulate keeps every
# step's row, and its peak resident memory grows by up to about 80 B per step
# (with or without noise, 16 or 4100 terms), so the largest run the cap
# admits, about 3.2 GB of rows, stays within 3.6 GB
_STEP_LIMIT = 4 * 10**7
# rows of a trajectory whose reference points are evaluated at once
_ERROR_CHUNK_ROWS = 4096


class IntegrationError(RuntimeError):
    """Raised when the integrated state stops being finite (dt too large)."""

    def __init__(self, step: int, message: str, curve: int | None = None):
        super().__init__(message)
        self.step = step
        # for a stack of curves, the one whose state diverged
        self.curve = curve


@dataclass(frozen=True)
class SimConfig:
    """Initial state, horizon and step size for one run; dt divides the horizon."""

    eta0: FieldState
    duration: float
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be finite and > 0")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and > 0")
        if self.dt > self.duration:
            raise ValueError("dt must not exceed duration")
        ratio = self.duration / self.dt
        if ratio > _STEP_LIMIT:
            raise ValueError(f"duration/dt must be at most {_STEP_LIMIT:g}, "
                             "the most steps a run may take")
        # a relative 1e-9 is far above decimal rounding: 0.3/0.1 is 2.9999999999999996
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"dt must divide duration; duration/dt is {ratio:.12g}")

    @property
    def steps(self) -> int:
        """RK4 steps of a run; its last row is at t = dt*steps, the duration."""
        return round(self.duration / self.dt)

    def first_row(self, since: float) -> int:
        """Index of a run's first row at t >= since; dt*i rounds monotonically in i."""
        first = max(0, math.ceil(max(since, 0.0) / self.dt) - 1)
        while self.dt * first < since:
            first += 1
        return first


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of the integrated state and its diagnostics.

    ``t`` has one entry per row.  The other arrays have shape (rows,) for
    one curve and (rows, R) for a stack of R curves.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    v1: np.ndarray
    e_inst: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.t.size

    def write_csv(self, fh, stride: int = 1) -> None:
        """Write ``t,x,y,theta,phi1,phi2,V1,e_inst`` rows 0, stride, 2*stride, ...;
        a stack of curves has no such table and raises ValueError."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if self.x.ndim != 1:
            raise ValueError(f"a stack of {self.x.shape[1]} curves has no trajectory table")
        write_table(fh, "t,x,y,theta,phi1,phi2,V1,e_inst",
                    [getattr(self, f.name)[::stride] for f in fields(self)])


def integrate(
    path: TrigPath,
    params: GvfParams,
    cfg: SimConfig,
    truth: TrigPath | None = None,
    since: float = 0.0,
) -> Trajectory:
    """Integrate the guiding field from cfg.eta0 over cfg.duration.

    The run takes ``cfg.steps`` steps, its rows at ``t = dt*i`` ending at
    the duration, and keeps only the rows at ``t >= since`` (at most the
    last row's t); the rows before are checked but held one block at a time.

    ``path`` is one curve, or a stack of R curves that all start from
    cfg.eta0 and are stepped together; the run axis then trails every
    array of the trajectory but ``t``.

    ``truth`` is the reference curve for the logged squared error
    e_inst = (x - x_ref(theta))^2 + (y - y_ref(theta))^2, evaluated at the
    trajectory's own parameter in row chunks after the loop.  When omitted,
    the followed path itself is the reference, in which case
    e_inst = phi1^2 + phi2^2.  V1 and e_inst are formed on the kept rows.

    The state is three floats for one curve, each stepped alone, and one
    (3, R) array for a stack, stepped as one block in the same operations.

    Raises :class:`IntegrationError` with the offending step index when the
    state leaves the finite range, which almost always means dt is too
    large for the gains at hand.  For a stack it also names the curve:
    the one that diverges first, ties going to the lowest index.  The range
    is checked once per block of ``_CHECK_ROWS`` recorded rows, so the loop
    may step up to one block past the divergence before it raises; the
    reported step is exact, kept or not.
    """
    n_steps, dt = cfg.steps, cfg.dt
    if not since <= dt * n_steps:
        raise ValueError(f"since must be at most the last row's t = {dt * n_steps:g}")
    first = cfg.first_row(since)
    t = dt * np.arange(first, n_steps + 1)
    # () for one curve, (R,) for a stack of R
    runs = path.a.shape[:-1]
    # rows (x, y, theta, phi1, phi2) fill a block, checked at once; kept ones are copied out
    block = np.empty((_CHECK_ROWS, 5, *runs))
    kept = np.empty((t.size, 5, *runs))

    # the state: three floats for one curve, one (3, R) array for a stack
    s = (float(cfg.eta0.x), float(cfg.eta0.y), float(cfg.eta0.theta))
    h, sixth, two, one = 0.5 * dt, dt / 6.0, 2.0, 1.0
    if runs:
        s = np.repeat(np.array(s)[:, None], runs, axis=1)
        # numpy scales an array by a 0-d array faster than by a float
        dt, h, sixth, two, one = (np.array(v) for v in (dt, h, sixth, two, one))

        def ahead(s, w, f):
            return s + w * f
    else:
        def ahead(s, w, f):
            return s[0] + w * f[0], s[1] + w * f[1], s[2] + w * f[2]
    start = 0  # the row block[0] holds
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            phi, _, a = _field_terms(path, s, params)
            # a row is the state, then the offsets
            block[i - start] = np.concatenate((s, phi)) if runs else s + phi
            if i == n_steps or i - start == _CHECK_ROWS - 1:
                _check_bounded(block[:i + 1 - start], start, cfg.dt)
                if i >= first:
                    lo = max(start, first)
                    kept[lo - first:i + 1 - first] = block[lo - start:i + 1 - start]
                start = i + 1
            if i == n_steps:
                break

            b = _field_terms(path, ahead(s, h, a), params)[2]
            c = _field_terms(path, ahead(s, h, b), params)[2]
            d = _field_terms(path, ahead(s, dt, c), params)[2]
            # the step s + dt/6*(((a + 2b) + 2c) + d), one s + w*f at a time (1.0*d is d)
            s = ahead(s, sixth, ahead(ahead(ahead(a, two, b), two, c), one, d))

    x, y, theta, phi1, phi2 = np.moveaxis(kept, 1, 0)
    v1 = params.k1 * phi1 * phi1 + params.k2 * phi2 * phi2
    if truth is None:
        e_inst = phi1 * phi1 + phi2 * phi2
    else:
        e_inst = _squared_error(truth, x, y, theta)
    return Trajectory(t, x, y, theta, phi1, phi2, v1, e_inst)


def _check_bounded(rows, start: int, dt: float) -> None:
    """Raise :class:`IntegrationError` at the first of ``rows``, the run's rows from
    ``start`` on, out of the finite range, naming the lowest such curve of a stack."""
    # false for NaN too
    bounded = np.all(np.abs(rows[:, :3]) <= _DIVERGENCE_LIMIT, axis=1)
    if bounded.all():
        return
    first = int(np.argmin(bounded.reshape(len(rows), -1).all(axis=1)))
    step = start + first
    raise IntegrationError(
        step,
        f"state diverged at step {step} (t = {dt * step:g}); "
        "dt is too large for these gains",
        int(np.argmin(bounded[first])) if bounded.ndim == 2 else None,
    )


def _squared_error(truth: TrigPath, x, y, theta):
    """Squared distance from (x, y) to the point of ``truth`` at theta.

    The reference is evaluated _ERROR_CHUNK_ROWS rows at a time, so its
    points and wrapped parameters stay one chunk however long the run; its
    recurrence for arrays (not the step loop's table of terms) rounds a
    point alike in a chunk of any height and in any column of a stack.
    """
    e = np.empty_like(x)
    for start in range(0, len(theta), _ERROR_CHUNK_ROWS):
        rows = slice(start, start + _ERROR_CHUNK_ROWS)
        tx, ty = truth.eval(theta[rows])
        e[rows] = (x[rows] - tx) ** 2 + (y[rows] - ty) ** 2
    return e


def convergence_time(traj: Trajectory, tol: float) -> float | None:
    """First time from which phi1^2 + phi2^2 stays <= tol to the end.

    For a stack of curves it is the first time from which every run stays
    within tol.  Returns None when the condition never holds through the
    final sample (with tol = 0 that is the typical outcome: the offsets do
    not hit floating-point zero unless the start was exactly on the path).
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")
    v = traj.phi1**2 + traj.phi2**2
    above = np.nonzero(v > tol)[0]
    if above.size == 0:
        return float(traj.t[0])
    last = int(above[-1])
    if last == traj.n_rows - 1:
        return None
    return float(traj.t[last + 1])
