"""Fixed-step integration of the closed loop state' = chi(state).

The step loop takes classic fourth-order Runge-Kutta steps from t = 0 to
the duration, which dt divides, and keeps the state and the curve offsets
of the rows it is asked for, counted by row index, and of its last row.
For one curve the state is three floats, x, y and theta, and each RK4
formula is written out for each alone.  The quadratic energy V1 and the
squared distance to a reference curve are computed from the kept rows once
the loop ends, so trajectories can be audited after the fact.  Under the
comparison lemma V1 decays at least as fast as :func:`transient_bound`.

The same loop integrates a stack of R curves (see ``TrigPath``) at once:
the state is then one (3, R) array, each RK4 formula is applied to it as
one block, every kept array gains a trailing run axis, and column r is
byte for byte the trajectory that following curve r alone gives.  A run
of a stack makes its buffers once, and every stage writes into them: the
stage inputs and the update here, and the field and its term sums below.

Every row is stepped into a block of ``_CHECK_ROWS`` rows, and each full
block is handled at once, not each step: its range is checked for
divergence, its kept rows are copied out, and the last row whose offsets
exceed a convergence tolerance is found in it.  So a run holds one block
and its kept rows, however many steps it takes, and a diverging run may
step up to one block past the divergence; the step it reports is still the
first one out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gvf import FieldState, GvfParams, _field_terms, _FieldWork
from .pathdata import write_table
from .trigpath import TrigPath

__all__ = ["IntegrationError", "SimConfig", "Trajectory", "integrate", "transient_bound"]

_DIVERGENCE_LIMIT = 1e12
# rows whose range is checked at once; a diverging run steps at most this
# many rows past the divergence before it is reported
_CHECK_ROWS = 256
# most RK4 steps a run may take, a memory guard rail: a run holds the rows it
# keeps, and a simulate at stride 1 keeps every step's, so its peak resident
# memory grows by up to about 80 B per step (with or without noise, 16 or
# 4100 terms), and the largest run the cap admits, about 3.2 GB of rows,
# stays within 3.6 GB; at stride 1000 it grows by about 0.5 B per step
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


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of the integrated state and its diagnostics.

    ``t`` has one entry per kept row.  The other arrays have shape (rows,)
    for one curve and (rows, R) for a stack of R curves.  ``final`` is the
    run's last row, at the duration, as a one-row Trajectory, whether it was
    kept or not.  ``convergence_time`` is the first t from which every run's
    phi1^2 + phi2^2 stays within the tolerance :func:`integrate` was given,
    over every row stepped; it is None without a tolerance, or when the last
    row is above it (with a tolerance of 0 that is the typical outcome: the
    offsets do not hit floating-point zero unless the start was exactly on
    the path).
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    v1: np.ndarray
    e_inst: np.ndarray
    final: Trajectory | None = None
    convergence_time: float | None = None

    def __post_init__(self):
        for column in self.columns:
            column.setflags(write=False)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The arrays t, x, y, theta, phi1, phi2, v1 and e_inst, in that order."""
        return self.t, self.x, self.y, self.theta, self.phi1, self.phi2, self.v1, self.e_inst

    @property
    def n_rows(self) -> int:
        return self.t.size

    def write_csv(self, fh) -> None:
        """Write the ``t,x,y,theta,phi1,phi2,V1,e_inst`` table of the kept rows;
        a stack of curves has no such table and raises ValueError."""
        if self.x.ndim != 1:
            raise ValueError(f"a stack of {self.x.shape[1]} curves has no trajectory table")
        write_table(fh, "t,x,y,theta,phi1,phi2,V1,e_inst", self.columns)


def integrate(
    path: TrigPath,
    params: GvfParams,
    cfg: SimConfig,
    truth: TrigPath | None = None,
    rows: range | None = None,
    conv_tol: float | None = None,
) -> Trajectory:
    """Integrate the guiding field from cfg.eta0 over cfg.duration.

    The run takes ``cfg.steps`` steps, its rows at ``t = dt*i`` ending at
    the duration.  It keeps the rows whose index i is in ``rows``, a rising
    range within 0..cfg.steps (every row by default), and its last row as
    the trajectory's ``final``; the other rows are checked but held one
    block at a time.  With ``conv_tol``, the trajectory's
    ``convergence_time`` is read from every row stepped, kept or not.

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
    is checked once per block of ``_CHECK_ROWS`` rows, so the loop may step
    up to one block past the divergence before it raises; the reported step
    is exact, kept or not.
    """
    n_steps, dt = cfg.steps, cfg.dt
    rows = range(n_steps + 1) if rows is None else rows
    if not (rows and rows.step > 0 and 0 <= rows[0] and rows[-1] <= n_steps):
        raise ValueError(f"rows must be a non-empty rising range within 0..{n_steps}")
    if conv_tol is not None and not (math.isfinite(conv_tol) and conv_tol >= 0):
        raise ValueError("conv_tol must be finite and >= 0")
    # () for one curve, (R,) for a stack of R
    runs = path.a.shape[:-1]
    # rows (x, y, theta, phi1, phi2) fill a block, handled at once: the kept
    # ones are copied out, and the last slot of kept ends as the last row
    block = np.empty((_CHECK_ROWS, 5, *runs))
    kept = np.empty((len(rows) + 1, 5, *runs))
    above = -1  # the last row whose offsets exceed conv_tol

    stepped = (_stack_rows if runs else _lone_rows)(path, params, cfg.eta0, dt)
    start = 0  # the row block[0] holds
    with np.errstate(over="ignore", invalid="ignore"):
        # the generator steps only when asked for the next row, so the
        # last row is the last field evaluated
        for i, row in enumerate(stepped):
            block[i - start] = row
            if i == n_steps or i - start == _CHECK_ROWS - 1:
                done = block[:i + 1 - start]
                _check_bounded(done, start, dt)
                into, out = _kept_in(rows, start, i + 1)
                kept[into], kept[-1] = done[out], done[-1]
                if conv_tol is not None:
                    high = done[:, 3] ** 2 + done[:, 4] ** 2 > conv_tol
                    hits = np.flatnonzero(high.reshape(len(done), -1).any(axis=1))
                    above = start + int(hits[-1]) if hits.size else above
                start = i + 1
                if i == n_steps:
                    break

    x, y, theta, phi1, phi2 = np.moveaxis(kept, 1, 0)
    v1 = params.k1 * phi1 * phi1 + params.k2 * phi2 * phi2
    e_inst = phi1 * phi1 + phi2 * phi2 if truth is None else _squared_error(truth, x, y, theta)
    t = cfg.dt * np.append(np.arange(rows.start, rows.stop, rows.step), n_steps)
    columns = (t, x, y, theta, phi1, phi2, v1, e_inst)
    conv = None if conv_tol is None or above == n_steps else cfg.dt * (above + 1)
    return Trajectory(*(c[:-1] for c in columns), Trajectory(*(c[-1:] for c in columns)), conv)


def _lone_rows(path: TrigPath, params: GvfParams, eta0: FieldState, dt: float):
    """Yield the rows of one curve's run, ``(x, y, theta, phi1, phi2)`` as
    floats, taking one RK4 step before each but the first."""
    h, sixth = 0.5 * dt, dt / 6.0
    x, y, th = float(eta0.x), float(eta0.y), float(eta0.theta)
    while True:
        s = (x, y, th)
        phi, _, (a1, a2, a3) = _field_terms(path, s, params)
        yield s + phi
        b1, b2, b3 = _field_terms(path, (x + h * a1, y + h * a2, th + h * a3), params)[2]
        c1, c2, c3 = _field_terms(path, (x + h * b1, y + h * b2, th + h * b3), params)[2]
        d1, d2, d3 = _field_terms(path, (x + dt * c1, y + dt * c2, th + dt * c3), params)[2]
        x = x + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
        y = y + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
        th = th + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)


def _stack_rows(path: TrigPath, params: GvfParams, eta0: FieldState, dt: float):
    """Yield the rows of a stack's run, one (5, R) block of x, y, theta, phi1
    and phi2 that the next step overwrites, taking one RK4 step before each
    but the first.

    Every formula is the lone curve's, applied to the (3, R) state as one
    block in the same operations and order, written into buffers made here:
    a stage's input ``s + h*f`` and the step ``s + dt/6*(((a + 2b) + 2c) + d)``.
    """
    work = _FieldWork(path)
    s, acc, tmp = np.empty((3, *work.state.shape))
    s[...] = np.array([[eta0.x], [eta0.y], [eta0.theta]], dtype=np.float64)
    # the field's input; its offsets follow it in work.point
    stage = work.state
    # numpy scales an array by a 0-d array faster than by a float, and
    # parses out passed positionally faster than by keyword
    h, sixth = np.array(0.5 * dt), np.array(dt / 6.0)
    # each later stage's (step to its input, weight in the update); 1.0*d is d
    stages = ((h, np.array(2.0)), (h, np.array(2.0)), (np.array(dt), np.array(1.0)))
    while True:
        stage[...] = s
        # each stage's field is written over the last one's, in work.chi
        f = _field_terms(path, stage, params, work)[2]
        yield work.point
        acc[...] = f
        for step, weight in stages:
            np.multiply(step, f, stage)
            np.add(s, stage, stage)
            f = _field_terms(path, stage, params, work)[2]
            np.multiply(weight, f, tmp)
            np.add(acc, tmp, acc)
        np.multiply(sixth, acc, acc)
        np.add(s, acc, s)


def transient_bound(v1_0, k1, k2, t):
    """``v1_0*exp(-2*min(k1, k2)*t)``: the most V1 can be at time t of a run
    that starts at V1 = v1_0, for any curve and start, in exact arithmetic.

    Along the field dV1/dt = -2|u|^2 - 2(u.c')^2 <= -2*min(k1, k2)*V1, with
    u = (k1*phi1, k2*phi2) and c' the tangent, so the comparison lemma
    (Khalil, Nonlinear Systems, 3rd ed., Lemma 3.4) bounds V1 by this
    exponential.  ``t`` may be an array; a negative or non-finite input
    raises ValueError.
    """
    for name, value in (("v1_0", v1_0), ("k1", k1), ("k2", k2), ("t", t)):
        if not np.all(np.isfinite(value) & (np.asarray(value) >= 0)):
            raise ValueError(f"{name} must be finite and >= 0")
    return v1_0 * np.exp(-2 * min(k1, k2) * t)


def _kept_in(rows: range, start: int, stop: int) -> tuple[slice, slice]:
    """Where the rows of ``rows`` from ``start`` to ``stop - 1`` go in the kept
    array, and where they sit in a block whose first row is ``start``."""
    lo, hi = (len(range(rows.start, min(r, rows.stop), rows.step)) for r in (start, stop))
    inside = rows[lo:hi]
    return slice(lo, hi), slice(inside.start - start, inside.stop - start, inside.step)


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
