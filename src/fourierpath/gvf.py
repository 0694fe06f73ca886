"""Guiding vector field on the (x, y, theta) state space.

The curve offsets are phi1 = x - x_curve(theta), phi2 = y - y_curve(theta);
their joint zero set is the lifted desired path.  The field is

    chi = [-d(phi1)/dth, -d(phi2)/dth, 1]
          - k1*phi1*[1, 0, d(phi1)/dth]
          - k2*phi2*[0, 1, d(phi2)/dth]

which points along the curve tangent on the path and contracts toward it
elsewhere.  Whenever the first two components vanish, the third equals
1 + d(phi1)/dth^2 + d(phi2)/dth^2 >= 1, so the field has no zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trigpath import TrigPath

__all__ = [
    "FieldState",
    "GvfParams",
    "NonSingularityReport",
    "lyapunov_rate",
    "verify_nonsingular",
]

# planar field components below this magnitude count as vanishing
VANISH_TOL = 1e-9
# where the planar components vanish the third must be >= 1; this allows
# for rounding in its evaluation
THIRD_COMPONENT_FLOOR = 1.0 - 1e-6


@dataclass(frozen=True)
class FieldState:
    """Augmented state: planar position plus unwrapped path parameter."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        for name in ("x", "y", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class GvfParams:
    """Positive contraction gains (units 1/m^2)."""

    k1: float
    k2: float

    def __post_init__(self):
        for name in ("k1", "k2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        # (k1, k2) as a column, which scales a stack's (2, R) offsets at once
        object.__setattr__(self, "_column", np.array([[self.k1], [self.k2]]))


@dataclass(eq=False)
class NonSingularityReport:
    """Outcome of randomized zero-vector sweep plus the vanishing-row check."""

    samples: int
    min_field_norm: float
    zero_field_states: list = field(default_factory=list)
    certificate_states: int = 0
    certificate_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.zero_field_states and not self.certificate_failures


def _field_terms(path: TrigPath, state, params: GvfParams):
    """Offsets, curve tangent and field at ``state``: ``(phi, (dxdt, dydt), chi)``.

    d(phi)/dth is minus the tangent, so with u = k*phi the field is
    (dxdt - u1, dydt - u2, 1 + u1*dxdt + u2*dydt).  One curve takes (x, y,
    theta) as floats or arrays and gives tuples; a stack of R curves takes a
    (3, R) array and gives (2, R), (2, R) and (3, R) blocks in the floats' order.
    """
    if path.a.ndim == 2:
        c = path.eval_with_deriv(state[2])
        phi, tangent, chi = state[:2] - c[:2], c[2:], np.empty(state.shape)
        u = params._column * phi
        np.subtract(tangent, u, out=chi[:2])
        ut = u * tangent
        np.add(1.0 + ut[0], ut[1], out=chi[2])
        return phi, tangent, chi
    x, y, theta = state
    px, py, dxdt, dydt = path.eval_with_deriv(theta)
    phi1 = x - px
    phi2 = y - py
    u1 = params.k1 * phi1
    u2 = params.k2 * phi2
    return (phi1, phi2), (dxdt, dydt), (dxdt - u1, dydt - u2, 1.0 + u1 * dxdt + u2 * dydt)


def lyapunov_rate(path: TrigPath, state: FieldState, params: GvfParams) -> float:
    """Time derivative of V1 = k1*phi1^2 + k2*phi2^2 along the field.

    Computed as grad(V1) . chi; it is <= 0 up to rounding at every state.
    """
    (phi1, phi2), (dxdt, dydt), (cx, cy, ct) = _field_terms(
        path, (state.x, state.y, state.theta), params
    )
    gx = 2.0 * params.k1 * phi1
    gy = 2.0 * params.k2 * phi2
    gth = -2.0 * (params.k1 * phi1 * dxdt + params.k2 * phi2 * dydt)
    return float(gx * cx + gy * cy + gth * ct)


def verify_nonsingular(
    path: TrigPath,
    params: GvfParams,
    box,
    samples: int,
    rng_seed: int,
) -> NonSingularityReport:
    """Randomized sweep for zero field vectors inside a state-space box.

    ``box`` is ((x_lo, x_hi), (y_lo, y_hi), (theta_lo, theta_hi)).  Besides
    the uniform samples, for every sampled theta the planar point where the
    first two field components vanish (up to rounding) is also checked, so the
    vanishing-row condition (third component >= 1) is genuinely exercised
    rather than only at states random sampling never hits.  A state counts
    toward that check when both planar components are below
    ``VANISH_TOL`` in magnitude, and fails it when its third component is
    below ``THIRD_COMPONENT_FLOOR``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    (xlo, xhi), (ylo, yhi), (tlo, thi) = box
    for lo, hi in ((xlo, xhi), (ylo, yhi), (tlo, thi)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("box bounds must be finite with lo <= hi")
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(xlo, xhi, samples)
    ys = rng.uniform(ylo, yhi, samples)
    ths = rng.uniform(tlo, thi, samples)

    report = NonSingularityReport(samples=samples, min_field_norm=math.inf)
    cx, cy, _ = _scan_states(path, params, xs, ys, ths, report)
    # companion states: moving x by cx/k1 and y by cy/k2 zeroes the planar rows
    _scan_states(path, params, xs + cx / params.k1, ys + cy / params.k2, ths, report)
    return report


def _scan_states(path, params, xs, ys, ths, report):
    """Record the field's norms and vanishing rows at the states; returns the field."""
    cx, cy, ct = chi = _field_terms(path, (xs, ys, ths), params)[2]
    norm = np.sqrt(cx * cx + cy * cy + ct * ct)
    report.min_field_norm = min(report.min_field_norm, float(norm.min()))
    for i in np.nonzero(norm == 0.0)[0]:
        report.zero_field_states.append(FieldState(xs[i], ys[i], ths[i]))
    near = (np.abs(cx) < VANISH_TOL) & (np.abs(cy) < VANISH_TOL)
    report.certificate_states += int(np.count_nonzero(near))
    for i in np.nonzero(near & (ct < THIRD_COMPONENT_FLOOR))[0]:
        report.certificate_failures.append(FieldState(xs[i], ys[i], ths[i]))
    return chi
