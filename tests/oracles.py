"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (quadratic
transforms, explicit index enumeration, finite differences) and must stay
independent of the package's own code paths.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
EPS = np.finfo(np.float64).eps


def naive_dft(c):
    """Quadratic-time unnormalized transform via the full outer-product matrix."""
    c = np.asarray(c, dtype=np.complex128)
    n = c.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ c


def naive_coefficients(c):
    """Quadratic-time transform with the 1/N factor on the forward side."""
    return naive_dft(c) / len(c)


def signed_indices(n):
    """Shifted index layout: unsigned bin k maps to k for k <= n//2, else k-n."""
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n)


def window_members(width):
    """Enumerate the symmetric signed window: k belongs iff 2*|k| <= width."""
    return [k for k in range(-width, width + 1) if 2 * abs(k) <= width]


def partial_sum(ks, avals, theta):
    """Direct evaluation of sum a_k * exp(1j*k*theta)."""
    theta = np.asarray(theta, dtype=np.float64)
    ang = np.multiply.outer(theta, np.asarray(ks, dtype=np.float64))
    return np.exp(1j * ang) @ np.asarray(avals, dtype=np.complex128)


def tail_energy_by_enumeration(kvals, avals, width):
    """Out-of-window energy via explicit membership tests."""
    members = set(window_members(width))
    return float(sum(abs(a) ** 2 for k, a in zip(kvals, avals) if int(k) not in members))


def p_bar_reference(kvals, avals, n, m, sigma1, sigma2):
    """Bound recomputed from scratch: noise term plus enumerated tail."""
    noise = TWO_PI * (m * m) / (n * n) * (sigma1**2 + sigma2**2)
    return noise + TWO_PI * tail_energy_by_enumeration(kvals, avals, m)


def expected_passband_noise_by_enumeration(n, m, sigma1, sigma2):
    """Exact expected integrated noise energy the width-m window admits.

    With the 1/N forward transform, independent per-axis Gaussian noise
    gives every coefficient the power (sigma1^2+sigma2^2)/N, so the
    expectation is 2*pi times that power times the number of kept signed
    indices of an n-sample spectrum, counted here one by one.
    """
    kept = set(window_members(m)) & set(signed_indices(n).tolist())
    return TWO_PI * len(kept) * (sigma1**2 + sigma2**2) / n


def p_bar_sweep_by_entry_order(kvals, avals, n, sigma1, sigma2, m_max):
    """All bounds for m in 1..m_max via suffix sums over window entry order.

    Index k joins the window once the width reaches 2*|k|, so sorting the
    energies by that entry width and suffix-summing gives every tail at
    once -- a different computation shape from per-m enumeration.
    """
    entry = 2 * np.abs(np.asarray(kvals, dtype=np.int64))
    energy = np.abs(np.asarray(avals)) ** 2
    order = np.argsort(entry, kind="stable")
    entry_sorted = entry[order]
    suffix = np.concatenate((np.cumsum(energy[order][::-1])[::-1], [0.0]))
    ms = np.arange(1, m_max + 1)
    first_outside = np.searchsorted(entry_sorted, ms, side="right")
    tails = suffix[first_outside]
    return TWO_PI * (ms * ms) / (n * n) * (sigma1**2 + sigma2**2) + TWO_PI * tails


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def quadrature_curve_gap(truth_eval, approx_eval, points):
    """Rectangle-rule integral of the squared gap between two curve callables."""
    th = TWO_PI * np.arange(points) / points
    xt, yt = truth_eval(th)
    xa, ya = approx_eval(th)
    return float((TWO_PI / points) * np.sum((xt - xa) ** 2 + (yt - ya) ** 2))


def curve_sum_longdouble(ks, avals, theta):
    """(x, y, dx/dth, dy/dth) of sum a_k*exp(i*k*th) in extended precision.

    th is theta wrapped mod 2*pi in float64, the parameter a curve is
    documented to evaluate at; the angles k*th, the exponentials and the
    sums are then taken in ``np.clongdouble`` (a 64-bit mantissa on x86-64),
    so the result is the exact sum at that parameter to far below float64
    rounding.  Returns long double arrays of theta's shape.
    """
    th = np.mod(np.asarray(theta, dtype=np.float64), TWO_PI).astype(np.longdouble)
    k = np.asarray(ks, dtype=np.int64).astype(np.longdouble)
    a = np.asarray(avals, dtype=np.complex128).astype(np.clongdouble)
    e = np.exp(1j * np.multiply.outer(th, k))
    z, dz = (e * a).sum(axis=-1), (e * (1j * k * a)).sum(axis=-1)
    return z.real, z.imag, dz.real, dz.imag


def rounding_bounds(ks, avals):
    """4*eps*sum (1+|k|)*|a_k| for a point, with |k*a_k| for a derivative:
    the distance from the exact sum within which a float64 evaluation of
    (x, y, dx/dth, dy/dth) stays."""
    ka = np.abs(np.asarray(ks, dtype=np.float64))
    amp = np.abs(np.asarray(avals, dtype=np.complex128))
    point = 4 * EPS * np.sum((1 + ka) * amp)
    deriv = 4 * EPS * np.sum((1 + ka) * ka * amp)
    return np.array([point, point, deriv, deriv])


def gvf_field_reference(ks, avals, k1, k2, state):
    """The guiding field (chi_x, chi_y, chi_theta) at the (3, ...) states.

    Written out from the field's definition: with c(th) = sum a_k e^{i k th}
    (th wrapped mod 2*pi), phi = (x, y) - c and c' = sum i k a_k e^{i k th},
    chi = (c'_x - k1*phi1, c'_y - k2*phi2, 1 + k1*phi1*c'_x + k2*phi2*c'_y).
    """
    x, y, th = state
    k = np.asarray(ks, dtype=np.float64)
    a = np.asarray(avals, dtype=np.complex128)
    e = np.exp(1j * np.multiply.outer(np.mod(th, TWO_PI), k))
    c, dc = e @ a, e @ (1j * k * a)
    phi1, phi2 = x - c.real, y - c.imag
    return np.array((dc.real - k1 * phi1, dc.imag - k2 * phi2,
                     1.0 + k1 * phi1 * dc.real + k2 * phi2 * dc.imag))


def rk4_step_reference(ks, avals, k1, k2, state, dt, weights=(1.0, 2.0, 2.0, 1.0)):
    """One classic RK4 step of the guiding field from each (3, ...) state.

    ``weights`` are those of the four stages, over their sum; the default
    is the classic (1, 2, 2, 1)/6.
    """
    def f(s):
        return gvf_field_reference(ks, avals, k1, k2, s)

    state = np.asarray(state, dtype=np.float64)
    f1 = f(state)
    f2 = f(state + 0.5 * dt * f1)
    f3 = f(state + 0.5 * dt * f2)
    f4 = f(state + dt * f3)
    w1, w2, w3, w4 = weights
    return state + dt * (w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4) / sum(weights)
