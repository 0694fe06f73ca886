"""Reconstruction-error functionals, the windowed error bound, and
Monte-Carlo certification of the ultimate path-following error.

The central quantity is the closed-form bound

    p_bar(m) = 2*pi*(m^2/N^2)*(sigma1^2 + sigma2^2)
             + 2*pi*sum(|a_k|^2 for k outside the width-m window)

whose first term models the noise admitted by the window and whose second
term is the spectral energy the window discards.  ``p_bar`` takes one
width or an array of widths, so ``window_sweep`` and ``select_window``
get the bound for every width in 1..m_max in one pass: the tails come
from a single sort of the spectrum by window entry width (see
``spectrum.tail_energy``).  ``certify`` measures the ultimate mean-square
following error, over the final 10% of the horizon, across noise seeds
and reports it against this bound.
``reconstruction_mse`` integrates the squared gap between two curves
exactly, by Parseval's identity, from their coefficients; no curve is
sampled.

Caveat, verified by the test suite: the noise term above understates the
true expected passband noise energy, which is
2*pi*(count of kept indices)*(sigma1^2+sigma2^2)/N, so for spectra with
little out-of-window energy the measured error can exceed p_bar.  The
bound is reported as defined; ``expected_passband_noise`` exposes the
exact value for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gvf import GvfParams
from .pathdata import NoiseSpec, PathSamples, add_noise
from .sim import IntegrationError, SimConfig, integrate
from .spectrum import Spectrum, apply_window, checked_widths, dft, tail_energy
from .trigpath import TrigPath

__all__ = [
    "ErrorReport",
    "reconstruction_mse",
    "p_bar",
    "f_backward",
    "select_window",
    "expected_passband_noise",
    "window_sweep",
    "certify",
]

TWO_PI = 2.0 * math.pi
# most kept rows (the final 10% of each run's) and most curve terms (K per
# run) one certify batch holds: at 56 B a kept row its arrays stay under
# 15 MB, and the complex R x K tables it forms at every step under 4 MB; a
# run past either bound goes alone
_ROW_BUDGET = 1 << 18


@dataclass(frozen=True)
class ErrorReport:
    """Certification bundle for one window width.

    * ``p_integral`` - mean over runs of the one-period integral of the
      squared curve-to-curve gap between the reference curve and the
      followed one, exact by Parseval's identity (see
      :func:`reconstruction_mse`).
    * ``p_bar`` / ``delta`` - the closed-form bound (delta is the certified
      ultimate ceiling and equals p_bar by definition).
    * ``f_backward`` - backward difference p_bar(m) - p_bar(m-1), None for
      m = 1.
    * ``e_ms_final`` - ensemble mean over runs of the trailing-window mean
      of the squared following error; ``e_ms_per_run`` holds the per-run
      values.
    """

    m: int
    p_integral: float
    p_bar: float
    f_backward: float | None
    e_ms_final: float
    delta: float
    e_ms_per_run: tuple[float, ...]
    runs: int

    @property
    def passed(self) -> bool:
        # the 1e-12 m^2 floor absorbs integrator residue when delta is
        # exactly zero (noise-free, full window); real configurations sit
        # many orders of magnitude above it
        return self.e_ms_final <= max(self.delta, 1e-12)


def reconstruction_mse(truth: TrigPath, approx: TrigPath) -> float:
    """Integral over one period of the squared gap between two curves.

    By Parseval's identity the integral is exactly
    2*pi*sum(|a_k^truth - a_k^approx|^2), so it comes from the curves'
    own coefficients alone.  Terms are matched by k; a k that only one
    curve has counts in full.
    """
    k = np.concatenate((truth.k, approx.k))
    a = np.concatenate((truth.a, -approx.a))
    ks, slot = np.unique(k, return_inverse=True)
    gap = np.zeros(ks.size, dtype=np.complex128)
    np.add.at(gap, slot, a)
    return float(TWO_PI * np.sum(np.abs(gap) ** 2))


def p_bar(
    spec: Spectrum,
    m: int | np.ndarray,
    sigma1: float,
    sigma2: float,
) -> float | np.ndarray:
    """Closed-form bound: window-admitted noise term plus discarded energy.

    ``m`` may be one width or an array of widths; an int width returns a
    float, an array of widths an array.  N is the spectrum's sample
    count; the tail is summed from whatever coefficients the supplied
    spectrum carries (clean ones when available, noisy ones otherwise).
    """
    _check_sigmas(sigma1, sigma2)
    n = spec.n_samples
    noise_term = TWO_PI * (m * m) / (n * n) * (sigma1**2 + sigma2**2)
    return noise_term + TWO_PI * tail_energy(spec, m)


def f_backward(spec: Spectrum, m: int, sigma1: float, sigma2: float) -> float:
    """Backward difference p_bar(m) - p_bar(m-1); needs m >= 2.

    Computed by direct subtraction: depending on parity, growing the
    window from m-1 to m admits either no new index or the pair at +-m/2,
    so a single-coefficient shortcut would be wrong.
    """
    if m < 2:
        raise ValueError("f_backward needs m >= 2")
    below, at = p_bar(spec, np.array([m - 1, m]), sigma1, sigma2)
    return float(at - below)


def select_window(
    spec: Spectrum,
    sigma1: float,
    sigma2: float,
    m_max: int,
) -> tuple[int, float]:
    """Width in 1..m_max minimizing p_bar; ties go to the smaller width."""
    values = p_bar(spec, _widths_up_to(spec, m_max), sigma1, sigma2)
    best = int(np.argmin(values))
    return best + 1, float(values[best])


def expected_passband_noise(n: int, m: int, sigma1: float, sigma2: float) -> float:
    """Exact expected integral of the in-window noise energy.

    The transform of white noise has per-coefficient power
    (sigma1^2+sigma2^2)/N, and the width-m window keeps 2*(m//2)+1 of the
    N stored indices (all N when m = N, which for even N excludes the
    unstored -N/2), so the integrated expectation is 2*pi times their
    product.  This is the quantity the closed-form noise term of
    :func:`p_bar` approximates.
    """
    _check_sigmas(sigma1, sigma2)
    checked_widths(m, n)
    kept = min(2 * (m // 2) + 1, n)
    return TWO_PI * kept * (sigma1**2 + sigma2**2) / n


def window_sweep(
    spec: Spectrum,
    sigma1: float,
    sigma2: float,
    m_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (m, p_bar, tail_energy) for m in 1..m_max; the backward
    differences f_backward are ``np.diff`` of the p_bar column."""
    ms = _widths_up_to(spec, m_max)
    return ms, p_bar(spec, ms, sigma1, sigma2), tail_energy(spec, ms)


def certify(
    clean: PathSamples,
    noise: NoiseSpec,
    m: int,
    params: GvfParams,
    cfg: SimConfig,
    runs: int,
) -> ErrorReport:
    """Monte-Carlo certification of the ultimate following error.

    Per run: perturb the clean data with a fresh seed, transform, window,
    follow the resulting curve from cfg.eta0, and average the squared
    error against the clean full reconstruction over the final 10% of the
    horizon, rows ceil(0.9*cfg.steps) to cfg.steps.  ``e_ms_final`` is the
    mean of those per-run values and is reported against delta = p_bar
    computed with the clean spectrum tail.
    ``p_integral`` is the mean over runs of :func:`reconstruction_mse`
    between the clean full reconstruction and the followed curve.

    The runs are integrated together, as one stack of curves (see
    :func:`~fourierpath.sim.integrate`), in batches of as many runs as fit
    in ``_ROW_BUDGET`` kept rows and ``_ROW_BUDGET`` curve terms, and at
    least one.  Each batch keeps only the averaged final-10% rows, and V1
    and the error against the reference curve are formed on those alone.
    Each run's value is the one integrating it alone gives, bit for bit.
    When a run diverges, :class:`IntegrationError` names it: of the first
    batch with a diverging run, the run that diverges first, ties going to
    the lowest index.

    Run seeds derive deterministically from ``noise.seed`` via numpy's
    SeedSequence, so a fixed master seed reproduces the report exactly.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    clean_spec = dft(clean)
    delta = p_bar(clean_spec, m, noise.sigma1, noise.sigma2)
    seeds = np.random.SeedSequence(int(noise.seed)).generate_state(runs, dtype=np.uint64)
    # counted in rows, so no rounding of t moves the first one kept
    tail = range(-(-9 * cfg.steps // 10), cfg.steps + 1)
    # a run keeps those rows, and its curve has the terms of the clean spectrum's window
    batch = max(1, _ROW_BUDGET // max(len(tail), apply_window(clean_spec, m).k.size))

    e_runs: list[float] = []
    p_runs: list[float] = []
    for first in range(0, runs, batch):
        noisy = (add_noise(clean, NoiseSpec(noise.sigma1, noise.sigma2, int(seed)))
                 for seed in seeds[first:first + batch])
        followed = [apply_window(dft(data), m) for data in noisy]
        # a lone run takes the one-curve loop, whose steps cost less
        stack = (TrigPath(followed[0].k, np.stack([path.a for path in followed]))
                 if len(followed) > 1 else followed[0])
        try:
            traj = integrate(stack, params, cfg, clean_spec, tail)
        except IntegrationError as exc:
            run = first + (exc.curve or 0)
            raise IntegrationError(exc.step, f"run {run}: {exc}", run) from exc
        # one contiguous row per run, averaged like a lone run's column
        e_tail = traj.e_inst.reshape(traj.n_rows, -1)
        e_runs.extend(float(np.mean(e)) for e in np.ascontiguousarray(e_tail.T))
        p_runs.extend(reconstruction_mse(clean_spec, path) for path in followed)

    fb = f_backward(clean_spec, m, noise.sigma1, noise.sigma2) if m >= 2 else None
    return ErrorReport(
        m=int(m),
        p_integral=float(np.mean(p_runs)),
        p_bar=delta,
        f_backward=fb,
        e_ms_final=float(np.mean(e_runs)),
        delta=delta,
        e_ms_per_run=tuple(e_runs),
        runs=runs,
    )


def _widths_up_to(spec: Spectrum, m_max: int) -> np.ndarray:
    return np.arange(1, int(checked_widths(m_max, spec.n_samples)) + 1)


def _check_sigmas(sigma1: float, sigma2: float) -> None:
    # NoiseSpec rejects what no noise term can use, with a ValueError
    NoiseSpec(sigma1, sigma2)
