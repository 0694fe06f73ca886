"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ``ACCEPTANCE nn name: PASS/FAIL`` line with its
measured numbers (run pytest with -s to watch them live).

One check is expected to FAIL and is kept failing on purpose: the
closed-form error bound's noise term ``2*pi*(m^2/N^2)*(sigma1^2+sigma2^2)``
understates the true expected passband noise energy
``2*pi*(kept indices)*(sigma1^2+sigma2^2)/N`` whenever m < N, so on
datasets with (near-)zero out-of-window energy the certified inequality is
mathematically false.  Criterion 06 pins exactly such configurations;
weakening it would hide the defect, so it is implemented as stated and
left red until the bound itself changes.  Criterion 07 checks, by
Monte-Carlo, the exact passband noise that the bound's term should equal.
``certify`` still demonstrably holds the bound on data with a genuine
spectral tail (see test_analysis).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from fourierpath import (
    FieldState,
    GvfParams,
    NoiseSpec,
    SimConfig,
    add_noise,
    apply_window,
    certify,
    convergence_time,
    dft,
    f_backward,
    integrate,
    lyapunov_rate,
    make_trig_path,
    p_bar,
    reconstruction_mse,
    select_window,
    synth_path,
    tail_energy,
    verify_nonsingular,
)
from fourierpath.analysis import expected_passband_noise
from fourierpath.fft import fft

from conftest import decaying_spectrum, random_path
from oracles import (
    expected_passband_noise_by_enumeration,
    naive_dft,
    p_bar_sweep_by_entry_order,
    partial_sum,
)

TWO_PI = 2.0 * np.pi
UNIT = GvfParams(1.0, 1.0)
BOX = ((-3.0, 3.0), (-3.0, 3.0), (0.0, TWO_PI))


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _five_paths():
    return [
        make_trig_path(dft(synth_path("circle", 64, [1.0]))),
        make_trig_path(dft(synth_path("ellipse", 64, [2.0, 1.0]))),
        make_trig_path(apply_window(dft(synth_path("lissajous", 128, [3, 2])), 9)),
        make_trig_path(decaying_spectrum(101, seed=11)),
        make_trig_path(apply_window(decaying_spectrum(758, seed=12), 100)),
    ]


def test_criterion_01_fft_matches_naive_dft():
    start = time.perf_counter()
    worst = 0.0
    for n in list(range(2, 65)) + [379, 758]:
        rng = np.random.default_rng(n)
        for _ in range(10):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = naive_dft(x)
            err = np.linalg.norm(fft(x) - want) / np.linalg.norm(want)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, "fft-vs-naive-dft", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_full_spectrum_interpolation():
    start = time.perf_counter()
    ps = synth_path("lissajous", 758, [3, 2])
    path = make_trig_path(dft(ps))
    th = TWO_PI * np.arange(758) / 758
    x, y = path.eval(th)
    worst = float(np.max(np.hypot(x - ps.x, y - ps.y)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    _report(2, "interpolation-through-samples", ok, f"max err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_03_non_singularity_sweep():
    start = time.perf_counter()
    per_path = 20_000
    min_norm = np.inf
    zero_states = 0
    cert_failures = 0
    cert_states = 0
    for i, path in enumerate(_five_paths()):
        report = verify_nonsingular(
            path, GvfParams(1.0 + 0.5 * i, 1.0), BOX, per_path, rng_seed=100 + i
        )
        min_norm = min(min_norm, report.min_field_norm)
        zero_states += len(report.zero_field_states)
        cert_states += report.certificate_states
        cert_failures += len(report.certificate_failures)
    elapsed = time.perf_counter() - start
    ok = zero_states == 0 and cert_failures == 0 and elapsed < 10.0
    _report(
        3,
        "non-singular-field",
        ok,
        f"{5 * per_path} states, min |chi| {min_norm:.3g}, "
        f"{cert_states} vanishing-row states checked, {elapsed:.2f}s",
    )
    assert zero_states == 0
    assert cert_failures == 0
    assert cert_states > 0
    assert elapsed < 10.0


def test_criterion_04_lyapunov_decrease():
    configs = [
        (make_trig_path(dft(synth_path("circle", 64, [1.0]))), GvfParams(1.0, 1.0),
         FieldState(2.0, 0.0, 0.0)),
        (make_trig_path(dft(synth_path("circle", 64, [1.0]))), GvfParams(2.0, 0.5),
         FieldState(-1.0, 2.0, 0.7)),
        (make_trig_path(dft(synth_path("ellipse", 64, [2.0, 1.0]))), GvfParams(1.0, 3.0),
         FieldState(3.0, -2.0, 0.0)),
        (make_trig_path(apply_window(dft(synth_path("lissajous", 128, [3, 2])), 9)),
         GvfParams(1.0, 1.0), FieldState(0.5, 0.5, 0.0)),
        (make_trig_path(apply_window(decaying_spectrum(128, seed=5), 24)),
         GvfParams(1.5, 1.5), FieldState(-1.0, 2.0, 0.0)),
    ]
    worst_step = -np.inf
    for path, params, eta0 in configs:
        traj = integrate(path, params, SimConfig(eta0, duration=6.0, dt=1e-3))
        slack = np.diff(traj.v1) - 1e-9 * (1.0 + traj.v1[:-1])
        worst_step = max(worst_step, float(np.max(slack)))
    rng = np.random.default_rng(77)
    worst_rate = -np.inf
    paths = _five_paths()
    for _ in range(10_000):
        path = paths[rng.integers(len(paths))]
        state = FieldState(*rng.uniform(-3, 3, 2), rng.uniform(0.0, TWO_PI))
        worst_rate = max(worst_rate, lyapunov_rate(path, state, UNIT))
    ok = worst_step <= 0.0 and worst_rate <= 1e-12
    _report(
        4,
        "lyapunov-decrease",
        ok,
        f"worst per-step slack {worst_step:.2e}, worst rate {worst_rate:.2e}",
    )
    assert worst_step <= 0.0
    assert worst_rate <= 1e-12


def test_criterion_05_circle_convergence(unit_epicycle):
    start = time.perf_counter()
    cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=10.0, dt=1e-3)
    traj = integrate(unit_epicycle, UNIT, cfg)
    t_conv = convergence_time(traj, 1e-4)
    elapsed = time.perf_counter() - start
    ok = t_conv is not None and t_conv <= 10.0 and elapsed < 2.0
    _report(5, "circle-convergence", ok,
            f"t_conv {t_conv if t_conv is None else round(t_conv, 3)}s, {elapsed:.2f}s")
    assert t_conv is not None
    assert t_conv <= 10.0
    assert elapsed < 2.0


def test_criterion_06_bound_certification():
    """Expected to FAIL: see the module docstring.

    Both pinned datasets concentrate their spectrum far inside the window,
    so the certified ceiling reduces to the closed-form noise term, which
    sits below the true expected error by |kept|*N/(2*pi*m^2).
    """
    start = time.perf_counter()
    scenarios = [
        ("circle-256/m8", synth_path("circle", 256, [1.0]),
         NoiseSpec(0.05, 0.05, 2024), 8),
        ("lissajous-758/m100", synth_path("lissajous", 758, [3, 2]),
         NoiseSpec(0.1, 0.15, 2024), 100),
    ]
    cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=20.0, dt=2e-3)
    results = []
    for label, clean, noise, m in scenarios:
        report = certify(clean, noise, m, UNIT, cfg, runs=20)
        # diagnostic only: the bound with its noise term replaced by the
        # exact expected passband noise
        exact = expected_passband_noise(
            clean.n_samples, m, noise.sigma1, noise.sigma2
        ) + TWO_PI * tail_energy(dft(clean), m)
        results.append((label, report, exact))
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"{label}: e_ms {rep.e_ms_final:.4g} vs bound {rep.delta:.4g} "
        f"(exact noise + tail {exact:.4g})"
        for label, rep, exact in results
    )
    ok = all(rep.passed for _, rep, _ in results) and elapsed < 300.0
    _report(6, "ultimate-error-bound", ok, f"{detail}, {elapsed:.1f}s")
    assert elapsed < 300.0
    for label, rep, exact in results:
        assert rep.e_ms_final <= rep.delta, (
            f"{label}: measured ultimate mean-square error {rep.e_ms_final:.6g} "
            f"exceeds the closed-form bound {rep.delta:.6g} "
            f"(exact expected passband noise + 2*pi*tail: {exact:.6g})"
        )


def test_criterion_07_passband_noise_term():
    """The passband noise that the closed-form term should equal.

    Every kept coefficient carries noise power (s1^2+s2^2)/N, so the
    Monte-Carlo mean of the integrated in-window noise energy equals
    2*pi*|kept|*(s1^2+s2^2)/N, and ``expected_passband_noise`` must return
    that value.  The closed-form term 2*pi*(m^2/N^2)*(s1^2+s2^2) of p_bar
    is printed beside it: it is smaller for every m < N, which is why
    criterion 06 fails.
    """
    start = time.perf_counter()
    runs = 200
    margin = 3.0 / np.sqrt(runs)
    results = []
    for (n, m, s1, s2, kind, pars) in [
        (256, 8, 0.05, 0.05, "circle", [1.0]),
        (758, 100, 0.1, 0.15, "lissajous", [3, 2]),
    ]:
        clean = synth_path(kind, n, pars)
        clean_spec = dft(clean)
        seeds = np.random.SeedSequence(99).generate_state(runs, dtype=np.uint64)
        quad = 512
        th = TWO_PI * np.arange(quad) / quad
        values = []
        for sd in seeds:
            w = apply_window(dft(add_noise(clean, NoiseSpec(s1, s2, int(sd)))), m)
            pos = np.searchsorted(clean_spec.k, w.k)
            diff = w.a - clean_spec.a[pos]
            gap = partial_sum(w.k, diff, th)
            values.append(float((TWO_PI / quad) * np.sum(np.abs(gap) ** 2)))
            # quadrature agrees with the coefficient-energy identity
            assert values[-1] == pytest.approx(
                TWO_PI * float(np.sum(np.abs(diff) ** 2)), rel=1e-9
            )
        mc_mean = float(np.mean(values))
        exact = expected_passband_noise_by_enumeration(n, m, s1, s2)
        program = expected_passband_noise(n, m, s1, s2)
        term = TWO_PI * (m * m) / (n * n) * (s1**2 + s2**2)
        results.append((n, m, mc_mean, exact, program, term))
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"N={n},m={m}: mean {mc:.4g} vs exact {ex:.4g} (paper term {t:.4g})"
        for n, m, mc, ex, _, t in results
    )
    ok = (
        all(abs(mc - ex) <= margin * ex for _, _, mc, ex, _, _ in results)
        and all(pr == pytest.approx(ex, rel=1e-12) for _, _, _, ex, pr, _ in results)
        and elapsed < 60.0
    )
    _report(7, "passband-noise-term", ok, f"{detail}, {elapsed:.1f}s")
    assert elapsed < 60.0
    for n, m, mc_mean, exact, program, _ in results:
        assert program == pytest.approx(exact, rel=1e-12), (
            f"N={n}, m={m}: expected_passband_noise {program:.6g} differs "
            f"from the enumerated value {exact:.6g}"
        )
        assert abs(mc_mean - exact) <= margin * exact, (
            f"N={n}, m={m}: Monte-Carlo mean {mc_mean:.6g} differs from the "
            f"exact passband noise {exact:.6g} by more than {margin:.3g} of it"
        )


def test_criterion_08_mse_equals_coefficient_gap():
    worst = 0.0
    for seed in range(20):
        n = int(np.random.default_rng(seed).integers(16, 64))
        spec = dft(random_path(n, seed=seed))
        m = max(1, n // 3)
        w = apply_window(spec, m)
        truth = make_trig_path(spec)
        approx = make_trig_path(w)
        kept = set(w.k.tolist())
        gap = sum(
            abs(spec.coefficient(int(k)) - (w.coefficient(int(k)) if int(k) in kept else 0j)) ** 2
            for k in spec.k
        )
        got = reconstruction_mse(truth, approx)
        want = TWO_PI * gap
        worst = max(worst, abs(got - want) / max(want, 1e-30))
    ok = worst <= 1e-9
    _report(8, "mse-coefficient-identity", ok, f"max rel err {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_09_backward_differences_and_window_choice():
    worst = 0.0
    s1, s2 = 0.04, 0.07
    for n, seed in ((511, 1), (512, 2)):
        spec = decaying_spectrum(n, seed=seed, scale=0.3)
        base = p_bar(spec, 1, s1, s2)
        total = 0.0
        for m in range(2, n + 1):
            total += f_backward(spec, m, s1, s2)
            worst = max(worst, abs(total - (p_bar(spec, m, s1, s2) - base)))
        sweep = p_bar_sweep_by_entry_order(spec.k, spec.a, n, s1, s2, n)
        for m_max in (32, 257, n):
            got_m, got_val = select_window(spec, s1, s2, m_max)
            want_m = int(np.argmin(sweep[:m_max])) + 1
            assert got_m == want_m
            assert got_val == pytest.approx(float(sweep[want_m - 1]), rel=1e-12)
    ok = worst <= 1e-12
    _report(9, "bound-differences-telescope", ok, f"max telescoping gap {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_10_rk4_order(unit_epicycle):
    def final_state(dt):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=2.0, dt=dt)
        traj = integrate(unit_epicycle, UNIT, cfg)
        return np.array([traj.x[-1], traj.y[-1], traj.theta[-1]])

    dt = 0.04
    reference = final_state(dt / 16)
    e1 = np.linalg.norm(final_state(dt) - reference)
    e2 = np.linalg.norm(final_state(dt / 2) - reference)
    ratio = e1 / e2
    ok = 8.0 <= ratio <= 32.0
    _report(10, "rk4-order", ok, f"error ratio {ratio:.2f}")
    assert 8.0 <= ratio <= 32.0


def test_criterion_11_certification_is_deterministic():
    clean = synth_path("circle", 64, [1.0])
    kwargs = dict(
        noise=NoiseSpec(0.05, 0.05, 123456789),
        m=6,
        params=UNIT,
        cfg=SimConfig(FieldState(2.0, 0.0, 0.0), duration=5.0, dt=1e-3),
        runs=5,
    )
    blobs = []
    for _ in range(2):
        report = certify(clean, **kwargs)
        blobs.append(
            json.dumps(dataclasses.asdict(report), sort_keys=True).encode()
        )
    ok = blobs[0] == blobs[1]
    _report(11, "deterministic-reports", ok, f"{len(blobs[0])} bytes compared")
    assert blobs[0] == blobs[1]
