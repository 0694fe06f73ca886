import numpy as np
import pytest

from fourierpath import (
    FieldState,
    GvfParams,
    IntegrationError,
    NoiseSpec,
    SimConfig,
    add_noise,
    apply_window,
    certify,
    analysis,
    dft,
    f_backward,
    integrate,
    p_bar,
    reconstruction_mse,
    select_window,
    synth_path,
    tail_energy,
    window_sweep,
)
from fourierpath.analysis import expected_passband_noise

from conftest import decaying_path, decaying_spectrum, random_path, sparse_spectrum
from oracles import (
    expected_passband_noise_by_enumeration,
    p_bar_reference,
    p_bar_sweep_by_entry_order,
    quadrature_curve_gap,
)

TWO_PI = 2.0 * np.pi
UNIT = GvfParams(1.0, 1.0)


class TestReconstructionMse:
    def test_identical_curves_give_zero(self):
        path = decaying_spectrum(32, seed=1)
        assert reconstruction_mse(path, path) <= 1e-12

    def test_unit_epicycle_against_nothing(self):
        truth = sparse_spectrum(8, {1: 1.0 + 0j})
        empty = sparse_spectrum(8, {})
        assert reconstruction_mse(truth, empty) == pytest.approx(TWO_PI, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_coefficient_energy_gap(self, seed):
        # the integral of the squared gap equals 2*pi times the summed
        # squared coefficient differences (orthogonality of harmonics)
        spec = dft(random_path(48, seed=seed))
        w = apply_window(spec, 10)
        truth = spec
        approx = w
        kept = set(w.k.tolist())
        gap = sum(
            abs(spec.coefficient(int(k)) - (w.coefficient(int(k)) if int(k) in kept else 0j)) ** 2
            for k in spec.k
        )
        assert reconstruction_mse(truth, approx) == pytest.approx(TWO_PI * gap, rel=1e-9)

    @pytest.mark.parametrize("truth_spec, approx_spec", [
        # the windowed 33-point curve keeps a subset of the 48-point terms
        (dft(random_path(48, seed=0)), apply_window(dft(random_path(33, seed=1)), 9)),
        # and here a superset
        (apply_window(dft(random_path(48, seed=2)), 10), dft(random_path(33, seed=3))),
        # each curve has terms the other lacks
        (sparse_spectrum(48, {-20: 1 - 0.5j, 0: 0.3 + 0j, 3: 2j, 24: -0.7 + 0j}),
         apply_window(dft(random_path(33, seed=4)), 9)),
        (dft(random_path(48, seed=5)), sparse_spectrum(33, {})),
        (sparse_spectrum(48, {}), dft(random_path(33, seed=6))),
        (sparse_spectrum(48, {}), sparse_spectrum(33, {})),
    ])
    def test_matches_quadrature_of_the_gap(self, truth_spec, approx_spec):
        # no term is above |k| = 24, so the squared gap has no harmonic
        # above 48 and the 128-point rectangle rule integrates it exactly
        truth = truth_spec
        approx = approx_spec
        want = quadrature_curve_gap(truth.eval, approx.eval, 128)
        assert reconstruction_mse(truth, approx) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestPBar:
    def test_zero_noise_full_window_is_zero(self):
        spec = dft(random_path(32, seed=0))
        assert p_bar(spec, 32, 0.0, 0.0) == 0.0

    def test_single_out_of_window_harmonic(self):
        spec = sparse_spectrum(9, {2: 1.0 + 0j})
        assert p_bar(spec, 2, 0.0, 0.0) == pytest.approx(TWO_PI)

    def test_noise_term_arithmetic(self):
        # zero tail, so only the closed-form noise term remains
        spec = sparse_spectrum(758, {1: 1.0 + 0j})
        value = p_bar(spec, 100, 0.1, 0.15)
        want = TWO_PI * (100 / 758) ** 2 * (0.1**2 + 0.15**2)
        assert value == pytest.approx(want, rel=1e-12)
        assert value == pytest.approx(0.0035540, abs=5e-7)

    @pytest.mark.parametrize("n,m", [(64, 7), (65, 10), (128, 1)])
    def test_matches_reference(self, n, m):
        spec = dft(random_path(n, seed=n))
        want = p_bar_reference(spec.k, spec.a, n, m, 0.2, 0.3)
        assert p_bar(spec, m, 0.2, 0.3) == pytest.approx(want, rel=1e-12)

    def test_negative_sigma_rejected(self):
        spec = dft(random_path(16, seed=2))
        with pytest.raises(ValueError):
            p_bar(spec, 4, -0.1, 0.0)

    @pytest.mark.parametrize("sigma1,sigma2", [(2e154, 0.0), (1e154, 1e154)])
    def test_overflowing_noise_power_rejected(self, sigma1, sigma2):
        # sigma1**2 would raise OverflowError where sigma1*sigma1 gives inf
        spec = dft(random_path(16, seed=2))
        with pytest.raises(ValueError, match="finite"):
            p_bar(spec, 4, sigma1, sigma2)
        with pytest.raises(ValueError, match="finite"):
            expected_passband_noise(16, 4, sigma1, sigma2)


class TestFBackward:
    def test_requires_width_two(self):
        spec = dft(random_path(16, seed=3))
        with pytest.raises(ValueError):
            f_backward(spec, 1, 0.1, 0.1)

    def test_pure_noise_growth_is_positive(self):
        # all energy inside the smallest window: growing it only adds noise
        spec = sparse_spectrum(64, {0: 1.0 + 0j})
        assert all(f_backward(spec, m, 1.0, 1.0) > 0 for m in range(2, 65))

    def test_large_entering_coefficient_makes_it_negative(self):
        spec = sparse_spectrum(64, {0: 1.0 + 0j, 2: 3.0 + 0j})
        # the +-2 pair enters the window at width 4
        assert f_backward(spec, 4, 0.01, 0.01) < 0

    def test_zero_noise_never_positive(self):
        spec = dft(random_path(64, seed=4))
        assert all(f_backward(spec, m, 0.0, 0.0) <= 0 for m in range(2, 65))

    def test_differences_telescope(self):
        spec = dft(random_path(64, seed=5, scale=0.1))
        for m in (2, 17, 40, 64):
            total = sum(f_backward(spec, i, 0.05, 0.02) for i in range(2, m + 1))
            direct = p_bar(spec, m, 0.05, 0.02) - p_bar(spec, 1, 0.05, 0.02)
            assert total == pytest.approx(direct, abs=1e-12)


class TestSelectWindow:
    def test_zero_noise_prefers_the_widest_window(self):
        spec = dft(random_path(48, seed=6))
        m_star, value = select_window(spec, 0.0, 0.0, 48)
        assert m_star == 48
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_low_frequency_spectrum_with_noise_prefers_narrow(self):
        spec = sparse_spectrum(256, {0: 1.0 + 0j, 1: 0.5 + 0j})
        m_star, _ = select_window(spec, 0.5, 0.5, 256)
        assert m_star <= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exhaustive_reference(self, seed):
        spec = dft(random_path(96, seed=seed, scale=0.3))
        sweep = p_bar_sweep_by_entry_order(spec.k, spec.a, 96, 0.04, 0.07, 96)
        want_m = int(np.argmin(sweep)) + 1
        got_m, got_val = select_window(spec, 0.04, 0.07, 96)
        assert got_m == want_m
        assert got_val == pytest.approx(float(sweep[want_m - 1]), rel=1e-12)

    def test_window_sweep_table_is_consistent(self):
        spec = dft(random_path(32, seed=9))
        ms, bounds, tails = window_sweep(spec, 0.1, 0.2, 32)
        assert ms.tolist() == list(range(1, 33))
        assert bounds.shape == tails.shape == ms.shape
        for m, value, tail in zip(ms.tolist(), bounds, tails):
            assert value == pytest.approx(p_bar(spec, m, 0.1, 0.2), rel=1e-15)
            assert tail == pytest.approx(tail_energy(spec, m), rel=1e-15)
            if m >= 2:
                # the f_backward column sweep.csv writes, np.diff of this one
                assert value - bounds[m - 2] == pytest.approx(f_backward(spec, m, 0.1, 0.2),
                                                              abs=1e-15)


class TestPassbandNoise:
    def test_exact_expectation_matches_monte_carlo(self):
        # window-admitted noise energy: per-coefficient power is
        # (s1^2+s2^2)/N, and the width-m window keeps 2*(m//2)+1 bins
        n, m, s1, s2 = 128, 12, 0.3, 0.4
        clean = synth_path("circle", n, [1.0])
        clean_spec = dft(clean)
        vals = []
        for seed in range(150):
            noisy = dft(add_noise(clean, NoiseSpec(s1, s2, seed)))
            w = apply_window(noisy, m)
            gap = sum(
                abs(w.coefficient(int(k)) - clean_spec.coefficient(int(k))) ** 2
                for k in w.k
            )
            vals.append(TWO_PI * gap)
        expected = expected_passband_noise(n, m, s1, s2)
        assert np.mean(vals) == pytest.approx(expected, rel=0.15)


    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in (4, 5, 6, 7) for m in range(1, n + 1)]
    )
    def test_matches_enumerated_kept_count(self, n, m):
        # for even n and m = n the window reaches index -n/2, which an
        # n-sample spectrum does not store
        want = expected_passband_noise_by_enumeration(n, m, 1.0, 0.5)
        assert expected_passband_noise(n, m, 1.0, 0.5) == pytest.approx(want, rel=1e-12)

    def test_width_beyond_sample_count_rejected(self):
        with pytest.raises(ValueError):
            expected_passband_noise(4, 5, 1.0, 0.0)


class TestCertify:
    def test_zero_noise_full_window_is_perfect(self):
        clean = synth_path("circle", 64, [1.0])
        report = certify(
            clean,
            NoiseSpec(0.0, 0.0, 1),
            m=64,
            params=UNIT,
            cfg=SimConfig(FieldState(1.5, 0.0, 0.0), duration=10.0, dt=1e-3),
            runs=2,
        )
        assert report.delta == 0.0
        assert report.p_integral <= 1e-9
        # scheme residue only; the pass flag tolerates it via its noise floor
        assert report.e_ms_final < 1e-6
        assert report.passed

    def test_full_window_bound_holds_structurally(self):
        # keeping the whole noisy spectrum: the measured ultimate error is
        # the total noise power, while the bound is 2*pi times it
        clean = synth_path("circle", 64, [1.0])
        report = certify(
            clean,
            NoiseSpec(0.1, 0.1, 77),
            m=64,
            params=UNIT,
            cfg=SimConfig(FieldState(2.0, 0.0, 0.0), duration=6.0, dt=1e-3),
            runs=10,
        )
        assert report.passed
        sigma_sq = 0.1**2 + 0.1**2
        assert report.delta == pytest.approx(TWO_PI * sigma_sq, rel=1e-12)
        assert report.e_ms_final == pytest.approx(sigma_sq, rel=0.35)

    def test_bound_holds_on_tail_rich_data(self):
        # dominant low frequencies plus a genuine high-frequency tail: the
        # discarded-energy term dominates the bound and the inequality holds
        clean = decaying_path(128, seed=42)
        report = certify(
            clean,
            NoiseSpec(0.02, 0.02, 1234),
            m=10,
            params=UNIT,
            cfg=SimConfig(FieldState(-1.0, 2.0, 0.0), duration=8.0, dt=2e-3),
            runs=10,
        )
        assert report.passed
        assert report.e_ms_final > 0
        assert report.delta / report.e_ms_final > 2.0

    def test_report_is_deterministic_per_master_seed(self):
        clean = synth_path("circle", 48, [1.0])
        kwargs = dict(
            noise=NoiseSpec(0.05, 0.08, 31337),
            m=6,
            params=UNIT,
            cfg=SimConfig(FieldState(2.0, 0.0, 0.0), duration=4.0, dt=2e-3),
            runs=4,
        )
        a = certify(clean, **kwargs)
        b = certify(clean, **kwargs)
        assert a == b
        assert a.e_ms_per_run == b.e_ms_per_run

    def test_small_width_report_has_no_backward_difference(self):
        clean = synth_path("circle", 32, [1.0])
        report = certify(
            clean,
            NoiseSpec(0.01, 0.01, 5),
            m=1,
            params=UNIT,
            cfg=SimConfig(FieldState(1.0, 0.0, 0.0), duration=2.0, dt=1e-2),
            runs=2,
        )
        assert report.f_backward is None
        report2 = certify(
            clean,
            NoiseSpec(0.01, 0.01, 5),
            m=4,
            params=UNIT,
            cfg=SimConfig(FieldState(1.0, 0.0, 0.0), duration=2.0, dt=1e-2),
            runs=2,
        )
        assert report2.f_backward is not None

    # lissajous-64 runs windowed to m = 16, all sharing one set of terms
    LISSAJOUS = synth_path("lissajous", 64, [3, 2])

    def lone_runs(self, noise, runs, params, cfg):
        """(followed curve, trajectory or IntegrationError) of each run alone."""
        truth = dft(self.LISSAJOUS)
        seeds = np.random.SeedSequence(noise.seed).generate_state(runs, dtype=np.uint64)
        for seed in seeds:
            noisy = add_noise(self.LISSAJOUS, NoiseSpec(noise.sigma1, noise.sigma2, int(seed)))
            followed = apply_window(dft(noisy), 16)
            try:
                yield followed, integrate(followed, params, cfg, truth=truth)
            except IntegrationError as exc:
                yield followed, exc

    def test_each_run_matches_a_lone_integration(self):
        noise = NoiseSpec(0.1, 0.15, 99)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=2.0, dt=2e-3)
        report = certify(self.LISSAJOUS, noise, 16, UNIT, cfg, runs=3)
        truth = dft(self.LISSAJOUS)
        lone = list(self.lone_runs(noise, 3, UNIT, cfg))
        tail = lone[0][1].t >= 0.9 * cfg.duration - 1e-12
        assert report.e_ms_per_run == tuple(float(np.mean(traj.e_inst[tail]))
                                            for _, traj in lone)
        assert report.p_integral == float(np.mean(
            [reconstruction_mse(truth, followed) for followed, _ in lone]))

    def test_batches_of_runs_give_the_same_report(self, monkeypatch):
        kwargs = dict(noise=NoiseSpec(0.1, 0.15, 5), m=16, params=UNIT,
                      cfg=SimConfig(FieldState(-1.0, 2.0, 0.0), duration=10.0, dt=1e-2),
                      runs=5)
        whole = certify(self.LISSAJOUS, **kwargs)
        # 101 kept rows a run: a budget of 250 rows makes batches of 2, 2 and 1 runs
        monkeypatch.setattr(analysis, "_ROW_BUDGET", 250)
        batches = []

        def spy(path, *args, **kw):
            batches.append(path.a.shape[:-1])
            return integrate(path, *args, **kw)

        monkeypatch.setattr(analysis, "integrate", spy)
        assert certify(self.LISSAJOUS, **kwargs) == whole
        assert batches == [(2,), (2,), ()]

    def test_batches_are_bounded_by_curve_terms_too(self, monkeypatch):
        kwargs = dict(noise=NoiseSpec(0.1, 0.15, 5), m=16, params=UNIT,
                      cfg=SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.1, dt=1e-2),
                      runs=5)
        whole = certify(self.LISSAJOUS, **kwargs)
        # 2 kept rows but 17 terms a run: a budget of 40 holds the rows of 20
        # runs and the terms of 2, so the batches are 2, 2 and 1 runs
        monkeypatch.setattr(analysis, "_ROW_BUDGET", 40)
        batches = []

        def spy(path, *args, **kw):
            batches.append(path.a.shape[:-1])
            return integrate(path, *args, **kw)

        monkeypatch.setattr(analysis, "integrate", spy)
        assert certify(self.LISSAJOUS, **kwargs) == whole
        assert batches == [(2,), (2,), ()]

    def test_batches_are_sized_by_the_rows_they_keep(self, monkeypatch):
        kwargs = dict(noise=NoiseSpec(0.1, 0.15, 5), m=16, params=UNIT,
                      cfg=SimConfig(FieldState(-1.0, 2.0, 0.0), duration=2.0, dt=1e-2),
                      runs=5)
        whole = certify(self.LISSAJOUS, **kwargs)
        # 201 rows, 21 of them kept, and 17 terms a run: a budget of 120 holds
        # no run's every row, but the kept rows and terms of all 5
        monkeypatch.setattr(analysis, "_ROW_BUDGET", 120)
        batches = []

        def spy(path, *args, **kw):
            batches.append(path.a.shape[:-1])
            return integrate(path, *args, **kw)

        monkeypatch.setattr(analysis, "integrate", spy)
        report = certify(self.LISSAJOUS, **kwargs)
        assert batches == [(5,)]
        assert report == whole
        lone = [traj for _, traj in self.lone_runs(kwargs["noise"], 5, UNIT, kwargs["cfg"])]
        assert report.e_ms_per_run == tuple(float(np.mean(traj.e_inst[traj.t >= 1.8 - 1e-12]))
                                            for traj in lone)

    @pytest.mark.parametrize("budget", [1 << 18, 250])
    def test_divergence_names_the_run_that_diverges_first(self, monkeypatch, budget):
        # one batch of 5 runs, or batches of 2, 2 and 1 (101 kept rows a
        # run); the first batch with a divergence names its first run to diverge
        monkeypatch.setattr(analysis, "_ROW_BUDGET", budget)
        noise = NoiseSpec(0.3, 0.3, 7)
        params = GvfParams(8.0, 8.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=400.0, dt=0.4)
        steps = [outcome.step for _, outcome in self.lone_runs(noise, 5, params, cfg)]
        batch = budget // 101
        step, run = next(min((s, first + i) for i, s in enumerate(steps[first:first + batch]))
                         for first in range(0, 5, batch))
        with pytest.raises(IntegrationError) as err:
            certify(self.LISSAJOUS, noise, 16, params, cfg, runs=5)
        assert str(err.value).startswith(f"run {run}: state diverged at step {step} ")
        assert (err.value.step, err.value.curve) == (step, run)

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("dt", [0.7, 0.29])
    def test_horizon_ending_before_the_averaged_tail_is_refused(self, monkeypatch, runs, dt):
        # rounded to whole steps, these would end at t = 0.7 or 0.87, before
        # the tail starts at 0.9; a dt that does not divide the duration is refused
        monkeypatch.setattr(analysis, "integrate", None)  # no run may start
        with pytest.raises(ValueError, match=r"^dt must divide duration; "
                                             r"duration/dt is (1\.42857142857|3\.44827586207)$"):
            certify(synth_path("circle", 16, [1.0]), NoiseSpec(0.1, 0.1, 0), 4, UNIT,
                    SimConfig(FieldState(1.5, 0, 0), 1.0, dt), runs=runs)

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("duration, dt", [(1.0, 0.3), (2.0, 0.9)])
    def test_coarse_step_not_dividing_the_duration_is_refused(self, monkeypatch, runs,
                                                              duration, dt):
        # rounded to whole steps, these would end at t = 0.9 or 1.8, past
        # the tail's start but short of the duration
        monkeypatch.setattr(analysis, "integrate", None)  # no run may start
        with pytest.raises(ValueError, match=r"^dt must divide duration; "
                                             r"duration/dt is (3\.33333333333|2\.22222222222)$"):
            certify(synth_path("circle", 16, [1.0]), NoiseSpec(0.1, 0.1, 0), 4, UNIT,
                    SimConfig(FieldState(1.5, 0, 0), duration, dt), runs=runs)

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("duration, dt", [(1.0, 0.25), (1.0, 0.1)])
    def test_coarse_dividing_step_averages_the_rows_in_the_tail(self, runs, duration, dt):
        # the tail from t = 0.9 holds the last row, or the last two
        noise = NoiseSpec(0.1, 0.15, 3)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration, dt)
        report = certify(self.LISSAJOUS, noise, 16, UNIT, cfg, runs=runs)
        lone = [traj for _, traj in self.lone_runs(noise, runs, UNIT, cfg)]
        assert report.e_ms_per_run == tuple(float(np.mean(traj.e_inst[traj.t >= 0.9 - 1e-12]))
                                            for traj in lone)
        assert np.sum(lone[0].t >= 0.9 - 1e-12) == (1 if dt == 0.25 else 2)

    def test_zero_runs_rejected(self):
        clean = synth_path("circle", 32, [1.0])
        with pytest.raises(ValueError):
            certify(clean, NoiseSpec(0.1, 0.1, 0), 4, UNIT,
                    SimConfig(FieldState(0, 0, 0), 1.0, 1e-2), runs=0)
