import io
import re

import numpy as np
import pytest

from fourierpath import sim
from fourierpath import (
    FieldState,
    GvfParams,
    IntegrationError,
    NoiseSpec,
    SimConfig,
    Spectrum,
    TrigPath,
    add_noise,
    apply_window,
    convergence_time,
    dft,
    integrate,
    synth_path,
)
from fourierpath.gvf import _field_terms

from conftest import decaying_spectrum

UNIT = GvfParams(1.0, 1.0)


def noisy_curves(seeds, sigma, m=16):
    """The clean lissajous-64 curve and one windowed noisy curve per seed."""
    clean = synth_path("lissajous", 64, [3, 2])
    curves = [apply_window(dft(add_noise(clean, NoiseSpec(sigma, sigma, s))), m)
              for s in seeds]
    return dft(clean), curves


def stacked(curves):
    # a stack shares one k; these noisy curves keep every windowed term
    for curve in curves:
        assert np.array_equal(curve.k, curves[0].k)
    return TrigPath(curves[0].k, np.stack([c.a for c in curves]))


class TestIntegrate:
    def test_on_path_start_stays_on_path(self, unit_epicycle):
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=10.0, dt=1e-3)
        traj = integrate(unit_epicycle, UNIT, cfg)
        assert np.max(traj.v1) <= 1e-10
        # on the path the parameter advances at unit speed
        assert traj.theta[-1] == pytest.approx(10.0, rel=0.01)

    def test_off_path_start_converges(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=10.0, dt=1e-3)
        traj = integrate(unit_epicycle, UNIT, cfg)
        tol = 1e-9 * (1.0 + traj.v1[:-1])
        assert np.all(np.diff(traj.v1) <= tol)
        assert traj.v1[-1] < 1e-6

    def test_uniform_strictly_increasing_grid(self, unit_epicycle):
        cfg = SimConfig(FieldState(1.5, 0.5, 0.0), duration=1.0, dt=1e-2)
        traj = integrate(unit_epicycle, UNIT, cfg)
        assert traj.n_rows == 101
        assert np.all(np.diff(traj.t) > 0)
        assert np.allclose(np.diff(traj.t), 1e-2, atol=1e-15)
        for arr in (traj.x, traj.y, traj.theta, traj.phi1, traj.phi2, traj.v1, traj.e_inst):
            assert np.all(np.isfinite(arr))

    def test_halving_dt_barely_moves_final_state(self, unit_epicycle):
        def final(dt):
            cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=5.0, dt=dt)
            tr = integrate(unit_epicycle, UNIT, cfg)
            return np.array([tr.x[-1], tr.y[-1], tr.theta[-1]])

        assert np.linalg.norm(final(1e-3) - final(5e-4)) < 1e-6

    def test_each_row_is_one_rk4_step_from_the_last(self):
        path = apply_window(decaying_spectrum(128, seed=1), 24)
        params = GvfParams(1.0, 2.0)
        dt = 1e-2
        traj = integrate(path, params, SimConfig(FieldState(-1.0, 2.0, 0.5), 2.0, dt))
        state = np.stack((traj.x, traj.y, traj.theta))
        assert np.array_equal(state[:, 0], [-1.0, 2.0, 0.5])
        phi1, phi2 = _field_terms(path, *state, params)[:2]
        assert np.allclose(traj.phi1, phi1, rtol=1e-12, atol=1e-15)
        assert np.allclose(traj.phi2, phi2, rtol=1e-12, atol=1e-15)

        def rhs(s):
            return np.array(_field_terms(path, *s, params)[4])

        # recompute, from every row but the last, one step to the next row
        s = state[:, :-1]
        f1 = rhs(s)
        f2 = rhs(s + 0.5 * dt * f1)
        f3 = rhs(s + 0.5 * dt * f2)
        f4 = rhs(s + dt * f3)
        stepped = s + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        gap = np.linalg.norm(stepped - state[:, 1:], axis=0)
        assert np.all(gap <= 1e-12 * np.linalg.norm(state[:, 1:], axis=0))

    def test_parameter_increases_once_converged(self):
        path = apply_window(decaying_spectrum(128, seed=1), 24)
        params = GvfParams(1.0, 2.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=10.0, dt=1e-3)
        traj = integrate(path, params, cfg)
        th = np.linspace(0, 2 * np.pi, 4096)
        dx, dy = path.eval_with_deriv(th)[2:]
        grad_sq_max = float(np.max(dx * dx + dy * dy))
        threshold = 1.0 / (2.0 * max(params.k1, params.k2) * grad_sq_max)
        quiet = traj.v1[:-1] < threshold
        assert np.any(quiet)
        assert np.all(np.diff(traj.theta)[quiet] > 0)

    def test_blow_up_reports_step_and_hints_dt(self):
        path = apply_window(decaying_spectrum(758, seed=3, base=0.9), 100)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=20.0, dt=10.0)
        with pytest.raises(IntegrationError, match="dt") as err:
            integrate(path, GvfParams(8.0, 8.0), cfg)
        assert err.value.step >= 1
        assert err.value.curve is None

    def test_stacked_curves_integrate_like_lone_curves(self):
        truth, curves = noisy_curves([1, 2, 3], sigma=0.1)
        # one more curve whose spectrum stores an exactly zero coefficient
        spec = apply_window(dft(synth_path("lissajous", 64, [3, 2])), 16)
        curves.append(Spectrum(spec.k, np.where(spec.k == 2, 0, spec.a), spec.n_samples))
        params = GvfParams(1.0, 2.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=2.0, dt=1e-3)
        batch = integrate(stacked(curves), params, cfg, truth=truth)
        assert batch.x.shape == (2001, 4)
        for r, curve in enumerate(curves):
            lone = integrate(curve, params, cfg, truth=truth)
            assert np.array_equal(batch.t, lone.t)
            for name in ("x", "y", "theta", "phi1", "phi2", "v1", "e_inst"):
                assert np.array_equal(getattr(batch, name)[:, r], getattr(lone, name)), name

    def test_stack_names_the_curve_that_diverges_first(self):
        # alone, these curves diverge at steps 23, 22, 22 and 23: curve 1
        # is first, tied with curve 2
        _, curves = noisy_curves([0, 1, 2, 3], sigma=0.3)
        params = GvfParams(8.0, 8.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=40.0, dt=0.45)
        first = []
        for r, curve in enumerate(curves):
            with pytest.raises(IntegrationError) as err:
                integrate(curve, params, cfg)
            first.append((err.value.step, r))
        with pytest.raises(IntegrationError, match="dt") as err:
            integrate(stacked(curves), params, cfg)
        assert (err.value.step, err.value.curve) == min(first)

    def test_error_against_reference_curve(self):
        clean = synth_path("circle", 64, [1.0])
        truth = dft(clean)
        noisy = add_noise(clean, NoiseSpec(0.05, 0.05, 5))
        followed = apply_window(dft(noisy), 6)
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=2.0, dt=1e-3)
        traj = integrate(followed, UNIT, cfg, truth=truth)
        # each row's squared distance to the reference point at its own
        # theta; a batched curve point rounds exactly like a scalar one
        tx, ty = np.array([truth.eval(th) for th in traj.theta]).T
        assert np.array_equal(traj.e_inst, (traj.x - tx) ** 2 + (traj.y - ty) ** 2)

    def test_error_defaults_to_followed_path(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=1.0, dt=1e-2)
        traj = integrate(unit_epicycle, UNIT, cfg)
        assert np.allclose(traj.e_inst, traj.phi1**2 + traj.phi2**2, atol=1e-15)


class TestConvergenceTime:
    def test_on_path_start_is_zero(self, unit_epicycle):
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=2.0, dt=1e-3)
        traj = integrate(unit_epicycle, UNIT, cfg)
        assert convergence_time(traj, 1e-6) == 0.0

    def test_larger_gain_converges_faster(self):
        times = {}
        for k1 in (1.0, 2.0):
            path = dft(synth_path("circle", 64, [1.0]))
            cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=10.0, dt=1e-3)
            traj = integrate(path, GvfParams(k1, k1), cfg)
            times[k1] = convergence_time(traj, 1e-4)
        assert times[1.0] is not None and times[2.0] is not None
        assert times[2.0] < times[1.0]

    def test_exact_zero_tolerance_never_holds(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=2.0, dt=1e-3)
        traj = integrate(unit_epicycle, UNIT, cfg)
        assert convergence_time(traj, 0.0) is None

    def test_stack_converges_when_its_last_run_does(self):
        _, curves = noisy_curves([1, 2, 3], sigma=0.1)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=4.0, dt=1e-2)
        lone = [integrate(curve, UNIT, cfg) for curve in curves]
        batch = integrate(stacked(curves), UNIT, cfg)
        times = [convergence_time(traj, 1e-4) for traj in lone]
        assert None not in times and len(set(times)) > 1
        assert convergence_time(batch, 1e-4) == max(times)
        # every run's last row is above a zero tolerance
        assert convergence_time(batch, 0.0) is None

    def test_negative_tolerance_rejected(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=1.0, dt=1e-2)
        traj = integrate(unit_epicycle, UNIT, cfg)
        with pytest.raises(ValueError):
            convergence_time(traj, -1.0)


class TestSimConfig:
    def test_dt_larger_than_duration_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(FieldState(0, 0, 0), duration=1.0, dt=2.0)

    def test_step_count_guard_rail(self):
        with pytest.raises(ValueError):
            SimConfig(FieldState(0, 0, 0), duration=1e6, dt=1e-3)

    @pytest.mark.parametrize("dt", [1.0, 1e-3])
    def test_step_cap_is_admitted_and_one_step_past_it_refused(self, dt):
        cap = sim._STEP_LIMIT
        assert sim._n_steps(SimConfig(FieldState(0, 0, 0), duration=cap * dt, dt=dt)) == cap
        with pytest.raises(ValueError, match=re.escape(f"duration/dt must be at most {cap:g}, ")):
            SimConfig(FieldState(0, 0, 0), duration=(cap + 1) * dt, dt=dt)


def test_trajectory_csv_round_trip(unit_epicycle):
    cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=0.2, dt=1e-2)
    traj = integrate(unit_epicycle, UNIT, cfg)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x,y,theta,phi1,phi2,V1,e_inst"
    assert len(lines) == traj.n_rows + 1
    # 17 significant digits round-trip doubles exactly
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.t)
    assert np.array_equal(parsed[:, 1], traj.x)
    assert np.array_equal(parsed[:, 6], traj.v1)

    decimated = io.StringIO()
    traj.write_csv(decimated, stride=5)
    assert len(decimated.getvalue().strip().splitlines()) == 1 + len(range(0, traj.n_rows, 5))


def test_stride_below_one_is_refused(unit_epicycle):
    traj = integrate(unit_epicycle, UNIT, SimConfig(FieldState(2.0, 0.0, 0.0), 0.1, 1e-2))
    with pytest.raises(ValueError, match="^stride must be >= 1$"):
        traj.write_csv(io.StringIO(), stride=0)


def test_stacked_trajectory_has_no_csv_table():
    # a (rows, R) column does not fit one row of the trajectory table
    _, curves = noisy_curves([1, 2], sigma=0.1)
    traj = integrate(stacked(curves), UNIT,
                     SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.1, dt=1e-2))
    with pytest.raises(ValueError, match="a stack of 2 curves has no trajectory table"):
        traj.write_csv(io.StringIO())
