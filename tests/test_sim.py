import io
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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


def array_state_rk4(path, params, cfg):
    """Rows ``(t, x, y, theta, phi1, phi2)`` of the RK4 loop that stepped the
    state as one (3,) or (3, R) array, with no divergence check."""
    dt, n = cfg.dt, cfg.steps
    runs = path.a.shape[:-1]
    rows = np.empty((n + 1, 5, *runs))
    s = np.empty((3, *runs))
    s[0], s[1], s[2] = cfg.eta0.x, cfg.eta0.y, cfg.eta0.theta

    def rhs(state):
        return np.array(_field_terms(path, state, params)[2])

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n + 1):
            (phi1, phi2), _, chi = _field_terms(path, s, params)
            rows[i] = (s[0], s[1], s[2], phi1, phi2)
            if i == n:
                break
            f1 = np.array(chi)
            f2 = rhs(s + 0.5 * dt * f1)
            f3 = rhs(s + 0.5 * dt * f2)
            f4 = rhs(s + dt * f3)
            s = s + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return (dt * np.arange(n + 1), *np.moveaxis(rows, 1, 0))


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
        phi1, phi2 = _field_terms(path, state, params)[0]
        assert np.allclose(traj.phi1, phi1, rtol=1e-12, atol=1e-15)
        assert np.allclose(traj.phi2, phi2, rtol=1e-12, atol=1e-15)

        def rhs(s):
            return np.array(_field_terms(path, s, params)[2])

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

    @pytest.mark.parametrize("stack", [False, True], ids=["lone", "stack"])
    def test_each_step_evaluates_the_field_and_the_curve_four_times(self, monkeypatch, stack):
        # one call of each per RK4 stage, and one more at the last row: the
        # per-stage boundaries, gvf.field and trigpath.eval_with_deriv, that
        # perfbench's tracer predicts and counts
        truth, curves = noisy_curves([1, 2, 3], sigma=0.1)
        path = stacked(curves) if stack else curves[0]
        calls = {"field": 0, "curve": 0}
        field, curve = sim._field_terms, TrigPath.eval_with_deriv

        def spy_field(*args):
            calls["field"] += 1
            return field(*args)

        def spy_curve(self, theta):
            calls["curve"] += 1
            return curve(self, theta)

        monkeypatch.setattr(sim, "_field_terms", spy_field)
        monkeypatch.setattr(TrigPath, "eval_with_deriv", spy_curve)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.05, dt=1e-3)
        integrate(path, UNIT, cfg, truth=truth)
        assert calls == {"field": 4 * cfg.steps + 1, "curve": 4 * cfg.steps + 1}

    def test_runs_on_two_threads_give_the_bytes_of_runs_in_turn(self):
        # a curve holds no scratch: the same lone curve and the same stack,
        # each run twice at once, tables built on the threads
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=1.0, dt=1e-3)

        def jobs():
            truth, curves = noisy_curves([1, 2, 3], sigma=0.1)
            lone, stack = curves[0], stacked(curves)
            return [(lone, truth), (lone, truth), (stack, truth), (stack, truth)]

        def run(job):
            return integrate(job[0], UNIT, cfg, truth=job[1])

        in_turn = [run(job) for job in jobs()]
        # switch threads often, so the stages of the two runs interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                at_once = list(pool.map(run, jobs(), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(at_once, in_turn):
            for name in ("t", "x", "y", "theta", "phi1", "phi2", "v1", "e_inst"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_stack_names_the_curve_that_diverges_first(self):
        # alone, these curves diverge at steps 23, 22, 22 and 23: curve 1
        # is first, tied with curve 2
        _, curves = noisy_curves([0, 1, 2, 3], sigma=0.3)
        params = GvfParams(8.0, 8.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=40.5, dt=0.45)
        first = []
        for r, curve in enumerate(curves):
            with pytest.raises(IntegrationError) as err:
                integrate(curve, params, cfg)
            first.append((err.value.step, r))
        assert [step for step, _ in first] == [23, 22, 22, 23]
        with pytest.raises(IntegrationError, match="dt") as err:
            integrate(stacked(curves), params, cfg)
        assert (err.value.step, err.value.curve) == min(first)

    @pytest.mark.parametrize("case", ["lone-full-window", "stack"])
    def test_loop_matches_the_array_state_rk4(self, case):
        clean = synth_path("lissajous", 758, [3, 2])
        if case == "stack":
            truth, curves = noisy_curves([1, 2, 3], sigma=0.1)
            path = stacked(curves)
        else:
            truth, path = dft(clean), dft(add_noise(clean, NoiseSpec(0.1, 0.15, 1)))
        params = GvfParams(1.0, 2.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.3, dt=1e-3)
        traj = integrate(path, params, cfg, truth=truth)
        t, x, y, theta, phi1, phi2 = array_state_rk4(path, params, cfg)
        tx, ty = truth.eval(theta)
        want = dict(t=t, x=x, y=y, theta=theta, phi1=phi1, phi2=phi2,
                    v1=params.k1 * phi1 * phi1 + params.k2 * phi2 * phi2,
                    e_inst=(x - tx) ** 2 + (y - ty) ** 2)
        assert traj.n_rows == 301
        for name, value in want.items():
            assert np.array_equal(getattr(traj, name), value), name

    @pytest.mark.parametrize("stack", [False, True], ids=["lone", "stack"])
    @pytest.mark.parametrize("first", [1, sim._CHECK_ROWS - 1, sim._CHECK_ROWS,
                                       sim._CHECK_ROWS + 1, "last"])
    def test_divergence_is_reported_exactly_at_block_edges(self, monkeypatch, first, stack):
        # about a constant curve, RK4 multiplies x's offset by R(-k1*dt) per
        # step, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24; R = 1e12**(1/(first - 1/2))
        # takes an offset of 1 past the range at step `first`, with a margin
        # of sqrt(R) either side
        dt, n_steps = 1e-2, 2 * sim._CHECK_ROWS + 3
        first = n_steps if first == "last" else first
        growth = 1e12 ** (1.0 / (first - 0.5))
        z = min(r.real for r in np.roots([1 / 24, 1 / 6, 1 / 2, 1, 1 - growth])
                if abs(r.imag) <= 1e-9 * abs(r))
        params = GvfParams(-z / dt, 1.0)
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=n_steps * dt, dt=dt)
        # offsets 0.01, 1 and 0: curve 1 leaves first, tied with curve 0 at step 1
        a = [[0.99], [0.0], [1.0]] if stack else [0.0]
        path = TrigPath(k=[0], a=a)

        # the reference: the first recorded row out of range, scanned step by step
        t, *state = array_state_rk4(path, params, cfg)[:4]
        for step in range(1, n_steps + 1):
            out = ~(np.abs(np.array([v[step] for v in state])) <= sim._DIVERGENCE_LIMIT)
            if out.any():
                break
        assert step == first
        curve = int(np.argmax(out.any(axis=0))) if stack else None

        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _field_terms(*args)

        monkeypatch.setattr(sim, "_field_terms", counted)
        # keeping every row, or only the last, past the divergence
        for since in (0.0, t[-1]):
            calls = 0
            with pytest.raises(IntegrationError) as err:
                integrate(path, params, cfg, since=since)
            assert (err.value.step, err.value.curve) == (step, curve)
            assert str(err.value) == (f"state diverged at step {step} (t = {t[step]:g}); "
                                      "dt is too large for these gains")
            # four field evaluations per step, and at most one block past the divergence
            assert calls <= 4 * (step + sim._CHECK_ROWS - 1) + 1

    @pytest.mark.parametrize("case", ["lone-758-truth", "stack"])
    def test_since_keeps_the_rows_of_the_full_run_from_it(self, case):
        clean = synth_path("lissajous", 758, [3, 2])
        if case == "stack":
            truth, curves = noisy_curves([1, 2, 3], sigma=0.1)
            path = stacked(curves)
        else:
            truth, path = dft(clean), dft(add_noise(clean, NoiseSpec(0.1, 0.15, 1)))
        params = GvfParams(1.0, 2.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.3, dt=1e-3)
        full = integrate(path, params, cfg, truth=truth)
        t = full.t
        # from the start, between rows mid-block, at the rows either side of
        # a block edge, and at the last row
        for since in (0.0, 0.5 * (t[100] + t[101]), t[255], t[256], t[257], t[-1]):
            kept = full.t >= since
            part = integrate(path, params, cfg, truth=truth, since=since)
            assert part.n_rows == np.count_nonzero(kept) >= 1
            for name in ("t", "x", "y", "theta", "phi1", "phi2", "v1", "e_inst"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[kept]), name

    @pytest.mark.parametrize("since", [np.nan, 0.3 + 1e-9, np.inf])
    def test_since_past_the_last_row_is_refused(self, unit_epicycle, since):
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=0.3, dt=1e-3)
        with pytest.raises(ValueError, match=r"^since must be at most the last row's t = 0\.3$"):
            integrate(unit_epicycle, UNIT, cfg, since=since)

    def test_since_keeps_memory_to_its_rows(self):
        # a 5 s run at dt 1e-3 keeping its final 10%, on a one-term curve
        # against a one-term reference: measured 90 KB at the peak, 32 KB of
        # it the kept rows, 10 KB one block, the rest the reference's chunk
        # (256 B a row, as in test_error_memory_is_one_chunk_past_its_output)
        # and the loop's own; keeping every row took 694 KB
        truth, path = TrigPath(k=[1], a=[1.0]), TrigPath(k=[1], a=[1.02])
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=5.0, dt=1e-3)
        integrate(path, UNIT, SimConfig(cfg.eta0, 0.01, 1e-3), truth=truth)  # warm up
        tracemalloc.start()
        try:
            traj = integrate(path, UNIT, cfg, truth=truth, since=0.9 * cfg.duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(traj, name).nbytes
                   for name in ("t", "x", "y", "theta", "phi1", "phi2", "v1", "e_inst"))
        assert traj.n_rows == 501
        block = sim._CHECK_ROWS * 5 * 8
        assert peak - kept <= block + 256 * traj.n_rows

    def test_error_against_reference_curve(self):
        clean = synth_path("circle", 64, [1.0])
        truth = dft(clean)
        noisy = add_noise(clean, NoiseSpec(0.05, 0.05, 5))
        followed = apply_window(dft(noisy), 6)
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=2.0, dt=1e-3)
        traj = integrate(followed, UNIT, cfg, truth=truth)
        # each row's squared distance to the reference point at its own
        # theta, as the array evaluation gives it; within rounding of the
        # scalar points
        tx, ty = truth.eval(traj.theta)
        assert np.array_equal(traj.e_inst, (traj.x - tx) ** 2 + (traj.y - ty) ** 2)
        sx, sy = np.array([truth.eval(th) for th in traj.theta]).T
        assert np.allclose(traj.e_inst, (traj.x - sx) ** 2 + (traj.y - sy) ** 2,
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(3 * sim._ERROR_CHUNK_ROWS + 5,),
                                       (2 * sim._ERROR_CHUNK_ROWS + 1, 3)])
    def test_error_in_chunks_matches_one_evaluation(self, shape):
        # chunk edges, a short last chunk and a stack's run axis
        truth = dft(synth_path("circle", 64, [1.0]))
        theta = np.linspace(-3.0, 40.0, np.prod(shape)).reshape(shape)
        x, y = np.cos(theta) + 1e-3, np.sin(theta)
        tx, ty = truth.eval(theta)
        want = (x - tx) ** 2 + (y - ty) ** 2
        assert np.array_equal(sim._squared_error(truth, x, y, theta), want)

    def test_error_memory_is_one_chunk_past_its_output(self):
        # a chunk of 4096 rows measured 153 B per row over its output (the
        # reference's points, wrapped parameters and a rotation block);
        # one evaluation of the whole trajectory took 40 B per row, 8 MB here
        truth = dft(synth_path("circle", 64, [1.0]))
        theta = np.linspace(0.0, 300.0, 200_000)
        x, y = np.cos(theta), np.sin(theta)
        tracemalloc.start()
        try:
            e = sim._squared_error(truth, x, y, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - e.nbytes <= 256 * sim._ERROR_CHUNK_ROWS

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

    @pytest.mark.parametrize("duration, dt, steps", [
        (3.0, 1e-3, 3000), (0.3, 0.1, 3), (2.0, 2e-3, 1000), (0.1, 0.01, 10),
        (sim._STEP_LIMIT * 1e-3, 1e-3, sim._STEP_LIMIT)])
    def test_dt_dividing_the_duration_ends_the_run_there(self, duration, dt, steps):
        cfg = SimConfig(FieldState(0, 0, 0), duration=duration, dt=dt)
        assert cfg.steps == steps
        assert dt * cfg.steps == pytest.approx(duration, rel=1e-15)

    @pytest.mark.parametrize("duration, dt", [(1.0, 0.7), (1.0, 0.29), (1.0, 0.3),
                                              (1.0, 0.6), (2.0, 0.9), (1.0, 1e-3 + 1e-11)])
    def test_dt_not_dividing_the_duration_is_refused(self, duration, dt):
        with pytest.raises(ValueError, match=f"^dt must divide duration; "
                                             f"duration/dt is {duration / dt:.12g}$"):
            SimConfig(FieldState(0, 0, 0), duration=duration, dt=dt)

    @pytest.mark.parametrize("dt", [1.0, 1e-3])
    def test_step_cap_is_admitted_and_one_step_past_it_refused(self, dt):
        cap = sim._STEP_LIMIT
        assert SimConfig(FieldState(0, 0, 0), duration=cap * dt, dt=dt).steps == cap
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
