import io
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dft,
    integrate,
    synth_path,
)
from fourierpath.gvf import _field_terms

from conftest import decaying_spectrum, random_curve, random_gains

UNIT = GvfParams(1.0, 1.0)
EPS = np.finfo(float).eps


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

        def spy_curve(self, *args):
            calls["curve"] += 1
            return curve(self, *args)

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
        # keeping every row, only the last, or every seventh from row 3, past the divergence
        for rows in (None, range(n_steps, n_steps + 1), range(3, n_steps + 1, 7)):
            calls = 0
            with pytest.raises(IntegrationError) as err:
                integrate(path, params, cfg, rows=rows, conv_tol=1e-4)
            assert (err.value.step, err.value.curve) == (step, curve)
            assert str(err.value) == (f"state diverged at step {step} (t = {t[step]:g}); "
                                      "dt is too large for these gains")
            # four field evaluations per step, and at most one block past the divergence
            assert calls <= 4 * (step + sim._CHECK_ROWS - 1) + 1

    @pytest.mark.parametrize("case", ["lone-758-truth", "stack"])
    def test_kept_rows_are_the_full_runs_rows(self, case):
        clean = synth_path("lissajous", 758, [3, 2])
        if case == "stack":
            truth, curves = noisy_curves([1, 2, 3], sigma=0.1)
            path = stacked(curves)
        else:
            truth, path = dft(clean), dft(add_noise(clean, NoiseSpec(0.1, 0.15, 1)))
        params = GvfParams(1.0, 2.0)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.3, dt=1e-3)
        full = integrate(path, params, cfg, truth=truth)
        assert full.n_rows == cfg.steps + 1 == 301
        # to the last row from the start, from mid-block, from the rows either
        # side of a block edge and from the last row itself; then strides that
        # keep the last row, skip it, cross block edges or keep only row 0
        for rows in (range(0, 301), range(101, 301), range(255, 301), range(256, 301),
                     range(257, 301), range(300, 301), range(0, 301, 3), range(3, 301, 7),
                     range(5, 260, 10), range(254, 259, 2), range(0, 301, 1000)):
            part = integrate(path, params, cfg, truth=truth, rows=rows)
            assert part.n_rows == len(rows)
            kept = slice(rows.start, rows.stop, rows.step)
            for name in ("t", "x", "y", "theta", "phi1", "phi2", "v1", "e_inst"):
                want = getattr(full, name)
                assert np.array_equal(getattr(part, name), want[kept]), name
                # the last row, kept or not
                assert np.array_equal(getattr(part.final, name), want[-1:]), name

    @pytest.mark.parametrize("rows", [range(301, 302), range(0, 302), range(-1, 5),
                                      range(0), range(7, 7)],
                             ids=["past-the-last-row", "to-past-the-last-row",
                                  "before-the-first-row", "empty", "empty-inside"])
    def test_rows_outside_the_run_are_refused(self, unit_epicycle, rows):
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=0.3, dt=1e-3)
        with pytest.raises(ValueError,
                           match=r"^rows must be a non-empty rising range within 0\.\.300$"):
            integrate(unit_epicycle, UNIT, cfg, rows=rows)

    def test_kept_tail_holds_memory_to_its_rows(self):
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
            traj = integrate(path, UNIT, cfg, truth=truth, rows=range(4500, 5001))
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


def _scan(traj, tol):
    """The convergence time a scan of the trajectory's own rows after the run gives."""
    above = np.nonzero(traj.phi1**2 + traj.phi2**2 > tol)[0]
    if above.size == 0:
        return float(traj.t[0])
    return None if above[-1] == traj.n_rows - 1 else float(traj.t[above[-1] + 1])


class TestConvergenceTime:
    def test_on_path_start_is_zero(self, unit_epicycle):
        cfg = SimConfig(FieldState(1.0, 0.0, 0.0), duration=2.0, dt=1e-3)
        traj = integrate(unit_epicycle, UNIT, cfg, conv_tol=1e-6)
        assert traj.convergence_time == 0.0

    def test_larger_gain_converges_faster(self):
        times = {}
        for k1 in (1.0, 2.0):
            path = dft(synth_path("circle", 64, [1.0]))
            cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=10.0, dt=1e-3)
            traj = integrate(path, GvfParams(k1, k1), cfg, conv_tol=1e-4)
            times[k1] = traj.convergence_time
            assert times[k1] == _scan(traj, 1e-4)
        assert times[1.0] is not None and times[2.0] is not None
        assert times[2.0] < times[1.0]

    def test_exact_zero_tolerance_never_holds(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=2.0, dt=1e-3)
        traj = integrate(unit_epicycle, UNIT, cfg, conv_tol=0.0)
        assert traj.convergence_time is None

    def test_stack_converges_when_its_last_run_does(self):
        _, curves = noisy_curves([1, 2, 3], sigma=0.1)
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=4.0, dt=1e-2)
        times = [integrate(curve, UNIT, cfg, conv_tol=1e-4).convergence_time
                 for curve in curves]
        assert None not in times and len(set(times)) > 1
        batch = integrate(stacked(curves), UNIT, cfg, conv_tol=1e-4)
        assert batch.convergence_time == max(times) == _scan(batch, 1e-4)
        # every run's last row is above a zero tolerance
        assert integrate(stacked(curves), UNIT, cfg, conv_tol=0.0).convergence_time is None

    def test_negative_tolerance_rejected(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=1.0, dt=1e-2)
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^conv_tol must be finite and >= 0$"):
                integrate(unit_epicycle, UNIT, cfg, conv_tol=tol)

    def test_no_tolerance_gives_no_time(self, unit_epicycle):
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=1.0, dt=1e-2)
        assert integrate(unit_epicycle, UNIT, cfg).convergence_time is None

    @pytest.mark.parametrize("first", [0, 80])
    def test_rows_between_the_kept_ones_count(self, first):
        # at stride 7 the last row above the tolerance, row 73, is not kept:
        # from row 0 the kept rows 0..70 are above it too, from row 80 none
        # is, yet the time is the one every row gives, not the one the kept
        # rows alone give
        path = dft(synth_path("circle", 64, [1.0]))
        cfg = SimConfig(FieldState(2.0, 0.0, 0.0), duration=2.0, dt=1e-2)
        phi1, phi2 = array_state_rk4(path, UNIT, cfg)[4:]
        offsets = phi1**2 + phi2**2
        tol = float(offsets[74:].max())
        assert np.flatnonzero(offsets > tol)[-1] == 73
        every = integrate(path, UNIT, cfg, conv_tol=tol)
        strided = integrate(path, UNIT, cfg, rows=range(first, cfg.steps + 1, 7), conv_tol=tol)
        assert strided.convergence_time == every.convergence_time == cfg.dt * 74
        assert _scan(strided, tol) == (cfg.dt * 77 if first == 0 else cfg.dt * 80)
        assert every.convergence_time == _scan(every, tol)


def _contraction_excess(path, params, cfg):
    """The largest sqrt(V1) - allowed over the rows of the run, at most 0 where V1
    contracts at rate 2*min(k1, k2) within RK4's error.

    The exact flow has dV1/dt = -2|u|^2 - 2(u.c')^2 <= -2*min(k1, k2)*V1, with
    u = (k1*phi1, k2*phi2), so V1(t) <= V1(0)*exp(-2*min(k1, k2)*t) (the
    comparison lemma).  The RK4 allowance on row n, in the units of sqrt(V1):
    a factor g^n, where g = R(-m*dt)*exp(m*dt), about 1 + (m*dt)^5/120, with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the step's factor on an offset that
    decays at m = min(k1, k2), the slowest rate; twice the gap to the same
    run at dt/2, above the 16/15 of it that estimates the run's own error
    (Richardson), for the error of following a moving curve; and 64 rounding
    units of the coordinates, and 4 more a step.
    """
    traj = integrate(path, params, cfg)
    fine = integrate(path, params, SimConfig(cfg.eta0, cfg.duration, cfg.dt / 2),
                     rows=range(0, 2 * cfg.steps + 1, 2))
    m = min(params.k1, params.k2)
    z = -m * cfg.dt
    g = (1 + z + z * z / 2 + z**3 / 6 + z**4 / 24) * np.exp(-z)
    size = (1.0 + max(np.max(np.abs(traj.x)), np.max(np.abs(traj.y)))
            + np.max(np.abs(traj.theta)) * np.sum(np.abs(path.k * path.a)) + np.sum(np.abs(path.a)))
    n = np.arange(traj.n_rows)
    allowed = (np.sqrt(sim.transient_bound(traj.v1[0], params.k1, params.k2, traj.t)) * g**n
               + 2 * np.abs(np.sqrt(traj.v1) - np.sqrt(fine.v1))
               + np.sqrt(max(params.k1, params.k2)) * (64 + 4 * n) * EPS * size)
    return float(np.max(np.sqrt(traj.v1) - allowed))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_v1_contracts_at_twice_the_smaller_gain(data):
    # resolved steps: dt*L <= 0.5, with L = max(k)*(1 + S)^2 + T2*(1 + max(k)*|phi|max)
    # bounding the field's Jacobian (S = sum |k*a_k|, T2 = sum k^2*|a_k|, and
    # |phi| <= sqrt(V1(0)/min(k)) along the flow), plus max|k|*(1 + max(k)*|phi|max*S)
    # bounding how fast a harmonic's phase turns; that puts dt*max(k)*S^2 below 0.5
    path, params = random_curve(data), random_gains(data)
    theta = data.draw(st.floats(-10.0, 10.0), label="theta0")
    px, py = path.eval(theta)
    scale = 10.0 ** data.draw(st.integers(-3, 2), label="offset decade")
    phi = [scale * data.draw(st.floats(-3.0, 3.0), label=n) for n in ("phi1", "phi2")]
    a, k = np.abs(path.a), np.abs(path.k)
    kmin, kmax = min(params.k1, params.k2), max(params.k1, params.k2)
    reach = np.sqrt((params.k1 * phi[0] ** 2 + params.k2 * phi[1] ** 2) / kmin)
    lipschitz = (kmax * (1 + np.sum(k * a)) ** 2 + np.sum(k * k * a) * (1 + kmax * reach)
                 + np.max(k) * (1 + kmax * reach * np.sum(k * a)))
    dt = float(f"{0.5 / lipschitz * data.draw(st.floats(0.01, 0.99), label='dt share'):.3g}")
    assert dt * lipschitz <= 0.5 and dt * kmax * np.sum(k * a) ** 2 < 0.5
    steps = data.draw(st.integers(1, 2000), label="steps")
    cfg = SimConfig(FieldState(px + phi[0], py + phi[1], theta), steps * dt, dt)
    assert _contraction_excess(path, params, cfg) <= 0.0


def test_contraction_check_catches_a_flipped_theta_coupling(monkeypatch):
    # chi3 = 1 - u.c' gives dV1/dt = -2|u|^2 + 2(u.c')^2, positive for u along
    # c' once |c'| > 1: on the circle of radius 2, V1 grows from an offset along c'
    circle, params = TrigPath(k=[1], a=[2.0]), GvfParams(1.0, 1.0)
    cfg = SimConfig(FieldState(2.0, 0.1, 0.0), duration=0.5, dt=1e-3)
    assert _contraction_excess(circle, params, cfg) <= 0.0

    def flipped(path, state, params):
        phi, tangent, (c1, c2, c3) = _field_terms(path, state, params)
        return phi, tangent, (c1, c2, 2.0 - c3)

    monkeypatch.setattr(sim, "_field_terms", flipped)
    assert _contraction_excess(circle, params, cfg) > 1e-3


def test_transient_bound_at_the_benchmark_and_headline_tail_starts():
    # lissajous-758 starts at (1, 0), so from (-1, 2) at gains (1, 1) V1(0) = 8;
    # certify averages from 1.8 s (--duration 2) and from 18 s (--duration 20)
    curve = dft(synth_path("lissajous", 758, [3.0, 2.0]))
    px, py = curve.eval(0.0)
    v1_0 = (-1.0 - px) ** 2 + (2.0 - py) ** 2
    assert v1_0 == pytest.approx(8.0, rel=1e-12)
    assert sim.transient_bound(v1_0, 1.0, 1.0, 1.8) == pytest.approx(8 * np.exp(-3.6))
    assert round(sim.transient_bound(v1_0, 1.0, 1.0, 1.8), 3) == 0.219
    assert sim.transient_bound(v1_0, 1.0, 1.0, 18.0) == pytest.approx(1.9e-15, rel=0.02)
    # the smaller gain sets the rate, and t may be an array
    t = np.array([0.0, 0.5, 2.0])
    assert np.array_equal(sim.transient_bound(2.0, 3.0, 0.5, t), 2.0 * np.exp(-2 * 0.5 * t))


@pytest.mark.parametrize("args", [
    (-1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0), (1.0, 1.0, np.nan, 1.0),
    (1.0, 1.0, 1.0, -0.5), (np.inf, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, np.array([0.0, np.inf])),
    (1.0, 1.0, 1.0, np.array([1.0, -1.0]))])
def test_transient_bound_refuses_a_negative_or_non_finite_input(args):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        sim.transient_bound(*args)


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

    # a run keeping every fifth row writes those rows of the full table
    decimated = io.StringIO()
    integrate(unit_epicycle, UNIT, cfg, rows=range(0, cfg.steps + 1, 5)).write_csv(decimated)
    want = [lines[0], *lines[1::5]]
    assert decimated.getvalue().strip().splitlines() == want
    assert len(want) == 1 + len(range(0, traj.n_rows, 5))


def test_stride_below_one_is_refused(unit_epicycle):
    # a falling range, whose stride is below one, keeps no rising rows
    cfg = SimConfig(FieldState(2.0, 0.0, 0.0), 0.1, 1e-2)
    with pytest.raises(ValueError, match="^rows must be a non-empty rising range within 0..10$"):
        integrate(unit_epicycle, UNIT, cfg, rows=range(10, -1, -1))


def test_strided_run_holds_memory_to_its_kept_rows():
    # the traced peak of a run keeping every 1000th row, at two horizons,
    # grows by at most 1 B a step: measured 0.03 B; keeping every row, as a
    # stride taken from the rows after the run did, grows by 80 B a step
    path = dft(synth_path("circle", 16, [1.0]))
    peaks = []
    for steps in (2000, 8000):
        cfg = SimConfig(FieldState(-1.0, 2.0, 0.0), duration=steps * 1e-3, dt=1e-3)
        integrate(path, UNIT, SimConfig(cfg.eta0, 0.01, 1e-3))  # warm up
        tracemalloc.start()
        try:
            traj = integrate(path, UNIT, cfg, rows=range(0, steps + 1, 1000))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert traj.n_rows == steps // 1000 + 1
    assert peaks[1] - peaks[0] <= 1 * (8000 - 2000)


def test_stacked_trajectory_has_no_csv_table():
    # a (rows, R) column does not fit one row of the trajectory table
    _, curves = noisy_curves([1, 2], sigma=0.1)
    traj = integrate(stacked(curves), UNIT,
                     SimConfig(FieldState(-1.0, 2.0, 0.0), duration=0.1, dt=1e-2))
    with pytest.raises(ValueError, match="a stack of 2 curves has no trajectory table"):
        traj.write_csv(io.StringIO())
