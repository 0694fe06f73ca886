import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fourierpath import (
    FieldState,
    GvfParams,
    apply_window,
    dft,
    lyapunov_rate,
    synth_path,
    verify_nonsingular,
)
from fourierpath import gvf
from fourierpath.gvf import _field_terms
from fourierpath.trigpath import TrigPath

from conftest import decaying_spectrum, random_curve, random_gains, sparse_spectrum

TWO_PI = 2.0 * np.pi
UNIT = GvfParams(1.0, 1.0)


def _paths():
    return [
        dft(synth_path("circle", 64, [1.0])),
        dft(synth_path("ellipse", 64, [2.0, 1.0])),
        apply_window(decaying_spectrum(128, seed=1), 24),
        decaying_spectrum(101, seed=2),
    ]


def _offsets(path, x, y, theta):
    return _field_terms(path, (x, y, theta), UNIT)[0]


def _field(path, x, y, theta, params=UNIT):
    return np.array(_field_terms(path, (x, y, theta), params)[2])


def _v1(path, x, y, theta, params):
    phi1, phi2 = _offsets(path, x, y, theta)
    return params.k1 * phi1 * phi1 + params.k2 * phi2 * phi2


class TestPhi:
    def test_on_path_offsets_vanish(self, unit_epicycle):
        assert _offsets(unit_epicycle, 1.0, 0.0, 0.0) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_radial_offset(self, unit_epicycle):
        assert _offsets(unit_epicycle, 2.0, 0.0, 0.0) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_offsets_vanish_on_any_reconstruction_point(self):
        for path in _paths():
            for th in (0.0, 1.3, 4.0):
                px, py = path.eval(th)
                p1, p2 = _offsets(path, px, py, th)
                assert abs(p1) < 1e-9 and abs(p2) < 1e-9


class TestChi:
    def test_hand_worked_field_value(self, unit_epicycle):
        assert _field(unit_epicycle, 2.0, 0.0, 0.0) == pytest.approx([-1.0, 1.0, 1.0], abs=1e-12)
        assert _v1(unit_epicycle, 2.0, 0.0, 0.0, UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_constant_path_gives_pure_parameter_motion(self):
        path = sparse_spectrum(8, {0: 0j})
        for th in (0.0, 2.0, 11.0):
            assert _field(path, 0.0, 0.0, th) == pytest.approx([0.0, 0.0, 1.0])

    def test_on_path_field_is_tangent(self):
        for path in _paths():
            for th in (0.2, 2.9, 5.5):
                px, py, dx, dy = path.eval_with_deriv(th)
                field = _field(path, px, py, th, GvfParams(2.0, 0.5))
                assert field[0] == pytest.approx(dx, abs=1e-9)
                assert field[1] == pytest.approx(dy, abs=1e-9)
                assert field[2] == 1.0

    def test_gradient_terms_match_finite_differences(self):
        # the parameter derivatives used inside the field must agree with
        # central differences of the offsets
        path = _paths()[2]
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(100):
            x, y = rng.uniform(-3, 3, 2)
            th = rng.uniform(0, TWO_PI)
            p1p, p2p = _offsets(path, x, y, th + h)
            p1m, p2m = _offsets(path, x, y, th - h)
            fd1 = (p1p - p1m) / (2 * h)
            fd2 = (p2p - p2m) / (2 * h)
            # d(phi)/dth is minus the curve tangent
            _, (dxdt, dydt), _ = _field_terms(path, (x, y, th), UNIT)
            assert fd1 == pytest.approx(-dxdt, abs=1e-5)
            assert fd2 == pytest.approx(-dydt, abs=1e-5)


class TestLyapunovRate:
    def test_zero_on_path(self, unit_epicycle):
        # a state built from the curve's own values has exactly zero offsets
        px, py = unit_epicycle.eval(0.7)
        assert lyapunov_rate(unit_epicycle, FieldState(px, py, 0.7), UNIT) == 0.0

    def test_hand_worked_value(self, unit_epicycle):
        rate = lyapunov_rate(unit_epicycle, FieldState(2.0, 0.0, 0.0), UNIT)
        assert rate == pytest.approx(-2.0, abs=1e-12)

    def test_never_positive_and_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for path in _paths():
            params = GvfParams(*rng.uniform(0.3, 3.0, 2))
            for _ in range(250):
                state = FieldState(*rng.uniform(-4, 4, 2), rng.uniform(0, TWO_PI))
                rate = lyapunov_rate(path, state, params)
                assert rate <= 1e-12
                # closed form: -2[(k1 p1)^2 + (k2 p2)^2 + (k1 p1 dp1 + k2 p2 dp2)^2]
                p1, p2 = _offsets(path, state.x, state.y, state.theta)
                dx, dy = path.eval_with_deriv(state.theta)[2:]
                a = params.k1 * p1
                b = params.k2 * p2
                cross = a * (-dx) + b * (-dy)
                want = -2.0 * (a * a + b * b + cross * cross)
                assert rate == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_matches_directional_difference_of_v1(self, unit_epicycle):
        rng = np.random.default_rng(8)
        eps = 1e-7
        for _ in range(20):
            state = np.array([*rng.uniform(-2, 2, 2), rng.uniform(0, TWO_PI)])
            step = eps * _field(unit_epicycle, *state)
            fwd = _v1(unit_epicycle, *(state + step), UNIT)
            bwd = _v1(unit_epicycle, *(state - step), UNIT)
            fd = (fwd - bwd) / (2 * eps)
            rate = lyapunov_rate(unit_epicycle, FieldState(*state), UNIT)
            assert fd == pytest.approx(rate, rel=1e-4, abs=1e-8)


EPS = np.finfo(float).eps


def _norm_ratio(chi, tangent):
    """|chi| over its floor sqrt(1 + |c'|^2)."""
    return math.hypot(*chi) / math.hypot(1.0, *tangent)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_field_norm_never_falls_below_its_floor(data):
    # with u = (k1*phi1, k2*phi2), |chi|^2 = |c' - u|^2 + (1 + u.c')^2 is a
    # convex quadratic in u least at u = 0, where it is 1 + |c'|^2: the
    # ratio is at least 1 at every state and exactly 1 on the lifted path
    path, params = random_curve(data), random_gains(data)
    theta = data.draw(st.floats(-10.0, 10.0), label="theta")
    px, py = path.eval_with_deriv(theta)[:2]
    scale = 10.0 ** data.draw(st.sampled_from([-3, 0, 2]), label="offset scale")
    offset = [scale * data.draw(st.floats(-1.0, 1.0), label=n) for n in ("phi1", "phi2")]
    event(f"offset scale 1e{int(math.log10(scale))}")
    _, tangent, chi = _field_terms(path, (px + offset[0], py + offset[1], theta), params)
    assert _norm_ratio(chi, tangent) >= 1.0 - 8 * EPS
    # on the path
    phi, tangent, chi = _field_terms(path, (px, py, theta), params)
    assert phi == (0.0, 0.0)
    assert 1.0 - 8 * EPS <= _norm_ratio(chi, tangent) <= 1.0 + 8 * EPS


def test_field_norm_floor_catches_a_flipped_theta_coupling():
    # chi3 = 1 - u.c' in place of 1 + u.c': on the unit circle |c'| = 1, and
    # at u = c' that field vanishes, ratio 0, where the real one is (0, 0, 2),
    # ratio sqrt(2)
    circle, params = TrigPath(k=[1], a=[1.0]), GvfParams(2.0, 0.5)
    for theta in np.linspace(-3.0, 3.0, 7):
        px, py, dx, dy = circle.eval_with_deriv(float(theta))
        state = (px + dx / params.k1, py + dy / params.k2, float(theta))
        _, tangent, (c1, c2, c3) = _field_terms(circle, state, params)
        assert math.hypot(*tangent) == pytest.approx(1.0, abs=1e-15)
        assert _norm_ratio((c1, c2, c3), tangent) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert _norm_ratio((c1, c2, 2.0 - c3), tangent) <= 1e-12


class TestVerifyNonsingular:
    BOX = ((-3.0, 3.0), (-3.0, 3.0), (0.0, TWO_PI))

    def test_unit_epicycle_sweep_clean(self, unit_epicycle):
        report = verify_nonsingular(unit_epicycle, UNIT, self.BOX, 20_000, rng_seed=0)
        assert report.passed
        assert report.min_field_norm > 0.0
        # the companion states sit on no path point, so the floor is met, not touched
        assert report.min_norm_ratio >= 1.0 - 8 * EPS
        assert report.zero_field_states == []
        assert report.certificate_failures == []
        # companion states make the vanishing-row branch non-vacuous
        assert report.certificate_states >= 20_000

    def test_one_sweep_evaluates_the_curve_twice(self, unit_epicycle, monkeypatch):
        # once per scan: the companion states are built from the first scan's field
        calls = []
        original = TrigPath.eval_with_deriv

        def spy(path, theta):
            calls.append(np.shape(theta))
            return original(path, theta)

        monkeypatch.setattr(TrigPath, "eval_with_deriv", spy)
        report = verify_nonsingular(unit_epicycle, UNIT, self.BOX, 500, rng_seed=0)
        assert calls == [(500,), (500,)]
        assert report.certificate_states >= 500

    def test_rich_path_sweep_clean(self):
        path = apply_window(decaying_spectrum(758, seed=7), 100)
        report = verify_nonsingular(path, GvfParams(0.7, 1.9), self.BOX, 20_000, rng_seed=1)
        assert report.passed
        assert 1.0 - 8 * EPS <= report.min_norm_ratio < math.inf

    def test_norm_ratio_is_the_least_over_uniform_and_companion_states(self, unit_epicycle):
        # the report's ratio is the least |chi|/sqrt(1 + |c'|^2) of both scans
        report = verify_nonsingular(unit_epicycle, UNIT, self.BOX, 500, rng_seed=3)
        rng = np.random.default_rng(3)
        xs, ys, ths = (rng.uniform(lo, hi, 500) for lo, hi in self.BOX)

        def least_ratio(state):
            _, (dx, dy), (cx, cy, ct) = _field_terms(unit_epicycle, state, UNIT)
            ratio = np.sqrt(cx * cx + cy * cy + ct * ct) / np.sqrt(1.0 + dx * dx + dy * dy)
            return float(ratio.min()), cx, cy

        uniform, cx, cy = least_ratio((xs, ys, ths))
        companion = least_ratio((xs + cx / UNIT.k1, ys + cy / UNIT.k2, ths))[0]
        assert report.min_norm_ratio == min(uniform, companion)

    def test_norm_ratio_catches_a_flipped_theta_coupling(self, monkeypatch):
        # chi3 = 1 - u.c': the companion states put u at c', where on the unit
        # circle that field vanishes, though no sampled norm need be exactly 0
        circle, params = TrigPath(k=[1], a=[1.0]), GvfParams(2.0, 0.5)

        def flipped(path, state, params):
            phi, tangent, (c1, c2, c3) = _field_terms(path, state, params)
            return phi, tangent, (c1, c2, 2.0 - c3)

        assert verify_nonsingular(circle, params, self.BOX, 200, rng_seed=0).min_norm_ratio > 1.0
        monkeypatch.setattr(gvf, "_field_terms", flipped)
        report = verify_nonsingular(circle, params, self.BOX, 200, rng_seed=0)
        assert report.min_norm_ratio < 1e-6

    def test_invalid_requests_rejected(self, unit_epicycle):
        with pytest.raises(ValueError):
            verify_nonsingular(unit_epicycle, UNIT, self.BOX, 0, rng_seed=0)
        with pytest.raises(ValueError):
            verify_nonsingular(unit_epicycle, UNIT, ((1, -1), (0, 1), (0, 1)), 10, rng_seed=0)


class TestTypes:
    def test_params_must_be_positive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                GvfParams(bad, 1.0)

    def test_state_must_be_finite(self):
        with pytest.raises(ValueError):
            FieldState(np.inf, 0.0, 0.0)
