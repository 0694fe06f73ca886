"""Properties of the bit-for-bit invariants the fast paths rely on, drawn
with small block constants so that every block edge is reached by small
inputs: a stack column is its curve's lone run, a run kept from ``since``
is the full run's tail, every array shape and every scalar evaluates a
point to the same bytes within the rounding bound of the exact sum, the
table of terms sums to the bytes of its ``exp`` form, and a written table
is ``np.savetxt``'s and reads back exactly."""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fourierpath import (FieldState, GvfParams, IntegrationError, SimConfig, TrigPath, integrate,
                         load_path, pathdata, sim, trigpath)

from oracles import curve_sum_longdouble, rounding_bounds, term_sum_exp_form

_FIELDS = ("t", "x", "y", "theta", "phi1", "phi2", "v1", "e_inst")
# horizons of 8 to 40 steps, each dt dividing its duration
_HORIZONS = [(0.4, 0.05), (0.4, 0.01), (1.0, 0.1), (1.0, 0.025), (2.0, 0.25)]
_SPECIAL_THETAS = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 1e12, -1e12, 5e-324]
# and the largest double below 2*pi, which the wrap leaves as it is
_TERM_THETAS = [*_SPECIAL_THETAS, float(np.nextafter(2 * np.pi, 0.0))]


def _blocks(mp, data):
    """Shrink every block constant to 1..7 rows."""
    for module, name in ((sim, "_CHECK_ROWS"), (sim, "_ERROR_CHUNK_ROWS"),
                         (trigpath, "_BLOCK_ROWS"), (pathdata, "_BLOCK_ROWS")):
        mp.setattr(module, name, data.draw(st.integers(1, 7), label=name))


def _indices(data, max_terms):
    """K distinct sorted indices: contiguous around 0, or gapped in one or both signs."""
    k = data.draw(st.one_of(
        st.integers(0, max_terms).map(lambda n: list(range(-(n // 2), n - n // 2))),
        st.lists(st.integers(-3 * max_terms, 3 * max_terms), max_size=max_terms, unique=True)),
        label="k")
    return np.array(sorted(k), dtype=np.int64)


def _coefficients(data, rows, k, decades):
    """(rows, K) complex coefficients of one scale 10**e, e drawn from ``decades``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** data.draw(st.integers(*decades), label="decade")
    a = scale * (rng.standard_normal((rows, k.size)) + 1j * rng.standard_normal((rows, k.size)))
    # exact zeros and negative reals with a -0.0 imaginary part fold the phase
    a[rng.random(a.shape) < 0.1] = 0.0
    flip = rng.random(a.shape) < 0.1
    a[flip] = np.conj(-np.abs(a[flip].real).astype(np.complex128))
    return a


def _thetas(data, size):
    return np.array(data.draw(st.lists(
        st.sampled_from(_SPECIAL_THETAS) | st.floats(-1e12, 1e12) | st.floats(-50.0, 50.0),
        min_size=size, max_size=size), label="theta"))


def _run(path, params, cfg, truth, since):
    """The trajectory, or the (step, curve) of the IntegrationError raised."""
    try:
        return integrate(path, params, cfg, truth, since)
    except IntegrationError as exc:
        return exc.step, exc.curve


def _closed_loop(data, runs):
    """A stack of ``runs`` curves near the unit circle, a reference, gains and a horizon;
    large gains on a coarse step diverge."""
    k = _indices(data, 12)
    a = _coefficients(data, runs, k, (-3, -1))
    a[:, k == 1] += 1.0
    truth = data.draw(st.sampled_from([None, TrigPath(k, a[0] + 0.01)]), label="truth")
    gains = GvfParams(*data.draw(st.tuples(*[st.sampled_from([0.5, 1.0, 4.0, 60.0])] * 2)))
    duration, dt = data.draw(st.sampled_from(_HORIZONS), label="horizon")
    start = FieldState(*data.draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3), label="start"))
    return TrigPath(k, a), truth, gains, SimConfig(start, duration, dt)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stack_column_is_the_lone_run_of_its_curve(data):
    # all eight arrays, sign bits included, or the lone run that diverges first
    runs = data.draw(st.integers(1, 4), label="runs")
    stack, truth, gains, cfg = _closed_loop(data, runs)
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, data)
        got = _run(stack, gains, cfg, truth, 0.0)
        alone = [_run(TrigPath(stack.k, a), gains, cfg, truth, 0.0) for a in stack.a]
    failed = [(run[0], r) for r, run in enumerate(alone) if isinstance(run, tuple)]
    event(f"{len(failed)} of the runs diverge")
    if failed:
        assert got == min(failed)
        return
    for r, run in enumerate(alone):
        for name in _FIELDS:
            column = getattr(got, name) if name == "t" else getattr(got, name)[:, r]
            assert np.ascontiguousarray(column).tobytes() == getattr(run, name).tobytes(), name


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_from_since_is_the_full_runs_rows_from_its_first_row(data):
    runs = data.draw(st.integers(1, 3), label="runs")
    path, truth, gains, cfg = _closed_loop(data, runs)
    if runs == 1:
        path = TrigPath(path.k, path.a[0])
    last = cfg.dt * cfg.steps
    row = data.draw(st.floats(-1.0, last) | st.integers(0, cfg.steps).map(lambda i: cfg.dt * i),
                    label="row")
    # a row's own t, or the next double either side of it
    toward = data.draw(st.sampled_from([row, -np.inf, np.inf]), label="toward")
    since = min(last, float(np.nextafter(row, toward)))
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, data)
        full = _run(path, gains, cfg, truth, 0.0)
        part = _run(path, gains, cfg, truth, since)
    event("diverged" if isinstance(full, tuple) else "kept rows")
    if isinstance(full, tuple):
        assert part == full
        return
    first = cfg.first_row(since)
    assert full.t[first] >= since and (first == 0 or full.t[first - 1] < since)
    for name in _FIELDS:
        assert getattr(part, name).tobytes() == getattr(full, name)[first:].tobytes(), name


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_is_the_bytes_of_its_stack_column_within_the_bound(data):
    runs = data.draw(st.integers(1, 8), label="runs")
    k = _indices(data, data.draw(st.sampled_from([8, 60, 1200]), label="max_terms"))
    stack = TrigPath(k, _coefficients(data, runs, k, (-300, 150)))
    th = _thetas(data, runs)
    columns = np.array(stack.eval_with_deriv(th))
    assert np.array(stack.eval(th)).tobytes() == columns[:2].tobytes()
    for r, a in enumerate(stack.a):
        lone = TrigPath(k, a)
        point = np.array(lone.eval_with_deriv(float(th[r])))
        assert point.tobytes() == columns[:, r].tobytes()
        assert np.array(lone.eval(th[r])).tobytes() == point[:2].tobytes()
        exact = np.array(curve_sum_longdouble(k, a, th[r]))
        assert np.all(np.abs(point - exact) <= rounding_bounds(k, a))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_on_one_curve_is_the_bytes_of_every_other_scalar_form(data):
    # a Python float, a numpy float, a 0-d array and a stack column: one term sum
    k = _indices(data, data.draw(st.sampled_from([8, 60, 1200]), label="max_terms"))
    a = _coefficients(data, 1, k, (-300, 150))[0]
    path, th = TrigPath(k, a), float(_thetas(data, 1)[0])
    point = path.eval_with_deriv(th)
    assert all(type(v) is float for v in point)
    want = np.array(point).tobytes()
    for form in (np.float64(th), np.array(th)):
        assert np.array(path.eval_with_deriv(form)).tobytes() == want
    column = TrigPath(k, a[None]).eval_with_deriv(np.array([th]))
    assert np.array(column)[:, 0].tobytes() == want
    assert np.array(path.eval(th)).tobytes() == np.array(point[:2]).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_shapes_give_the_same_bytes_within_the_bound(data):
    # a (1,) array, one array over blocks of 1 to 7 rows, and a 2-D array
    k = _indices(data, data.draw(st.sampled_from([8, 60, 1200]), label="max_terms"))
    a = _coefficients(data, 1, k, (-300, 150))[0]
    path = TrigPath(k, a)
    rows, cols = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(1, 3))
    th = _thetas(data, rows * cols)
    alone = np.concatenate([path.eval_with_deriv(th[i:i + 1]) for i in range(th.size)], axis=1)
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, data)
        flat = np.array(path.eval_with_deriv(th))
        table = np.array(path.eval_with_deriv(th.reshape(rows, cols)))
        assert np.array(path.eval(th)).tobytes() == flat[:2].tobytes()
    assert table.shape == (4, rows, cols)
    assert flat.tobytes() == table.tobytes() == alone.tobytes()
    exact = np.array(curve_sum_longdouble(k, a, th))
    assert np.all(np.abs(flat - exact) <= rounding_bounds(k, a)[:, None])


def _signed_zero_coefficients(data, rows, k):
    """(rows, K) coefficients whose real and imaginary parts are often +0.0 or
    -0.0, so angle() meets a -0.0 phase and its fold of -pi onto +pi."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = 10.0 ** data.draw(st.integers(-300, 150), label="decade") * rng.standard_normal(
        (2, rows, k.size))
    zero = rng.random(parts.shape) < 0.3
    parts[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
    # set part by part: 1j * -0.0 would drop the sign of a zero imaginary part
    a = np.empty((rows, k.size), dtype=np.complex128)
    a.real, a.imag = parts
    return a


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_term_sum_is_the_bytes_of_the_exp_form(data):
    # a stack at one parameter per curve and each curve alone at a float
    runs = data.draw(st.integers(1, 4), label="runs")
    k = _indices(data, data.draw(st.sampled_from([8, 60, 1200]), label="max_terms"))
    a = _signed_zero_coefficients(data, runs, k)
    th = np.array(data.draw(st.lists(st.sampled_from(_TERM_THETAS) | st.floats(-1e12, 1e12),
                                     min_size=runs, max_size=runs), label="theta"))
    event(f"{np.count_nonzero(th == 0.0)} zero parameters")
    stack = np.array(TrigPath(k, a).eval_with_deriv(th))
    assert stack.tobytes() == np.array(term_sum_exp_form(k, a, th)).tobytes()
    for r in range(runs):
        lone = np.array(TrigPath(k, a[r]).eval_with_deriv(float(th[r])))
        assert lone.tobytes() == np.array(term_sum_exp_form(k, a[r], th[r])).tobytes()


_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e150, -1e150, 1 / 3])
           | st.floats(-1e150, 1e150))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_written_table_is_savetxts_and_reads_back_exactly(data):
    rows = data.draw(st.integers(2, 20), label="rows")
    points = np.array(data.draw(st.lists(st.tuples(_VALUES, _VALUES), min_size=rows,
                                         max_size=rows), label="points"))
    buf, want = io.StringIO(), io.StringIO()
    np.savetxt(want, points, fmt="%.17g", delimiter=",", header="x,y", comments="")
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        _blocks(mp, data)
        pathdata.write_table(buf, "x,y", (points[:, 0], points[:, 1]))
        target = Path(tmp) / "path.csv"
        target.write_text(buf.getvalue(), encoding="utf-8", newline="")
        assert buf.getvalue() == want.getvalue()
        assert load_path(target).points.tobytes() == points.tobytes()
