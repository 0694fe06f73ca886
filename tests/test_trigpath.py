import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierpath import (Spectrum, apply_window, dft, reconstruction_mse, synth_path, tail_energy,
                         trigpath)
from fourierpath.gvf import GvfParams, _field_terms, _FieldWork
from fourierpath.trigpath import StackWork, TrigPath, UniformGrid, write_reconstruction_csv

from conftest import decaying_spectrum, random_path, sparse_spectrum
from oracles import curve_sum_longdouble, partial_sum, rounding_bounds

TWO_PI = 2.0 * np.pi


def test_unit_epicycle_values(unit_epicycle):
    assert unit_epicycle.eval(np.pi / 2) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert unit_epicycle.eval_with_deriv(0.0)[2:] == pytest.approx((0.0, 1.0), abs=1e-12)


def test_dc_term_is_constant():
    path = sparse_spectrum(8, {0: 2.0 + 0j})
    assert path.eval(0.3) == pytest.approx((2.0, 0.0))
    assert path.eval_with_deriv(1.7)[2:] == (0.0, 0.0)


def test_zero_amplitude_terms_kept():
    spec = sparse_spectrum(8, {0: 0j, 1: 1.0 + 0j, 3: -0.0 - 0.0j})
    path = spec
    assert np.array_equal(path.k, spec.k)
    assert np.array_equal(np.abs(path.a), [0.0, 1.0, 0.0])
    # a zero term moves no value of the curve or its derivative
    lone = sparse_spectrum(8, {1: 1.0 + 0j})
    th = np.linspace(-7.0, 9.0, 17)
    for got, want in zip(path.eval_with_deriv(th), lone.eval_with_deriv(th)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [16, 17, 256, 757, 758, 1024])
def test_full_spectrum_interpolates_samples(n):
    ps = random_path(n, seed=n)
    path = dft(ps)
    th = TWO_PI * np.arange(n) / n
    x, y = path.eval(th)
    assert np.max(np.hypot(x - ps.x, y - ps.y)) < 1e-6


def test_windowed_eval_matches_direct_partial_sum():
    spec = dft(random_path(64, seed=5))
    w = apply_window(spec, 12)
    path = w
    th = np.concatenate((TWO_PI * np.arange(64) / 64, [0.123, 2.5, 5.9]))
    c = partial_sum(w.k, w.a, th)
    x, y = path.eval(th)
    assert np.max(np.abs(x - c.real)) < 1e-12
    assert np.max(np.abs(y - c.imag)) < 1e-12


def test_array_evaluation_in_blocks(monkeypatch):
    # 3-parameter blocks: the 4x5 parameters take seven blocks, the last one
    # partial, and give the bytes one block gives
    w = apply_window(dft(random_path(64, seed=6)), 32)
    path = w
    th = np.linspace(-7.0, 9.0, 20).reshape(4, 5)
    whole = path.eval_with_deriv(th)
    monkeypatch.setattr(trigpath, "_BLOCK_ROWS", 3)
    c = partial_sum(w.k, w.a, th)
    dc = partial_sum(w.k, 1j * w.k * w.a, th)
    x, y, dx, dy = path.eval_with_deriv(th)
    assert x.shape == th.shape
    assert np.max(np.abs(x - c.real)) < 1e-12
    assert np.max(np.abs(y - c.imag)) < 1e-12
    assert np.max(np.abs(dx - dc.real)) < 1e-11
    assert np.max(np.abs(dy - dc.imag)) < 1e-11
    assert all(a.tobytes() == b.tobytes() for a, b in zip((x, y, dx, dy), whole))
    assert all(np.array_equal(a, b) for a, b in zip((x, y), path.eval(th)))
    assert path.eval(np.empty(0))[0].shape == (0,)


@pytest.mark.parametrize("n_terms", [1, 101, 758, 2062, 5000])
def test_array_point_equals_scalar_point(n_terms, monkeypatch):
    # two full blocks and a one-row last block: a point is the one its
    # parameter gives alone, whatever block it lands in, and the scalar
    # point to within twice the bound each of them keeps to
    rng = np.random.default_rng(n_terms)
    amp = rng.uniform(0.0, 1.0, n_terms)
    path = TrigPath(k=np.arange(n_terms) - n_terms // 2,
                    a=amp * np.exp(1j * rng.uniform(-3.0, 3.0, n_terms)))
    monkeypatch.setattr(trigpath, "_BLOCK_ROWS", 4)
    th = rng.uniform(-10.0, 10.0, 2 * 4 + 1)
    bounds = rounding_bounds(path.k, path.a)
    for batched, evaluate in ((path.eval(th), path.eval),
                              (path.eval_with_deriv(th), path.eval_with_deriv)):
        got = np.stack(batched, axis=1)
        alone = np.concatenate([np.stack(evaluate(th[i:i + 1]), axis=1)
                                for i in range(th.size)])
        assert got.tobytes() == alone.tobytes()
        scalar = np.array([evaluate(t) for t in th])
        assert np.all(np.abs(got - scalar) <= 2 * bounds[:got.shape[1]])


@pytest.mark.parametrize("n_terms", [0, 1, 101, 758])
def test_scalar_parameter_rounds_like_a_one_element_array(n_terms):
    # a lone curve wraps a scalar with float %, an array with np.mod: the
    # same number, -0.0, huge and tiny parameters included.  Every scalar
    # form sums the table of terms; a (1,) array takes the recurrence, the
    # same bytes as in a longer array and within the bound of the exact sum
    rng = np.random.default_rng(n_terms)
    path = TrigPath(k=np.arange(n_terms) - n_terms // 2,
                    a=rng.uniform(0.0, 1.0, n_terms) * np.exp(1j * rng.uniform(-3.0, 3.0, n_terms)))
    values = [0.0, -0.0, TWO_PI, -TWO_PI, 1e-300, 1e12, -1e12,
              np.pi, -np.pi, 3 * np.pi, -5 * np.pi, *rng.uniform(-50.0, 50.0, 8)]
    longer = np.stack(path.eval_with_deriv(np.array(values)), axis=1)
    exact = np.stack(curve_sum_longdouble(path.k, path.a, np.array(values)), axis=1)
    bounds = rounding_bounds(path.k, path.a)
    for v, in_longer, want in zip(values, longer, exact):
        table = _reference_with_deriv(path.k, path.a, float(v) % TWO_PI)
        forms = [float(v), np.float64(v), np.array(v)] + ([int(v)] if v.is_integer() else [])
        for theta in forms:
            got = path.eval_with_deriv(theta)
            assert all(type(value) is float for value in got)
            assert np.array(got).tobytes() == np.array(table, dtype=np.float64).tobytes(), \
                (v, type(theta))
        one = np.stack(path.eval_with_deriv(np.array([v])), axis=1)[0]
        assert one.tobytes() == in_longer.tobytes(), v
        assert np.all(np.abs(one - want) <= bounds), v


def test_stack_refuses_a_scalar_parameter():
    stack = TrigPath(k=[0, 1], a=np.ones((3, 2)))
    for theta in (0.3, np.float64(0.3), np.array(0.3), 1):
        with pytest.raises(ValueError) as err:
            stack.eval_with_deriv(theta)
        assert str(err.value) == "a stack of 3 curves takes one parameter per curve, got shape ()"


def test_stack_with_a_workspace_refuses_a_scalar_or_a_wrong_count_of_parameters():
    # written out= a workspace's buffers, a scalar or a (1,) array would broadcast
    stack = TrigPath(k=[0, 1], a=np.ones((3, 2)))
    work = StackWork(stack)
    for theta in (0.3, np.float64(0.3), np.array(0.3), 1, np.array([0.3]), np.zeros(2),
                  np.zeros(4), np.zeros((3, 1)), [0.1, 0.2]):
        with pytest.raises(ValueError, match="^a stack of 3 curves takes one parameter per curve"):
            stack.eval_with_deriv(theta, work)
    field = _FieldWork(stack)
    for state in (np.zeros(3), np.zeros((3, 1)), np.zeros((2, 3)), np.zeros((3, 4))):
        with pytest.raises(ValueError, match="^a stack of 3 curves takes a \\(3, 3\\) state"):
            _field_terms(stack, state, GvfParams(1.0, 1.0), field)
    # a list of one parameter per curve is taken, as without a workspace
    assert stack.eval_with_deriv([0.1, 0.2, 0.3], work).tobytes() == \
        stack.eval_with_deriv(np.array([0.1, 0.2, 0.3])).tobytes()


def test_stack_rotations_are_the_bytes_of_the_exp_form_at_a_negative_zero_phase():
    # at theta = 0 a negative k gives th*k = -0.0, and a positive real
    # coefficient with a -0.0 imaginary part a -0.0 phase; the angle a stack
    # writes straight into an imaginary part must be the +0.0 that 1j*(...) gives
    a = np.empty((2, 2), dtype=np.complex128)
    a.real, a.imag = [[1.0, 2.0], [3.0, 1.0]], -0.0
    stack, th = TrigPath(k=[-1, 0], a=a), np.zeros(2)
    work = StackWork(stack)
    got = stack.eval_with_deriv(th, work)
    want = np.exp(1j * (th[:, None] * np.array([-1.0, 0.0]) + np.angle(a)))
    assert work.rot.tobytes() == want.tobytes()
    for r in range(2):
        lone = TrigPath(k=[-1, 0], a=a[r]).eval_with_deriv(0.0)
        assert got[:, r].tobytes() == np.array(lone).tobytes()


def test_derivative_matches_central_difference():
    path = apply_window(decaying_spectrum(128, seed=3), 24)
    rng = np.random.default_rng(10)
    h = 1e-6
    for th in rng.uniform(0.0, TWO_PI, 1000):
        xp, yp = path.eval(th + h)
        xm, ym = path.eval(th - h)
        dx, dy = path.eval_with_deriv(th)[2:]
        assert dx == pytest.approx((xp - xm) / (2 * h), abs=1e-5)
        assert dy == pytest.approx((yp - ym) / (2 * h), abs=1e-5)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-50.0, 50.0, allow_nan=False))
def test_property_periodicity(theta):
    path = decaying_spectrum(32, seed=8)
    a = np.array(path.eval(theta))
    b = np.array(path.eval(theta + TWO_PI))
    assert np.max(np.abs(a - b)) < 1e-12


def test_truncation_error_is_monotone_on_clean_data():
    from fourierpath import reconstruction_mse

    spec = decaying_spectrum(64, seed=4)
    truth = spec
    errors = [
        reconstruction_mse(truth, apply_window(spec, m))
        for m in range(1, 65)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_type_validation():
    for k, a in (([1, 2], [1.0]), ([[1, 2]], [1.0, 2.0]), ([1], 1.0), ([1], [[[1.0]]])):
        with pytest.raises(ValueError, match="over its K terms"):
            TrigPath(k=k, a=a)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            TrigPath(k=[0, 1], a=[1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            TrigPath(k=[0, 1], a=[[1.0, 2.0], [bad, 0.5]])


@pytest.mark.parametrize("k", [[0.5, 1.7], [2**70], [2**63], [True, False]],
                         ids=["fractions", "past-int64", "past-int64-unsigned", "bools"])
def test_indices_that_are_not_64_bit_integers_are_refused(k):
    with pytest.raises(ValueError, match="^k must hold integers"):
        TrigPath(k=k, a=np.ones(len(k)))


def test_indices_may_be_empty_or_numpy_integers():
    assert TrigPath(k=[], a=[]).k.dtype == np.int64
    for dtype in (np.int8, np.uint32, np.int64):
        curve = TrigPath(k=np.array([1, 2], dtype=dtype), a=[1.0, 2.0])
        assert curve.k.dtype == np.int64 and curve.k.tolist() == [1, 2]


def test_blocked_evaluation_memory_follows_the_output(monkeypatch):
    # twenty blocks: the peak must not grow with the blocks, only with the
    # (2, n) output and the wrapped parameters, 24 B per row
    monkeypatch.setattr(trigpath, "_BLOCK_ROWS", 1000)
    rows = 20000
    path = TrigPath(k=np.arange(16) - 8, a=np.linspace(0.5, 1.5, 16) * 1j)
    path.eval(0.0)
    th = np.linspace(-7.0, 9.0, rows)
    tracemalloc.start()
    try:
        x, y = path.eval(th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == y.shape == (rows,)
    assert peak <= 64 * rows


def test_negative_real_coefficient_ignores_the_sign_of_its_zero_imaginary_part():
    # its phase is +pi either way, so both curves round alike
    th = np.linspace(-7.0, 9.0, 17)
    up, down = (TrigPath(k=[-2, 3], a=[0.5j, complex(-1.5, im)]) for im in (0.0, -0.0))
    for got, want in zip(down.eval_with_deriv(th), up.eval_with_deriv(th)):
        assert np.array_equal(got, want)


def test_stack_pairs_parameter_r_with_curve_r():
    curves = [apply_window(decaying_spectrum(64, seed=s), 20) for s in (1, 2, 3)]
    stack = TrigPath(curves[0].k, np.stack([c.a for c in curves]))
    th = np.array([0.3, -2.0, 40.0])
    point, both = stack.eval(th), stack.eval_with_deriv(th)
    # one array of rows x, y, dx, dy, the first two for eval
    assert both.shape == (4, 3) and point.shape == (2, 3)
    for r, curve in enumerate(curves):
        assert tuple(v[r] for v in point) == curve.eval(th[r])
        assert tuple(v[r] for v in both) == curve.eval_with_deriv(th[r])
    for theta in (0.3, th[:2], np.stack((th, th))):
        with pytest.raises(ValueError, match="one parameter per curve"):
            stack.eval(theta)
    k, a = curves[0].k, np.ones((2, curves[0].n_terms), dtype=complex)
    for bad in (dict(k=k[1:], a=a), dict(k=k[None], a=a), dict(k=k, a=a[None])):
        with pytest.raises(ValueError, match="over its K terms"):
            TrigPath(**bad)


def test_reconstruction_csv_export():
    path = dft(synth_path("circle", 16, [1.0]))
    buf = io.StringIO()
    write_reconstruction_csv(path, buf, samples=16)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "theta,x,y"
    assert len(lines) == 17
    th0, x0, y0 = (float(v) for v in lines[1].split(","))
    assert (th0, x0, y0) == (0.0, pytest.approx(1.0), pytest.approx(0.0, abs=1e-15))


def test_reconstruction_csv_needs_two_samples():
    buf = io.StringIO()
    with pytest.raises(ValueError, match="^samples must be >= 2$"):
        write_reconstruction_csv(dft(synth_path("circle", 16, [1.0])), buf, samples=1)
    assert buf.getvalue() == ""


def _assert_grid_matches(path, samples, k, a):
    # the grid transform against the direct sum and the pointwise path
    grid = UniformGrid(samples)
    x, y = path.eval(grid)
    assert x.shape == y.shape == (samples,)
    tol = 1e-12 * np.sum(np.abs(a))
    want = partial_sum(k, a, grid.theta)
    pointwise = path.eval(grid.theta)
    for got, direct, point in ((x, want.real, pointwise[0]), (y, want.imag, pointwise[1])):
        assert np.max(np.abs(got - direct)) <= tol
        assert np.max(np.abs(got - point)) <= tol


@pytest.mark.parametrize("samples", [1, 2, 7, 24, 25, 26, 64, 100, 509, 1031])
def test_grid_evaluation_folds_terms_modulo_the_sample_count(samples):
    # K = 25 terms: sample counts below K alias terms onto one bin, 25 is
    # K itself, and 7, 509 and 1031 are primes, transformed by the chirp
    w = apply_window(decaying_spectrum(64, seed=11, base=0.9), 24)
    _assert_grid_matches(w, samples, w.k, w.a)


@pytest.mark.parametrize("n", [16, 758, 2062])
def test_grid_evaluation_keeps_the_plus_half_term_of_an_even_spectrum(n):
    data = random_path(n, seed=n)
    spec = dft(data)
    assert spec.k[-1] == n // 2
    path = spec
    for samples in (n // 2, n, 2 * n + 1):
        _assert_grid_matches(path, samples, spec.k, spec.a)
    # on the sample grid the full curve passes through the data
    x, y = path.eval(UniformGrid(n))
    assert np.max(np.hypot(x - data.x, y - data.y)) < 1e-9


def test_grid_evaluation_ignores_zero_amplitude_terms():
    spec = sparse_spectrum(8, {-3: 0j, 0: 0.5 + 0j, 1: 1.0 - 2.0j, 3: -0.0 - 0.0j})
    path = spec
    lone = sparse_spectrum(8, {0: 0.5 + 0j, 1: 1.0 - 2.0j})
    for samples in (1, 3, 6, 8, 13):
        _assert_grid_matches(path, samples, spec.k, spec.a)
        for got, want in zip(path.eval(UniformGrid(samples)), lone.eval(UniformGrid(samples))):
            assert np.array_equal(got, want)


def test_grid_is_refused_by_a_stack_and_by_the_derivative():
    curves = [apply_window(decaying_spectrum(32, seed=s), 8) for s in (1, 2)]
    stack = TrigPath(curves[0].k, np.stack([c.a for c in curves]))
    with pytest.raises(ValueError, match="stack"):
        stack.eval(UniformGrid(16))
    with pytest.raises(TypeError):
        curves[0].eval_with_deriv(UniformGrid(16))


@pytest.mark.parametrize("samples", [0, -3, 2.0, 1.5, "8", True, None])
def test_grid_takes_an_integer_sample_count_of_at_least_one(samples):
    with pytest.raises(ValueError, match="sample count"):
        UniformGrid(samples)


def test_grid_parameters_are_the_uniform_ones():
    assert UniformGrid(np.int64(4)).theta.tolist() == [0.0, np.pi / 2, np.pi, 1.5 * np.pi]
    assert UniformGrid(1).theta.tolist() == [0.0]


def test_complex_coefficients_are_kept_read_only():
    w = apply_window(decaying_spectrum(32, seed=9), 10)
    path = w
    assert not path.a.flags.writeable
    stack = TrigPath(path.k, np.stack((path.a, path.a)))
    assert stack.a.shape == (2, path.n_terms)
    assert not stack.a.flags.writeable


def test_table_set_is_built_only_on_pointwise_use():
    spec = dft(random_path(64, seed=4))
    w = apply_window(spec, 10)
    spec.eval(UniformGrid(64))
    w.eval(UniformGrid(33))
    tail_energy(spec, np.arange(1, 65))
    reconstruction_mse(spec, w)
    assert not {"_tables", "_horner"} & (vars(spec).keys() | vars(w).keys())
    # once built the set is held by the curve, read-only, for every later call
    w.eval_with_deriv(0.3)
    assert "_tables" in vars(w) and "_tables" not in vars(spec)
    assert "_horner" not in vars(w)
    tables = vars(w)["_tables"]
    assert all(not table.flags.writeable for table in tables)
    w.eval_with_deriv(np.linspace(0.0, 7.0, 5))
    assert w._tables is tables and "_horner" in vars(w)
    assert tables[0].dtype == np.float64 and np.array_equal(tables[0], w.k.astype(np.float64))
    # one (2, ..., K) table of |a| and k*|a|, for one curve and for a stack
    amp = np.abs(w.a)
    assert np.array_equal(tables[2], [amp, w.k * amp])
    stack = TrigPath(w.k, np.stack((w.a, 2 * w.a)))
    assert "_tables" not in vars(stack)
    stack.eval_with_deriv(np.array([0.3, 0.4]))
    table = vars(stack)["_tables"][2]
    assert not table.flags.writeable
    assert np.array_equal(table, [[amp, 2 * amp], [w.k * amp, w.k * 2 * amp]])


def _reference_with_deriv(k, a, th):
    """(x, y, dx, dy) with the rotations formed from the int64 indices."""
    amp, phase = np.abs(a), np.angle(a)
    phase = np.where(phase <= -np.pi, phase + TWO_PI, phase)
    w = np.exp(1j * (np.multiply.outer(th, k) + phase))
    c, s = w.real, w.imag
    kamp = k * amp
    return np.vecdot(c, amp), np.vecdot(s, amp), -np.vecdot(s, kamp), np.vecdot(c, kamp)


def _curve(k, seed):
    rng = np.random.default_rng(seed)
    k = np.asarray(k, dtype=np.int64)
    return TrigPath(k, rng.normal(size=k.size) + 1j * rng.normal(size=k.size))


_PINNED_CURVES = {
    "K0": np.arange(0),
    "K1": np.arange(1, 2),
    "K101": np.arange(-50, 51),
    "K758": np.arange(-378, 380),
    # past 2**53 the float copy of k rounds, as numpy's promotion does
    "huge-k": np.array([-(2**62) - 1, -3, 0, 2**53 + 1, 2**62 + 3, 2**63 - 1]),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CURVES))
def test_float_indices_keep_every_angle_of_the_int64_ones(name, monkeypatch):
    path = _curve(_PINNED_CURVES[name], seed=len(name))
    k = path.k
    assert k.dtype == np.int64
    # a Python float takes the scalar branch and gives floats
    got = path.eval_with_deriv(7.25)
    want = _reference_with_deriv(k, path.a, 7.25 % TWO_PI)
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want, dtype=np.float64).tobytes()
    # a (1,) array and a run of more rows than one block holds, each
    # parameter rounding as it does alone
    monkeypatch.setattr(trigpath, "_BLOCK_ROWS", 5)
    th = np.linspace(-9.0, 30.0, trigpath._BLOCK_ROWS + 3)
    got = np.array(path.eval_with_deriv(th))
    alone = np.concatenate([path.eval_with_deriv(th[i:i + 1]) for i in range(th.size)], axis=1)
    assert got.tobytes() == alone.tobytes()
    if name == "huge-k":
        # past 2**53 no k*th has an accurate float64 value in either kernel:
        # the values are finite and bounded by the coefficient sums
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got[:2]) <= np.sum(np.abs(path.a)))
        assert np.all(np.abs(got[2:]) <= np.sum(np.abs(k.astype(np.float64) * path.a)))
    else:
        want = np.array(curve_sum_longdouble(k, path.a, th))
        assert np.all(np.abs(got - want) <= rounding_bounds(k, path.a)[:, None])
    # a 3-curve stack, one parameter per curve
    stack = TrigPath(k, np.stack([path.a, 2.0 * path.a[::-1], -path.a]))
    th = np.array([0.3, -4.0, 11.5])
    got = stack.eval_with_deriv(th)
    want = _reference_with_deriv(k, stack.a, np.mod(th, TWO_PI))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _gapped(n_terms, rng):
    return np.sort(rng.choice(np.arange(-3 * n_terms - 2, 3 * n_terms + 3), n_terms,
                              replace=False))


_CURVE_SHAPES = {
    "contiguous": lambda n, rng: np.arange(n) - n // 2,
    "gapped": _gapped,
    "negative-only": lambda n, rng: np.arange(-n, 0),
    "positive-only": lambda n, rng: np.arange(1, n + 1),
}


@pytest.mark.parametrize("shape", sorted(_CURVE_SHAPES))
@pytest.mark.parametrize("n_terms", [0, 1, 101, 758, 2062, 5000])
def test_array_evaluation_stays_within_the_rounding_bound(shape, n_terms):
    # against the extended-precision sum at the same wrapped parameters
    rng = np.random.default_rng(n_terms)
    k = _CURVE_SHAPES[shape](n_terms, rng)
    a = (rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)) * rng.uniform(0.0, 2.0)
    path = TrigPath(k, a)
    th = np.concatenate(([0.0, -0.0, 1e12, -1e12, TWO_PI, np.pi], rng.uniform(-50.0, 50.0, 19)))
    got = np.array(path.eval_with_deriv(th))
    want = np.array(curve_sum_longdouble(k, a, th))
    assert np.all(np.abs(got - want) <= rounding_bounds(k, a)[:, None])
    assert np.array_equal(got[:2], path.eval(th))


@pytest.mark.parametrize("block", [1, 2, 7, 1024])
def test_array_points_do_not_depend_on_the_array_shape(block, monkeypatch):
    # a (rows, R) array gives the bytes of its flattened parameters, and
    # every parameter the bytes it gives alone, at any block height
    path = _curve(np.arange(-50, 51), seed=3)
    th = np.random.default_rng(4).uniform(-20.0, 20.0, (7, 3))
    alone = np.array([path.eval_with_deriv(t[None]) for t in th.ravel()])[..., 0].T
    monkeypatch.setattr(trigpath, "_BLOCK_ROWS", block)
    flat = np.array(path.eval_with_deriv(th.ravel()))
    table = np.array(path.eval_with_deriv(th))
    assert table.shape == (4, 7, 3)
    assert table.tobytes() == flat.tobytes() == alone.tobytes()


@pytest.mark.parametrize("cls, extra", [(TrigPath, {}), (Spectrum, {"n_samples": 8})],
                         ids=["TrigPath", "Spectrum"])
def test_construction_leaves_the_callers_arrays_writable(cls, extra):
    k, a = np.arange(3), np.ones(3, dtype=np.complex128)
    curve = cls(k, a, **extra)
    k[0], a[0] = -1, 2.0
    assert curve.k.tolist() == [0, 1, 2] and curve.a.tolist() == [1.0, 1.0, 1.0]
    assert not curve.k.flags.writeable and not curve.a.flags.writeable


@pytest.mark.parametrize("n, m", [(32, 10), (758, 100), (758, 758), (2062, 2062)])
def test_curve_holds_the_spectrum_coefficients_bit_for_bit(n, m):
    # a spectrum is its curve: it evaluates exactly as the curve of its terms
    spec = dft(random_path(n, seed=n))
    assert isinstance(spec, TrigPath)
    w = apply_window(spec, m)
    plain = TrigPath(w.k, w.a)
    assert plain.a.tobytes() == w.a.tobytes()
    assert w.eval_with_deriv(0.3) == plain.eval_with_deriv(0.3)
    th = np.linspace(-7.0, 9.0, 17)
    for theta in (th, UniformGrid(n)):
        for got, want in zip(w.eval(theta), plain.eval(theta)):
            assert np.array_equal(got, want)
    other = apply_window(dft(random_path(n, seed=n + 1)), m)
    stack = TrigPath(w.k, np.stack((other.a, w.a, other.a)))
    assert stack.a[1].tobytes() == w.a.tobytes()
    assert stack.a[0].tobytes() == other.a.tobytes()
