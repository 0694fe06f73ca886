"""Per-step audit of the closed loop the CLI writes, against a numpy-only field.

``simulate`` records every step of its RK4 loop in ``trajectory.csv`` with
17 significant digits, so every row is the exact state the loop held.  From
each row, one reference RK4 step of the guiding field (``tests/oracles.py``,
written out from the field's definition) must land on the next row.  A
chaotic run cannot hide a wrong step this way: each step starts from the
recorded row, not from the reference's own previous step.
"""

import numpy as np
import pytest

from fourierpath.cli import main

from oracles import rk4_step_reference, signed_indices

N, A, B = 758, 3, 2
SIGMA1, SIGMA2, SEED = 0.1, 0.15, 1
K1, K2, DT, DURATION = 1.0, 1.0, 1e-3, 0.3
# largest step error allowed, relative to max(1, |value|); a correct loop
# stays near 1e-12 on these runs
GATE = 1e-10


def _followed_curve(m):
    """(k, a) of the noisy lissajous data's width-m window (m None: all of it)."""
    t = 2.0 * np.pi * np.arange(N) / N
    rng = np.random.default_rng(SEED)
    z1, z2 = rng.standard_normal(N), rng.standard_normal(N)
    c = np.cos(A * t) + SIGMA1 * z1 + 1j * (np.sin(B * t) + SIGMA2 * z2)
    # np.fft, whose coefficients are closer to exact than a quadratic sum's
    k, a = signed_indices(N), np.fft.fft(c) / N
    keep = np.ones(N, bool) if m is None else 2 * np.abs(k) <= m
    return k[keep], a[keep]


@pytest.fixture(scope="module", params=[None, 100], ids=["full", "m100"])
def run(request, tmp_path_factory):
    """(m, trajectory rows) of one CLI simulate of the noisy curve."""
    out = tmp_path_factory.mktemp("audit") / "out"
    width = [] if request.param is None else ["--window-m", str(request.param)]
    argv = ["simulate", "--synth", f"lissajous,{N},{A},{B}", "--sigma1", str(SIGMA1),
            "--sigma2", str(SIGMA2), "--seed", str(SEED), *width,
            "--x0", "-1", "--y0", "2", "--k1", str(K1), "--k2", str(K2),
            "--duration", str(DURATION), "--dt", str(DT), "--stride", "1", "--out-dir", str(out)]
    assert main(argv) == 0
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert table.shape == (round(DURATION / DT) + 1, 8)
    return request.param, table


def _step_errors(table, k, a, k1=K1, k2=K2, weights=(1.0, 2.0, 2.0, 1.0)):
    """Per step, the largest gap between the next row's (x, y, theta) and one
    reference step from the row before, relative to max(1, |value|)."""
    state = table[:, 1:4].T
    stepped = rk4_step_reference(k, a, k1, k2, state[:, :-1], DT, weights)
    return np.max(np.abs(stepped - state[:, 1:]) / np.maximum(1.0, np.abs(state[:, 1:])), axis=0)


def test_every_row_is_one_reference_step_from_the_last(run):
    m, table = run
    assert np.array_equal(table[0, 1:4], [-1.0, 2.0, 0.0])
    assert np.max(_step_errors(table, *_followed_curve(m))) <= GATE


def test_the_audit_flags_one_nudged_row(run):
    m, table = run
    nudged = table.copy()
    nudged[150, 1:4] *= 1.0 + 1e-8
    errors = _step_errors(nudged, *_followed_curve(m))
    assert errors[149] > GATE
    assert np.max(np.delete(errors, [149, 150])) <= GATE


def test_the_audit_flags_a_changed_gain(run):
    m, table = run
    assert np.max(_step_errors(table, *_followed_curve(m), k1=1.001 * K1)) > GATE


@pytest.mark.parametrize("weights", [(1.0, 1.0, 2.0, 2.0), (2.0, 1.0, 1.0, 2.0)],
                         ids=["second-and-fourth", "outer-and-inner"])
def test_the_audit_flags_swapped_rk4_weights(run, weights):
    m, table = run
    assert np.max(_step_errors(table, *_followed_curve(m), weights=weights)) > GATE
