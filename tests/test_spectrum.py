import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierpath import (
    PathSamples,
    Spectrum,
    apply_window,
    dft,
    synth_path,
    tail_energy,
)
from fourierpath.fft import fft
from fourierpath.spectrum import write_spectrum_csv

from conftest import random_path, sparse_spectrum
from oracles import naive_coefficients, signed_indices, tail_energy_by_enumeration, window_members


class TestDft:
    def test_unit_circle_single_harmonic(self):
        spec = dft(synth_path("circle", 4, [1.0]))
        assert spec.coefficient(1) == pytest.approx(1.0 + 0j, abs=1e-12)
        for k in (-1, 0, 2):
            assert abs(spec.coefficient(k)) < 1e-12

    def test_constant_path_is_dc_only(self):
        spec = dft(PathSamples(np.tile([3.0, 4.0], (7, 1))))
        assert spec.coefficient(0) == pytest.approx(3 + 4j, abs=1e-12)
        assert sum(abs(spec.coefficient(k)) for k in range(-3, 4) if k) < 1e-12

    @pytest.mark.parametrize("n", [16, 17, 758])
    def test_matches_quadratic_reference(self, n):
        ps = random_path(n, seed=n)
        spec = dft(ps)
        ref = naive_coefficients(ps.x + 1j * ps.y)
        ref_signed = dict(zip(signed_indices(n).tolist(), ref))
        got = np.array([spec.coefficient(int(k)) for k in spec.k])
        want = np.array([ref_signed[int(k)] for k in spec.k])
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [11, 12])
    def test_shift_property_is_exact(self, n):
        # the stored coefficient at -k must be the raw transform's bin N-k,
        # moved without arithmetic, so equality is bitwise
        ps = random_path(n, seed=3 * n)
        raw = fft(ps.x + 1j * ps.y) / n
        spec = dft(ps)
        for k in range(1, (n + 1) // 2):
            assert spec.coefficient(-k) == complex(raw[n - k])

    @pytest.mark.parametrize("n", [12, 13, 64, 101])
    def test_parseval_normalization(self, n):
        ps = random_path(n, seed=n + 5)
        spec = dft(ps)
        sample_side = np.sum(np.abs(ps.x + 1j * ps.y) ** 2) / n
        assert spec.energy() == pytest.approx(sample_side, rel=1e-9)

    def test_even_n_stores_single_half_rate_bin(self):
        spec = dft(random_path(8, seed=1))
        assert spec.k.tolist() == [-3, -2, -1, 0, 1, 2, 3, 4]


class TestWindow:
    def test_full_width_keeps_everything(self):
        for n in (8, 9):
            spec = dft(random_path(n, seed=n))
            w = apply_window(spec, n)
            assert np.array_equal(w.k, spec.k)
            assert np.array_equal(w.a, spec.a)

    def test_width_two_keeps_three_indices(self):
        spec = dft(random_path(7, seed=0))
        w = apply_window(spec, 2)
        assert w.k.tolist() == [-1, 0, 1]

    def test_width_100_of_758_keeps_101(self):
        spec = dft(random_path(758, seed=0))
        w = apply_window(spec, 100)
        assert w.k.size == 101
        assert w.k[0] == -50 and w.k[-1] == 50
        assert w.n_samples == 758

    def test_window_bounds_by_parity(self):
        spec = dft(random_path(128, seed=3))
        for m, hi in ((100, 50), (7, 3), (1, 0)):
            assert apply_window(spec, m).k.tolist() == list(range(-hi, hi + 1))
        with pytest.raises(ValueError):
            apply_window(spec, 0)

    def test_kept_coefficients_pass_through_unchanged(self):
        spec = dft(random_path(31, seed=9))
        w = apply_window(spec, 10)
        for k in w.k:
            assert w.coefficient(int(k)) == spec.coefficient(int(k))

    def test_out_of_range_width_rejected(self):
        spec = dft(random_path(16, seed=2))
        for m in (0, -1, 17):
            with pytest.raises(ValueError):
                apply_window(spec, m)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 40), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_property_idempotent(self, n, m, seed):
        if m > n:
            m = n
        spec = dft(random_path(n, seed=seed))
        once = apply_window(spec, m)
        twice = apply_window(once, m)
        assert np.array_equal(once.k, twice.k)
        assert np.array_equal(once.a, twice.a)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 40), m=st.integers(1, 40))
    def test_property_membership_matches_enumeration(self, n, m):
        if m > n:
            m = n
        spec = dft(random_path(n, seed=7))
        w = apply_window(spec, m)
        members = [k for k in spec.k.tolist() if k in set(window_members(m))]
        assert w.k.tolist() == members


class TestTailEnergy:
    def test_in_window_harmonic_has_no_tail(self):
        spec = sparse_spectrum(9, {1: 1.0 + 0j})
        assert tail_energy(spec, 2) == 0.0

    def test_out_of_window_harmonic_is_whole_tail(self):
        spec = sparse_spectrum(9, {2: 1.0 + 0j})
        assert tail_energy(spec, 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,m", [(16, 5), (17, 4), (64, 10), (101, 1)])
    def test_matches_enumeration_oracle(self, n, m):
        spec = dft(random_path(n, seed=n * m))
        want = tail_energy_by_enumeration(spec.k, spec.a, m)
        assert tail_energy(spec, m) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 9])
    def test_array_of_widths_matches_enumeration(self, n):
        spec = dft(random_path(n, seed=n))
        tails = tail_energy(spec, np.arange(1, n + 1))
        want = [tail_energy_by_enumeration(spec.k, spec.a, m) for m in range(1, n + 1)]
        assert tails == pytest.approx(want, abs=1e-12)
        assert type(tail_energy(spec, 3)) is float

    def test_out_of_range_widths_rejected(self):
        spec = dft(random_path(16, seed=2))
        for m in (0, 17, 2.0, np.array([1, 17])):
            with pytest.raises(ValueError):
                tail_energy(spec, m)

    def test_weakly_decreasing_in_width(self):
        spec = dft(random_path(64, seed=11))
        tails = [tail_energy(spec, m) for m in range(1, 65)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


class TestSpectrumType:
    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(k=np.array([1, 0]), a=np.array([1j, 1j]), n_samples=8)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(k=np.array([5]), a=np.array([1j]), n_samples=8)
        with pytest.raises(ValueError):
            Spectrum(k=np.array([-4]), a=np.array([1j]), n_samples=8)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(k=np.array([0]), a=np.array([np.nan + 0j]), n_samples=4)

    @pytest.mark.parametrize("n", [3.7, "8", True])
    def test_sample_count_that_is_not_an_integer_is_refused(self, n):
        with pytest.raises(ValueError, match="^n_samples must be an integer"):
            Spectrum(k=np.array([0]), a=np.array([1j]), n_samples=n)

    def test_stack_of_coefficients_rejected(self):
        # a stack of curves is a TrigPath; a spectrum is one curve
        with pytest.raises(ValueError, match="1-D"):
            Spectrum(k=np.array([0, 1]), a=np.ones((2, 2), dtype=complex), n_samples=4)


def test_csv_export_round_trips():
    spec = dft(random_path(9, seed=21))
    buf = io.StringIO()
    write_spectrum_csv(spec, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,re,im,magnitude"
    assert len(lines) == 10
    ks, res, ims = [], [], []
    for line in lines[1:]:
        k, re, im, mag = line.split(",")
        ks.append(int(k))
        res.append(float(re))
        ims.append(float(im))
        assert float(mag) == abs(complex(float(re), float(im)))
    assert ks == spec.k.tolist()
    assert np.array_equal(np.array(res) + 1j * np.array(ims), spec.a)
