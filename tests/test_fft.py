import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierpath.fft import _fft_rows, _plan, fft

from oracles import naive_dft


def _random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", list(range(2, 65)))
def test_matches_naive_small_lengths(n):
    for trial in range(3):
        x = _random_signal(n, 1000 * n + trial)
        got = fft(x)
        want = naive_dft(x)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [379, 758])
def test_matches_naive_large_prime_factor(n):
    x = _random_signal(n, n)
    got = fft(x)
    want = naive_dft(x)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [2062, 8198, 65537])
def test_matches_numpy_at_large_lengths(n):
    x = _random_signal(n, n)
    got = fft(x)
    want = np.fft.fft(x)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def _recursive_fft(x):
    # The per-subsequence recursion whose bits fft promises: halve into
    # x[0::2] and x[1::2] down to an odd length, and transform an odd
    # length q > 1 as a chirp convolution padded to a power of two.
    n = x.size
    if n % 2 == 0:
        q = n // 2
        even, odd = _recursive_fft(x[0::2]), _recursive_fft(x[1::2])
        k = np.arange(n, dtype=np.int64)
        return even[k % q] + odd[k % q] * np.exp((-2j * np.pi / n) * k)
    if n == 1:
        return x.copy()
    pad = 1 << (2 * n - 2).bit_length()
    t = np.arange(n, dtype=np.int64)
    b = np.exp((-1j * np.pi / n) * ((t * t) % (2 * n)))
    kernel = np.zeros(pad, dtype=complex)
    kernel[:n] = np.conj(b)
    kernel[pad - n + 1:] = np.conj(b[1:])[::-1]
    buf = np.zeros(pad, dtype=complex)
    buf[:n] = x * b
    spec = _recursive_fft(buf) * _recursive_fft(kernel)
    conv = np.conj(_recursive_fft(np.conj(spec))) / pad
    return conv[:n] * b


@pytest.mark.parametrize("n", list(range(1, 65)) + [379, 758, 1031, 2062, 4096, 8198])
def test_bits_match_the_per_subsequence_recursion(n):
    x = _random_signal(n, 17 * n)
    assert fft(x).tobytes() == _recursive_fft(x).tobytes()


# pure halvings, and chirp leaves (prime or composite) alone and halved
@pytest.mark.parametrize("n", [2, 59, 105, 243, 379, 758, 1024, 2062])
def test_rows_transform_independently(n):
    x = np.stack([_random_signal(n, 31 * n + row) for row in range(5)])
    got = _fft_rows(x)
    for row in range(5):
        assert got[row].tobytes() == _fft_rows(x[row:row + 1])[0].tobytes()


# peak over the input's bytes: the level-at-once transform holds O(n),
# where holding every pending level would grow as O(n log n); the warm
# peaks measured 2.4 (2**16) and 19.0 (2062, through the chirp)
@pytest.mark.parametrize("n, ratio", [(1 << 16, 4), (2062, 24)])
def test_memory_stays_linear(n, ratio):
    x = _random_signal(n, 3)
    fft(x)
    tracemalloc.start()
    try:
        fft(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * x.nbytes


def test_each_length_is_planned_once():
    # a cold 2062-point transform plans its own length and its chirp's
    # padded length 4096; a warm one plans nothing and gives the same bits
    x = _random_signal(2062, 5)
    _plan.cache_clear()
    tracemalloc.start()
    try:
        cold = fft(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _plan.cache_info().misses == 2
    # the plans' tables included; measured 24.5
    assert peak <= 32 * x.nbytes
    warm = fft(x)
    info = _plan.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert warm.tobytes() == cold.tobytes()


def test_impulse_transforms_to_ones():
    x = np.zeros(12, dtype=complex)
    x[0] = 1.0
    assert np.allclose(fft(x), np.ones(12), atol=1e-14)


@pytest.mark.parametrize("n", [2, 5, 16, 37, 60, 379, 758])
def test_ifft_round_trip(n):
    # numpy's inverse transform is the reference inverse
    x = _random_signal(n, 7 * n)
    back = np.fft.ifft(fft(x))
    assert np.max(np.abs(back - x)) < 1e-12


def test_chirp_table_cache_holds_a_few_lengths():
    # a plan of a large length holds tables of up to 2**21 complex points,
    # so the cache keeps only the few lengths one command uses; a plan
    # evicted and built again gives the same bits
    x = _random_signal(379, 1)
    first = fft(x)
    for n in range(3, 200, 2):
        fft(_random_signal(n, n))
    assert _plan.cache_info().currsize <= 4
    assert fft(x).tobytes() == first.tobytes()


def test_rejects_empty_and_2d_input():
    with pytest.raises(ValueError):
        fft(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        fft(np.zeros((3, 3), dtype=complex))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_property_matches_naive(n, seed):
    x = _random_signal(n, seed)
    got = fft(x)
    want = naive_dft(x)
    assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1e-30)
