import numpy as np
import pytest
from hypothesis import given, strategies as st

from deconv.fft import fft, ifft, next_fast_len
from oracles import direct_dft


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_pow2_helpers():
    # next_fast_len: the smallest 2^a 3^b 5^c at or above n
    assert [next_fast_len(n) for n in (0, 1, 2, 7, 1000, 1024, 3375, 3413)] == \
        [1, 1, 2, 8, 1000, 1024, 3375, 3456]
    fast = [n for n in range(1, 5001) if _is_5_smooth(n)]
    for n in range(1, 5001):
        assert next_fast_len(n) == next(m for m in fast if m >= n)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 3, 240, 2001, 2731])
def test_matches_direct_dft(n, rng):
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.abs(fft(x) - direct_dft(x)).max() < 1e-10


def test_roundtrip_1024(rng):
    x = rng.normal(size=1024)
    assert np.abs(ifft(fft(x)) - x).max() < 1e-10


def test_non_pow2_path(rng):
    x = rng.normal(size=240)
    # length with prime factors other than 2; checked against the definition
    # evaluated bin by bin
    k = 7
    expect = sum(x[j] * np.exp(-2j * np.pi * k * j / 240) for j in range(240))
    assert abs(fft(x)[k] - expect) < 1e-10
    assert np.abs(ifft(fft(x)) - x).max() < 1e-9


def test_constant_signal():
    x = np.full(16, 3.0)
    out = fft(x)
    assert abs(out[0] - 48.0) < 1e-12
    assert np.abs(out[1:]).max() < 1e-12


def test_zeros():
    assert np.abs(fft(np.zeros(32))).max() == 0.0


@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_roundtrip_property(log2n, seed):
    x = np.random.default_rng(seed).normal(size=2**log2n)
    assert np.abs(ifft(fft(x)) - x).max() < 1e-11


def test_rejects_empty():
    with pytest.raises(ValueError):
        fft(np.array([]))
