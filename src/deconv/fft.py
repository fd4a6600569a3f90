"""Discrete Fourier transforms of nonempty 1-D arrays, any length.

``fft`` and ``ifft`` delegate to ``numpy.fft``: the forward transform is
unnormalised and the inverse carries 1/N.  ``direct_dft`` evaluates the
definition in O(N^2) and serves only as a reference for the tests.
"""

from __future__ import annotations

import numpy as np


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def direct_dft(x: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """O(N^2) transform straight from the definition (any length)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    # reducing k*j mod n in integers keeps each twiddle's phase in [0, 2 pi),
    # so its rounding does not grow with n
    w = np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)
    return w @ x


def _checked(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} expects a nonempty 1-D array")
    return x


def fft(x: np.ndarray) -> np.ndarray:
    """Unnormalised forward transform."""
    return np.fft.fft(_checked(x, "fft"))


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse transform with the 1/N factor."""
    return np.fft.ifft(_checked(x, "ifft"))
