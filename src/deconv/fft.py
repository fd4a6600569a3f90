"""Discrete Fourier transforms of nonempty 1-D arrays, any length.

``fft`` and ``ifft`` delegate to ``numpy.fft``: the forward transform is
unnormalised and the inverse carries 1/N.
"""

from __future__ import annotations

import numpy as np


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _checked(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} expects a nonempty 1-D array")
    return x


def fft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised forward transform, into ``out`` when given."""
    return np.fft.fft(_checked(x, "fft"), out=out)


def ifft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform with the 1/N factor, into ``out`` (may be ``x``) when given."""
    return np.fft.ifft(_checked(x, "ifft"), out=out)
