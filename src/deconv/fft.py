"""Discrete Fourier transforms of nonempty 1-D arrays, any length.

``fft`` and ``ifft`` delegate to ``numpy.fft``: the forward transform is
unnormalised and the inverse carries 1/N.  They serve the convolver and
``signals.idft``; ``signals.dft`` calls numpy's ``rfft`` itself, since a
real signal's upper bins are the conjugates of its lower ones.
``next_fast_len`` picks the 5-smooth lengths (2^a 3^b 5^c) at which numpy's
mixed-radix FFT runs fast.
"""

from __future__ import annotations

import numpy as np


def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (1 for n <= 1)."""
    best = 1 << max(n - 1, 0).bit_length()  # the power of two bounds the search
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that lifts it to n
            best = min(best, p35 << max(-(-n // p35) - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
