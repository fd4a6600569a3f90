import math

import numpy as np
import pytest

from deconv.errors import PrecisionError
from deconv.quadrature import integrate
from oracles import integrate_2d


def test_polynomial_exact():
    # K15 integrates degree <= 29 exactly; closed form: int_0^2 x^7 = 32
    val, err = integrate(lambda x: x**7, 0.0, 2.0)
    assert abs(val - 32.0) < 1e-12
    assert err < 1e-10


def test_gaussian_integral():
    # int_-8^8 exp(-x^2) = sqrt(pi) - tails < 1e-28
    val, _ = integrate(lambda x: np.exp(-x * x), -8.0, 8.0)
    assert abs(val - math.sqrt(math.pi)) < 1e-12


def test_oscillatory():
    # int_0^10 cos(7x) = sin(70)/7
    val, _ = integrate(lambda x: np.cos(7.0 * x), 0.0, 10.0, initial_panels=32)
    assert abs(val - math.sin(70.0) / 7.0) < 1e-10


def test_flat_edge_integrand():
    # all derivatives vanish at the endpoints; adaptive refinement must cope
    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = np.abs(x) < 1
        with np.errstate(divide="ignore", over="ignore"):
            out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
        return out

    val, _ = integrate(f, -1.0, 1.0, initial_panels=16)
    dense = np.linspace(-1, 1, 2_000_001)
    simpson = _simpson(f(dense), dense)
    assert abs(val - simpson) < 1e-10


def test_precision_error_carries_estimate():
    # cos(10^4 x) on [0, 1] with a tiny panel budget cannot converge
    with pytest.raises(PrecisionError) as exc:
        integrate(lambda x: np.cos(1e4 * x), 0.0, 1.0,
                  abs_tol=1e-14, rel_tol=1e-14, initial_panels=2, max_panels=4)
    assert exc.value.achieved_error > 0


def test_bad_bounds():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


def test_2d_separable():
    # int int x^2 e^-(x^2+y^2) over [-6,6]^2 = (sqrt(pi)/2) * sqrt(pi)
    val = integrate_2d(
        lambda x, y: (x**2) * np.exp(-(x**2) - y**2), -6, 6, -6, 6, tol=1e-10
    )
    assert abs(val - 0.5 * math.pi) < 1e-8


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    n = len(x) - 1
    h = x[1] - x[0]
    return float(h / 3 * (y[0] + y[-1] + 4 * y[1:n:2].sum() + 2 * y[2:n:2].sum()))
