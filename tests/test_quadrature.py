import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from deconv.errors import PrecisionError
from deconv.quadrature import PANELS, integrate, rule
from oracles import adaptive_integrate, integrate_2d


# -- the package's fixed composite Gauss-Legendre rule ---------------------------

def test_rule_exact_to_degree_127_per_panel():
    # int_-1^1 P_k = 2 for k = 0 and 0 for k >= 1.  |P_k| <= 1, so a degree
    # the rule does not integrate exactly shows as an error far above rounding
    nodes, weights = rule(-1.0, 1.0, 1)
    got = legendre.legvander(nodes, 127).T @ weights
    assert abs(got[0] - 2.0) < 1e-14
    assert np.abs(got[1:]).max() < 1e-14


def test_integrate_exact_for_piecewise_degree_127():
    # 1 + P_126 + P_127 in the local coordinate of each of the PANELS panels
    # of [-1, 3] integrates to the panel width: 4 in total
    edges = np.linspace(-1.0, 3.0, PANELS + 1)

    def f(x):
        i = np.minimum(np.searchsorted(edges, x, side="right") - 1, PANELS - 1)
        t = (2.0 * x - edges[i] - edges[i + 1]) / (edges[i + 1] - edges[i])
        return legendre.legval(t, np.r_[1.0, np.zeros(125), 1.0, 1.0])

    assert abs(integrate(f, -1.0, 3.0) - 4.0) < 1e-13


def test_integrate_matches_adaptive_oracle():
    # flat-edged bump, oscillatory cosine, Gaussian: the kernels' integrands
    for f, a, b in (
        (lambda x: np.exp(-x * x), -8.0, 8.0),
        (lambda x: np.cos(7.0 * x), 0.0, 10.0),
        (_bump, -1.0, 1.0),
    ):
        ref, _ = adaptive_integrate(f, a, b, abs_tol=1e-15, rel_tol=1e-14,
                                    initial_panels=32)
        assert abs(integrate(f, a, b) - ref) < 1e-14


def test_integrate_bad_bounds():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


# -- the adaptive Gauss-Kronrod oracle --------------------------------------------

def test_polynomial_exact():
    # K15 integrates degree <= 29 exactly; closed form: int_0^2 x^7 = 32
    val, err = adaptive_integrate(lambda x: x**7, 0.0, 2.0)
    assert abs(val - 32.0) < 1e-12
    assert err < 1e-10


def test_gaussian_integral():
    # int_-8^8 exp(-x^2) = sqrt(pi) - tails < 1e-28
    val, _ = adaptive_integrate(lambda x: np.exp(-x * x), -8.0, 8.0)
    assert abs(val - math.sqrt(math.pi)) < 1e-12


def test_oscillatory():
    # int_0^10 cos(7x) = sin(70)/7
    val, _ = adaptive_integrate(lambda x: np.cos(7.0 * x), 0.0, 10.0, initial_panels=32)
    assert abs(val - math.sin(70.0) / 7.0) < 1e-10


def test_flat_edge_integrand():
    # all derivatives vanish at the endpoints; adaptive refinement must cope
    val, _ = adaptive_integrate(_bump, -1.0, 1.0, initial_panels=16)
    dense = np.linspace(-1, 1, 2_000_001)
    simpson = _simpson(_bump(dense), dense)
    assert abs(val - simpson) < 1e-10


def test_precision_error_carries_estimate():
    # cos(10^4 x) on [0, 1] with a tiny panel budget cannot converge
    with pytest.raises(PrecisionError) as exc:
        adaptive_integrate(lambda x: np.cos(1e4 * x), 0.0, 1.0,
                           abs_tol=1e-14, rel_tol=1e-14, initial_panels=2, max_panels=4)
    assert exc.value.achieved_error > 0


def test_bad_bounds():
    with pytest.raises(ValueError):
        adaptive_integrate(lambda x: x, 1.0, 0.0)


def test_2d_separable():
    # int int x^2 e^-(x^2+y^2) over [-6,6]^2 = (sqrt(pi)/2) * sqrt(pi)
    val = integrate_2d(
        lambda x, y: (x**2) * np.exp(-(x**2) - y**2), -6, 6, -6, 6, tol=1e-10
    )
    assert abs(val - 0.5 * math.pi) < 1e-8


def _bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = np.abs(x) < 1
    with np.errstate(divide="ignore", over="ignore"):
        out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    return out


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    n = len(x) - 1
    h = x[1] - x[0]
    return float(h / 3 * (y[0] + y[-1] + 4 * y[1:n:2].sum() + 2 * y[2:n:2].sum()))
