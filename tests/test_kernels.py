import math

import numpy as np
import pytest

from deconv.deconvolution import DeconvConfig, make_sinc_filter
from deconv.errors import InputError, ParameterError
from deconv.kernels import BumpKernel, GaussianKernel, Kernel, TabulatedKernel, make_kernel
from deconv.multipoly import MultiPolynomial, convolve_multipoly
from deconv.polynomials import ConvOperator
from deconv.signals import discretize_kernel
from oracles import cosine_transform


def gaussian_moment_closed(m: int) -> float:
    """Oracle: central moments of a variance-2 Gaussian, (m-1)!! * 2^(m/2)."""
    if m % 2 == 1:
        return 0.0
    if m == 0:
        return 1.0
    return float(math.prod(range(1, m, 2))) * 2 ** (m // 2)


def bump_moment_dense(m: int) -> float:
    """Oracle: Simpson on two million panels of the raw bump density."""
    x = np.linspace(-1.0, 1.0, 2_000_001)
    w = np.zeros_like(x)
    inside = np.abs(x) < 1
    with np.errstate(divide="ignore"):
        w[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    h = x[1] - x[0]
    def simpson(y):
        return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())
    return float(simpson(x**m * w) / simpson(w))


class TestEval:
    def test_gaussian_origin(self, gaussian):
        assert abs(gaussian.eval(1.0, 0.0) - 1.0 / math.sqrt(4 * math.pi)) < 1e-15

    def test_gaussian_scale(self, gaussian):
        assert abs(gaussian.eval(2.0, 0.0) - 0.5 / math.sqrt(4 * math.pi)) < 1e-15

    def test_bump_outside_support(self, bump):
        assert bump.eval(1.0, 1.0) == 0.0
        assert bump.eval(0.5, 0.51) == 0.0

    def test_zero_beyond_effective_support(self, gaussian):
        assert gaussian.eval(1.0, 15.0) == 0.0

    def test_negative_epsilon(self, gaussian):
        with pytest.raises(ParameterError):
            gaussian.eval(-1.0, 0.0)
        with pytest.raises(ParameterError):
            gaussian.eval(0.0, 0.0)


class TestMoments:
    def test_normalization(self, gaussian, bump):
        assert abs(gaussian.moment(0) - 1.0) < 1e-10
        assert abs(bump.moment(0) - 1.0) < 1e-10

    def test_gaussian_low_moments(self, gaussian):
        assert abs(gaussian.moment(2) - 2.0) < 1e-10
        assert abs(gaussian.moment(4) - 12.0) < 1e-10

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 14, 20])
    def test_gaussian_closed_form(self, gaussian, m):
        # truncation at 10*sqrt(2) only matters beyond m ~ 30
        closed = gaussian_moment_closed(m)
        assert abs(gaussian.moment(m) - closed) < 1e-8 * closed

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 11, 13, 15])
    def test_odd_moments_exactly_zero(self, gaussian, bump, m):
        assert gaussian.moment(m) == 0.0
        assert bump.moment(m) == 0.0
        assert gaussian.scaled_moment(0.9, m) == 0.0

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_bump_moments_vs_dense_simpson(self, bump, m):
        dense = bump_moment_dense(m)
        assert abs(bump.moment(m) - dense) < 1e-9

    def test_scaled_moment_law(self, gaussian):
        assert abs(gaussian.scaled_moment(0.5, 2) - 0.5) < 1e-10
        assert abs(gaussian.scaled_moment(2.0, 4) - 12.0 * 16.0) < 1e-8 * 192.0

    def test_bump_scaled_zeroth(self, bump):
        assert abs(bump.scaled_moment(1.0, 0) - 1.0) < 1e-10

    def test_bad_order(self, gaussian):
        with pytest.raises(ParameterError):
            gaussian.moment(-1)


def fourier(kernel, epsilon, xi):
    return float(kernel.fourier_grid(epsilon, np.array([xi]))[0])


class TestFourier:
    def test_unit_at_zero(self, gaussian, bump):
        assert abs(fourier(gaussian, 1.0, 0.0) - 1.0) < 1e-12
        assert abs(fourier(bump, 0.9, 0.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("xi", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_gaussian_closed_vs_quadrature(self, gaussian, xi):
        closed = fourier(gaussian, 1.0, xi)
        quad = cosine_transform(gaussian, 1.0, xi)
        assert abs(closed - quad) < 1e-8

    def test_gaussian_known_value(self, gaussian):
        expect = math.exp(-4 * math.pi**2 * 0.3025)
        assert abs(fourier(gaussian, 0.55, 1.0) - expect) < 1e-12 * expect

    @pytest.mark.parametrize("xi", [0.3, 1.7, 4.0])
    def test_dilation_law(self, gaussian, bump, xi):
        for k, eps in ((gaussian, 0.7), (bump, 0.9)):
            assert abs(fourier(k, eps, xi) - fourier(k, 1.0, eps * xi)) < 1e-12

    def test_fourier_grid_matches_pointwise(self, bump):
        xis = np.linspace(-3, 3, 41)
        grid = bump.fourier_grid(0.9, xis)
        point = np.array([cosine_transform(bump, 0.9, float(x)) for x in xis])
        assert np.abs(grid - point).max() < 1e-9

    def test_non_even_kernel_has_no_transform(self):
        class Skewed(Kernel):
            parity = "general"
            support_radius = 1.0

            def density(self, x):
                x = np.asarray(x, dtype=float)
                return np.where(np.abs(x) < 1.0, 0.75 * (1.0 + x) ** 2, 0.0)

        with pytest.raises(ParameterError):
            Skewed().fourier_grid(1.0, np.linspace(-1.0, 1.0, 5))


class TestAdmissibility:
    def test_gaussian_passes(self, gaussian):
        rep = gaussian.check_admissible(1.0, 10.0, 1001)
        assert rep.passed
        assert rep.min_value >= 0.0
        assert abs(rep.max_value - 1.0) < 1e-12
        assert not rep.zero_crossings

    def test_gaussian_small_eps_passes(self, gaussian):
        assert gaussian.check_admissible(0.55, 10.0, 1001).passed

    def test_bump_fails_with_sign_changes(self, bump):
        rep = bump.check_admissible(0.9, 20.0, 4001)
        assert not rep.passed
        assert rep.min_value < 0.0
        assert rep.first_violation is not None
        assert len(rep.zero_crossings) >= 2

    def test_report_dict_roundtrips(self, gaussian):
        d = gaussian.check_admissible(1.0, 5.0, 101).to_dict()
        assert d["passed"] is True and "zero_crossings" in d


class TestTabulated:
    def test_normalises_and_moments(self, tmp_path):
        x = np.linspace(-2, 2, 2001)
        vals = 7.0 * np.exp(-(x**2))  # deliberately unnormalised
        path = tmp_path / "k.csv"
        with open(path, "w") as fh:
            fh.write("x,value\n")
            for xi, vi in zip(x, vals):
                fh.write(f"{float(xi)!r},{float(vi)!r}\n")
        k = make_kernel("tabulated", csv_path=str(path), parity="even")
        assert abs(k.moment(0) - 1.0) < 1e-10
        # truncated exp(-x^2) on [-2,2]: dense-oracle second moment
        dense_x = np.linspace(-2, 2, 400001)
        dense_v = np.exp(-(dense_x**2))
        oracle = np.trapezoid(dense_x**2 * dense_v, dense_x) / np.trapezoid(dense_v, dense_x)
        assert abs(k.moment(2) - oracle) < 1e-6

    def test_parity_spot_check_rejects_asymmetric(self):
        x = np.linspace(-1, 1, 101)
        vals = np.exp(-(x**2)) * (1 + 0.5 * x)
        with pytest.raises(ParameterError):
            TabulatedKernel(x, vals, parity="even")

    def test_general_parity_keeps_odd_moments(self):
        x = np.linspace(-1, 1, 2001)
        vals = np.exp(-(x**2)) * (1 + 0.5 * x)
        k = TabulatedKernel(x, vals, parity="general")
        assert k.moment(1) != 0.0

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(InputError):
            TabulatedKernel(np.array([0.0, 1.0, 1.0]), np.ones(3))

    def test_rejects_csv_without_two_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1.0\n")
        with pytest.raises(InputError):
            TabulatedKernel.from_csv(str(path))


def test_make_kernel_unknown_family():
    with pytest.raises(ParameterError):
        make_kernel("boxcar")


_GAUSS = GaussianKernel()
_BUMP = BumpKernel()
_X = np.linspace(-1.0, 1.0, 101)
_TABULATED = TabulatedKernel(_X, np.exp(-_X**2), parity="even")

# every entry point that validates a positive finite real, with the value
# under test in that argument
POSITIVE_ARGUMENTS = {
    "eval-epsilon": lambda v: _GAUSS.eval(v, 0.0),
    "scaled_moment-epsilon": lambda v: _GAUSS.scaled_moment(v, 2),
    "fourier_grid-epsilon": lambda v: _BUMP.fourier_grid(v, np.zeros(3)),
    "gaussian-fourier_grid-epsilon": lambda v: _GAUSS.fourier_grid(v, np.zeros(3)),
    "tabulated-fourier_grid-epsilon": lambda v: _TABULATED.fourier_grid(v, np.zeros(3)),
    "check_admissible-epsilon": lambda v: _GAUSS.check_admissible(v, 5.0, 11),
    "ConvOperator-epsilon": lambda v: ConvOperator(_GAUSS, v, 4),
    "convolve_multipoly-epsilon": lambda v: convolve_multipoly(
        _GAUSS, v, MultiPolynomial(2, {(2, 0): 1.0})),
    "discretize_kernel-epsilon": lambda v: discretize_kernel(_GAUSS, v, 0.01),
    "discretize_kernel-dt": lambda v: discretize_kernel(_GAUSS, 0.5, v),
    "DeconvConfig-epsilon": lambda v: DeconvConfig(_GAUSS, v, 3),
    "make_sinc_filter-bandwidth": lambda v: make_sinc_filter(v, 0.01, 8.0),
    "make_sinc_filter-dt": lambda v: make_sinc_filter(1.0, v, 8.0),
    "make_sinc_filter-half_width": lambda v: make_sinc_filter(1.0, 0.01, v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(POSITIVE_ARGUMENTS))
def test_non_positive_or_non_finite_argument_is_a_parameter_error(entry, value):
    with pytest.raises(ParameterError):
        POSITIVE_ARGUMENTS[entry](value)
