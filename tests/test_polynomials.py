import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deconv.errors import InputError, ParameterError
from deconv.experiments import taylor_sin_mix
from deconv.kernels import TabulatedKernel
from deconv.polynomials import MAX_DEGREE, ConvOperator, Polynomial1D
from oracles import adaptive_integrate, coefficients_close, series_inverse


def smoothed_values_oracle(kernel, epsilon, poly, xs):
    """Independent oracle: quadrature of the convolution integral
    int p(x - y) phi_eps(y) dy at each sample point."""
    r = epsilon * kernel.support_radius
    out = []
    for x in xs:
        val, _ = adaptive_integrate(
            lambda y: poly(x - y) * kernel.eval(epsilon, y),
            -r, r, abs_tol=1e-12, rel_tol=1e-11, initial_panels=16,
        )
        out.append(val)
    return np.array(out)


class TestPolynomial1D:
    def test_degree_strips_trailing_noise(self):
        p = Polynomial1D([1.0, 2.0, 1e-20])
        assert p.degree() == 1
        assert p.coeffs.size == 3  # stored vector keeps the tiny entry

    def test_exact_zero_tail_dropped(self):
        assert Polynomial1D([1.0, 2.0, 0.0, 0.0]).coeffs.size == 2

    def test_zero_polynomial(self):
        z = Polynomial1D([0.0])
        assert z.is_zero() and z.degree() == 0

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Polynomial1D([1.0, math.nan])

    def test_evaluate(self):
        p = Polynomial1D([1.0, 0.0, 2.0])  # 1 + 2x^2
        assert p(3.0) == 19.0

    def test_evaluate_is_horner_bit_for_bit(self, rng):
        # reference: the Horner loop that polyval replaced, on fig1's
        # polynomial and grid and on random polynomials
        def horner(coeffs, xs):
            acc = np.zeros_like(xs)
            for c in coeffs[::-1]:
                acc = acc * xs + c
            return acc

        xs = np.linspace(-2.0, 2.0, 2001)
        polys = [taylor_sin_mix(50)] + [Polynomial1D(rng.uniform(-1, 1, n))
                                        for n in rng.integers(1, 60, 200)]
        for p in polys:
            assert np.array_equal(p(xs), horner(p.coeffs, xs))
        assert type(polys[0](0.5)) is float and polys[0](0.5) == horner(polys[0].coeffs, 0.5)

    def test_immutable(self):
        p = Polynomial1D([1.0])
        with pytest.raises((AttributeError, ValueError)):
            p.coeffs = np.array([2.0])

    def test_json_roundtrip(self):
        p = Polynomial1D([0.5, -1.0, 3.25])
        q = Polynomial1D.from_json(p.to_json())
        assert np.array_equal(p.coeffs, q.coeffs)

    def test_json_accepts_multi_index_form(self):
        text = '{"dim": 1, "terms": [{"alpha": [2], "coeff": 3.0}]}'
        p = Polynomial1D.from_json(text)
        assert np.array_equal(p.coeffs, [0.0, 0.0, 3.0])


class TestConvolve:
    def test_x_squared_gaussian(self, gaussian):
        # x^2 -> x^2 + c2 eps^2 with c2 = 2
        for eps in (0.5, 1.0, 1.3):
            op = ConvOperator(gaussian, eps, 4)
            q = op.convolve(Polynomial1D([0.0, 0.0, 1.0]))
            assert abs(q.coeffs[0] - 2.0 * eps**2) < 1e-10
            assert q.coeffs[1] == 0.0 and q.coeffs[2] == 1.0

    def test_affine_fixed_point(self, gaussian, bump):
        p = Polynomial1D([3.0, 5.0])
        for k in (gaussian, bump):
            q = ConvOperator(k, 0.8, 6).convolve(p)
            assert np.array_equal(q.coeffs, p.coeffs)

    def test_x4_gaussian_eps1(self, gaussian):
        # frozen from the moment identities: C(4,2) c2 = 12, C(4,4) c4 = 12
        q = ConvOperator(gaussian, 1.0, 6).convolve(Polynomial1D([0, 0, 0, 0, 1.0]))
        assert coefficients_close(q, [12.0, 0.0, 12.0, 0.0, 1.0], 1e-9, scale=12.0)

    def test_values_match_quadrature_oracle(self, gaussian, bump):
        p = Polynomial1D([0.3, -1.2, 0.0, 0.5, 0.25])
        xs = np.array([-1.0, -0.3, 0.0, 0.7, 1.4])
        for k, eps in ((gaussian, 0.6), (bump, 0.9)):
            q = ConvOperator(k, eps, 8).convolve(p)
            oracle = smoothed_values_oracle(k, eps, p, xs)
            assert np.abs(q(xs) - oracle).max() < 1e-9

    def test_degree_overflow(self, gaussian):
        op = ConvOperator(gaussian, 1.0, 3)
        with pytest.raises(ParameterError):
            op.convolve(Polynomial1D([0, 0, 0, 0, 1.0]))

    def test_max_degree_is_the_float64_binomial_limit(self, gaussian):
        assert math.isfinite(float(math.comb(MAX_DEGREE, MAX_DEGREE // 2)))
        with pytest.raises(OverflowError):
            float(math.comb(MAX_DEGREE + 1, (MAX_DEGREE + 1) // 2))
        with pytest.raises(ParameterError):
            ConvOperator(gaussian, 0.5, MAX_DEGREE + 1)

    def test_degree_and_top_two_coefficients_preserved(self, gaussian, rng):
        op = ConvOperator(gaussian, 0.9, 12)
        a = rng.uniform(-1, 1, 13)
        a[12] = 0.7
        p = Polynomial1D(a)
        q = op.convolve(p)
        assert q.degree() == 12
        assert q.coeffs[12] == p.coeffs[12]  # bit identical
        assert q.coeffs[11] == p.coeffs[11]

    def test_linearity_is_machine_exact(self, gaussian, rng):
        op = ConvOperator(gaussian, 0.7, 10)
        p = Polynomial1D(rng.uniform(-1, 1, 11))
        q = Polynomial1D(rng.uniform(-1, 1, 11))
        lhs = op.convolve(2.5 * p + (-1.75) * q)
        rhs = 2.5 * op.convolve(p) + (-1.75) * op.convolve(q)
        assert coefficients_close(lhs, rhs, 1e-14)

    def test_general_kernel_shifts_affine(self):
        # asymmetric kernel: first moment nonzero, T(x) = x - c1 eps
        x = np.linspace(-1, 1, 4001)
        vals = np.exp(-(x**2)) * (1 + 0.5 * x)
        k = TabulatedKernel(x, vals, parity="general")
        c1 = k.moment(1)
        assert c1 != 0.0
        op = ConvOperator(k, 0.8, 3)
        q = op.convolve(Polynomial1D([0.0, 1.0]))
        assert abs(q.coeffs[0] - (-c1 * 0.8)) < 1e-12
        assert abs(q.coeffs[1] - 1.0) < 1e-15

    def test_general_kernel_roundtrip(self):
        # the odd moments enter M with their signs; M stays unit triangular
        x = np.linspace(-1, 1, 1001)
        k = TabulatedKernel(x, np.exp(-(x**2)) * (1 + 0.5 * x), parity="general")
        op = ConvOperator(k, 0.8, 3)
        p = Polynomial1D([0.25, 1.0, -0.5, 2.0])
        assert coefficients_close(op.invert(op.convolve(p)), p, 1e-14)


class TestSidePolynomials:
    def test_j0_is_identity(self, gaussian):
        p = Polynomial1D([1.0, 2.0, 3.0])
        out = ConvOperator(gaussian, 1.0, 4).side_polynomial(p, 0)
        assert np.array_equal(out.coeffs, p.coeffs)

    def test_x2_first_side_is_constant(self, gaussian):
        for eps in (0.5, 1.0):
            out = ConvOperator(gaussian, eps, 4).side_polynomial(
                Polynomial1D([0, 0, 1.0]), 1)
            assert out.degree() == 0
            assert abs(out.coeffs[0] - 2.0 * eps**2) < 1e-10

    def test_x4_second_side_matches_direct_double_application(self, gaussian):
        op = ConvOperator(gaussian, 1.0, 6)
        p = Polynomial1D([0, 0, 0, 0, 1.0])
        t1 = op.convolve(p)
        t2 = op.convolve(t1)
        direct = t2 - 2.0 * t1 + p
        out = op.side_polynomial(p, 2)
        assert out.degree() == 0
        assert coefficients_close(out, direct, 1e-12)

    def test_degree_drop_two_per_step(self, gaussian, rng):
        op = ConvOperator(gaussian, 0.8, 12)
        p = Polynomial1D(rng.uniform(-1, 1, 13))
        for j in range(1, 6):
            assert op.side_polynomial(p, j).degree() <= max(12 - 2 * j, 0)

    def test_parity_floor(self, gaussian, rng):
        # past j = n/2 (even n) the remainders are constants, and one step
        # later identically zero; the assertions allow the fp residue that the
        # alternating sums leave on the other coefficients
        op = ConvOperator(gaussian, 0.5, 13)
        p_even = Polynomial1D(np.r_[rng.uniform(-1, 1, 12), 1.0])
        at_floor = op.side_polynomial(p_even, 6)
        scale = max(1.0, np.abs(at_floor.coeffs).max())
        assert np.abs(at_floor.coeffs[1:]).max() < 1e-9 * scale
        beyond = op.side_polynomial(p_even, 7)
        assert np.abs(beyond.coeffs).max() < 1e-8 * scale
        # odd degree: affine at j = (n-1)/2, zero beyond
        p_odd = Polynomial1D(np.r_[rng.uniform(-1, 1, 13), 1.0])
        at_floor_odd = op.side_polynomial(p_odd, 6)
        scale_odd = max(1.0, np.abs(at_floor_odd.coeffs).max())
        assert np.abs(at_floor_odd.coeffs[2:]).max() < 1e-9 * scale_odd
        beyond_odd = op.side_polynomial(p_odd, 7)
        assert np.abs(beyond_odd.coeffs).max() < 1e-8 * scale_odd

    def test_preconditions(self, gaussian):
        op = ConvOperator(gaussian, 1.0, 4)
        with pytest.raises(ParameterError):
            op.side_polynomial(Polynomial1D([0.0]), 1)
        with pytest.raises(ParameterError):
            op.side_polynomial(Polynomial1D([1.0, 2.0]), 1)


class TestIterate:
    def test_k0_identity(self, gaussian):
        p = Polynomial1D([1.0, -2.0, 0.5])
        out = ConvOperator(gaussian, 1.0, 4).iterate(p, 0)
        assert np.array_equal(out.coeffs, p.coeffs)

    def test_k2_x2_equals_p_plus_2p1(self, gaussian):
        op = ConvOperator(gaussian, 0.7, 4)
        p = Polynomial1D([0, 0, 1.0])
        lhs = op.iterate(p, 2)
        rhs = p + 2.0 * op.side_polynomial(p, 1)
        assert coefficients_close(lhs, rhs, 1e-12)

    def test_k3_x4_binomial_expansion(self, gaussian):
        op = ConvOperator(gaussian, 1.0, 6)
        p = Polynomial1D([0, 0, 0, 0, 1.0])
        lhs = op.iterate(p, 3)
        rhs = Polynomial1D([0.0])
        for j in range(4):
            rhs = rhs + math.comb(3, j) * op.side_polynomial(p, j)
        assert coefficients_close(lhs, rhs, 1e-12)

    def test_binomial_identity_random_degree12(self, gaussian, bump, rng):
        # iterate(p, k) == sum_j C(k, j) p_j for k <= 6
        for kernel, eps in ((gaussian, 1.0), (bump, 0.9)):
            op = ConvOperator(kernel, eps, 12)
            p = Polynomial1D(rng.uniform(-1, 1, 13))
            sides = [op.side_polynomial(p, j) for j in range(7)]
            for k in range(7):
                rhs = Polynomial1D([0.0])
                for j in range(k + 1):
                    rhs = rhs + math.comb(k, j) * sides[j]
                assert coefficients_close(op.iterate(p, k), rhs, 1e-9)


class TestInvert:
    def test_n2_closed_form(self, gaussian, rng):
        # inverse on degree 2 is 2q - T(q)
        for eps in (0.5, 0.9, 1.5):
            op = ConvOperator(gaussian, eps, 2)
            q = Polynomial1D(rng.uniform(-1, 1, 3))
            expect = 2.0 * q - op.convolve(q)
            assert coefficients_close(op.invert(q), expect, 1e-12)

    def test_n4_closed_form(self, gaussian, rng):
        # inverse on degree 4 is 3q - 3T(q) + T^2(q)
        op = ConvOperator(gaussian, 0.8, 4)
        q = Polynomial1D(rng.uniform(-1, 1, 5))
        expect = 3.0 * q - 3.0 * op.convolve(q) + op.iterate(q, 2)
        assert coefficients_close(op.invert(q), expect, 1e-10)

    def test_affine_fixed(self, gaussian):
        op = ConvOperator(gaussian, 1.1, 4)
        q = Polynomial1D([2.0, -7.0])
        assert np.array_equal(op.invert(q).coeffs, q.coeffs)

    def test_solve_equals_series_low_degree(self, gaussian, bump, rng):
        for kernel, eps in ((gaussian, 0.9), (bump, 0.9)):
            op = ConvOperator(kernel, eps, 10)
            q = Polynomial1D(rng.uniform(-1, 1, 11))
            assert coefficients_close(op.invert(q), series_inverse(op, q), 1e-10)

    def test_roundtrip_gaussian_to_degree_50(self, gaussian, rng):
        # relative to max(|p|, |T p|): the smoothed coefficients grow by up
        # to 1e48 at degree 50, which bounds what float64 can give back
        worst = 0.0
        for eps in (0.5, 0.9, 1.5):
            op = ConvOperator(gaussian, eps, 50)
            for n in (5, 12, 25, 38, 50):
                p = Polynomial1D(rng.uniform(-1, 1, n + 1))
                q = op.convolve(p)
                r = op.invert(q)
                scale = max(np.abs(p.coeffs).max(), np.abs(q.coeffs).max())
                err = np.abs(r.padded(n + 1) - p.padded(n + 1)).max() / scale
                worst = max(worst, err)
        assert worst < 1e-8

    def test_roundtrip_strict_envelope(self, gaussian, bump, rng):
        # up to degree 10 the round trip is clean relative to p itself
        for kernel in (gaussian, bump):
            for eps in (0.5, 0.9, 1.5):
                op = ConvOperator(kernel, eps, 10)
                for n in (2, 5, 8, 10):
                    p = Polynomial1D(rng.uniform(-1, 1, n + 1))
                    r = op.invert(op.convolve(p))
                    err = np.abs(r.padded(n + 1) - p.padded(n + 1)).max()
                    assert err < 1e-8 * np.abs(p.coeffs).max()

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=21))
    def test_roundtrip_property(self, coeffs):
        kernel = _module_gaussian()
        coeffs = list(coeffs)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
        p = Polynomial1D(coeffs)
        op = ConvOperator(kernel, 0.9, max(p.coeffs.size - 1, 2))
        q = op.convolve(p)
        r = op.invert(q)
        scale = max(np.abs(p.coeffs).max(), np.abs(q.coeffs).max(), 1.0)
        assert np.abs(r.padded(p.coeffs.size) - p.coeffs).max() < 1e-9 * scale

    def test_skew_normal_backward_error(self, skew_normal, rng):
        op = ConvOperator(skew_normal, 0.7, 30)
        q = op.convolve(Polynomial1D(rng.uniform(-1, 1, 31)))
        back = op.convolve(op.invert(q))
        assert np.abs(back.coeffs - q.coeffs).max() <= 1e-14 * np.abs(q.coeffs).max()

    def test_nilpotency_structural(self, gaussian, bump, rng):
        # (id - T)^(floor(n/2)+1) annihilates degree-n polynomials; with the
        # unit-diagonal matrix the kill is exact in floating point
        for kernel, eps in ((gaussian, 0.5), (gaussian, 0.9), (bump, 0.9)):
            for n in (7, 16, 33, 40):
                op = ConvOperator(kernel, eps, n)
                p = Polynomial1D(rng.uniform(-1, 1, n + 1))
                u = p
                for _ in range(n // 2 + 1):
                    u = u - op.convolve(u)
                assert np.abs(u.coeffs).max() < 1e-9 * np.abs(p.coeffs).max()


def _module_gaussian():
    from deconv.kernels import GaussianKernel
    if not hasattr(_module_gaussian, "_k"):
        _module_gaussian._k = GaussianKernel()
    return _module_gaussian._k
