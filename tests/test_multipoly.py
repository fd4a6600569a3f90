import numpy as np
import pytest

from deconv.errors import InputError, ParameterError
from deconv.kernels import TabulatedKernel
from deconv.multipoly import MultiPolynomial, convolve_multipoly, invert_multipoly
from deconv.polynomials import ConvOperator, Polynomial1D, terms_from_json
from deconv.quadrature import integrate
from oracles import smooth_by_drops


def smoothed_value_oracle_2d(kernel, epsilon, poly, x, y):
    """Iterated quadrature of the 2-D convolution integral at one point."""
    r = epsilon * kernel.support_radius

    def outer(us):
        out = np.empty_like(us)
        for i, u in enumerate(us):
            def inner(vs):
                pv = np.array([poly(x - float(u), y - float(v)) for v in vs])
                return pv * kernel.eval(epsilon, vs)
            val, _ = integrate(inner, -r, r, abs_tol=1e-10, rel_tol=1e-9)
            out[i] = val * kernel.eval(epsilon, float(u))
        return out

    val, _ = integrate(outer, -r, r, abs_tol=1e-10, rel_tol=1e-9)
    return val


def max_term_diff(a: MultiPolynomial, b: MultiPolynomial) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.coefficient(k) - b.coefficient(k)) for k in keys), default=0.0)


class TestMultiPolynomial:
    def test_rejects_bad_dim(self):
        with pytest.raises(ParameterError):
            MultiPolynomial(4, {})

    def test_rejects_wrong_index_length(self):
        with pytest.raises(InputError):
            MultiPolynomial(2, {(1,): 1.0})

    def test_total_degree_and_eval(self):
        p = MultiPolynomial(2, {(0, 0): 1.0, (2, 1): 3.0})
        assert p.total_degree() == 3
        assert p(2.0, 1.0) == 1.0 + 3.0 * 4.0

    def test_integral_float_indices_read_as_integers(self):
        data = {"dim": 2.0, "terms": [{"alpha": [2.0, 0], "coeff": 1}]}
        assert terms_from_json(data) == (2, [((2, 0), 1.0)])

    def test_rejects_fractional_index(self):
        with pytest.raises(InputError):
            MultiPolynomial(1, {(2.5,): 1.0})

    def test_json_roundtrip(self):
        p = MultiPolynomial(3, {(1, 0, 2): -2.5, (0, 0, 0): 1.0})
        q = MultiPolynomial.from_json(p.to_json())
        assert q.dim == 3 and q.terms == p.terms


class TestConvolve:
    def test_affine_invariant(self, gaussian):
        p = MultiPolynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        q = convolve_multipoly(gaussian, 0.8, p)
        assert max_term_diff(p, q) == 0.0

    def test_x_squared(self, gaussian):
        # only the x factor carries degree: x^2 -> x^2 + c2 eps^2
        p = MultiPolynomial(2, {(2, 0): 1.0})
        q = convolve_multipoly(gaussian, 1.0, p)
        assert abs(q.coefficient((0, 0)) - 2.0) < 1e-10
        assert q.coefficient((2, 0)) == 1.0
        assert q.coefficient((1, 1)) == 0.0

    def test_cross_term_invariant(self, gaussian):
        # x*y needs a (1,1) moment, which vanishes for even factors
        p = MultiPolynomial(2, {(1, 1): 1.0})
        q = convolve_multipoly(gaussian, 1.0, p)
        assert max_term_diff(p, q) == 0.0

    def test_values_match_2d_quadrature_oracle(self, gaussian):
        p = MultiPolynomial(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 3): -0.25, (0, 0): 2.0})
        q = convolve_multipoly(gaussian, 0.5, p)
        for (x, y) in ((0.0, 0.0), (1.0, -0.5), (-0.7, 1.2)):
            oracle = smoothed_value_oracle_2d(gaussian, 0.5, p, x, y)
            assert abs(q(x, y) - oracle) < 1e-8

    def test_total_degree_preserved(self, gaussian, rng):
        terms = {(i, j): rng.uniform(-1, 1)
                 for i in range(5) for j in range(5) if i + j <= 4}
        p = MultiPolynomial(2, terms)
        assert convolve_multipoly(gaussian, 0.9, p).total_degree() == p.total_degree()

    @pytest.mark.parametrize("family", ["gaussian", "bump", "skew_normal"])
    def test_matches_term_by_term_map(self, request, family):
        kernel = request.getfixturevalue(family)
        rng = np.random.default_rng(3)
        for dim, top in ((2, 20), (3, 12)):
            alphas = [tuple(a) for a in np.ndindex(*(top + 1,) * dim) if sum(a) <= top]
            p = MultiPolynomial(dim, dict(zip(alphas, rng.uniform(-1, 1, len(alphas)))))
            q = convolve_multipoly(kernel, 0.8, p)
            ref = smooth_by_drops(kernel, 0.8, p)
            assert q.terms.keys() == ref.terms.keys()
            assert max_term_diff(q, ref) <= 1e-14 * ref.max_abs_coeff()

    @pytest.mark.parametrize("family", ["gaussian", "skew_normal"])
    def test_image_is_product_of_1d_images(self, request, family):
        kernel = request.getfixturevalue(family)
        q = convolve_multipoly(kernel, 0.7, MultiPolynomial(2, {(5, 3): 1.0}))
        x5 = ConvOperator(kernel, 0.7, 5).convolve(Polynomial1D([0.0] * 5 + [1.0])).coeffs
        y3 = ConvOperator(kernel, 0.7, 3).convolve(Polynomial1D([0.0] * 3 + [1.0])).coeffs
        expect = {(i, j): a * b for i, a in enumerate(x5) for j, b in enumerate(y3) if a * b}
        assert q.terms == expect


class TestInvert:
    def test_affine_fixed(self, gaussian):
        q = MultiPolynomial(2, {(0, 0): 2.0, (1, 0): -1.0, (0, 1): 4.0})
        out = invert_multipoly(gaussian, 0.9, q)
        assert max_term_diff(out, q) == 0.0

    def test_inverse_of_x_squared_image(self, gaussian):
        q = MultiPolynomial(2, {(2, 0): 1.0, (0, 0): 2.0})  # image of x^2 at eps=1
        out = invert_multipoly(gaussian, 1.0, q)
        expect = MultiPolynomial(2, {(2, 0): 1.0})
        assert max_term_diff(out, expect) < 1e-12

    def test_roundtrip_degree6_random(self, gaussian, rng):
        terms = {(i, j): rng.uniform(-1, 1)
                 for i in range(7) for j in range(7) if i + j <= 6}
        p = MultiPolynomial(2, terms)
        for eps in (0.5, 1.0):
            q = convolve_multipoly(gaussian, eps, p)
            r = invert_multipoly(gaussian, eps, q)
            scale = max(p.max_abs_coeff(), q.max_abs_coeff())
            assert max_term_diff(r, p) < 1e-9 * scale

    def test_roundtrip_dim3(self, gaussian, rng):
        terms = {(i, j, k): rng.uniform(-1, 1)
                 for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3}
        p = MultiPolynomial(3, terms)
        q = convolve_multipoly(gaussian, 0.8, p)
        r = invert_multipoly(gaussian, 0.8, q)
        assert max_term_diff(r, p) < 1e-10 * max(1.0, q.max_abs_coeff())

    def test_forward_application_oracle(self, gaussian, rng):
        # the inverse is validated by re-applying the forward map
        terms = {(i, j): rng.uniform(-1, 1)
                 for i in range(5) for j in range(5) if i + j <= 4}
        q = MultiPolynomial(2, terms)
        r = invert_multipoly(gaussian, 0.7, q)
        back = convolve_multipoly(gaussian, 0.7, r)
        assert max_term_diff(back, q) < 1e-10 * max(1.0, q.max_abs_coeff())

    def test_roundtrip_total_degree_20(self, gaussian):
        # the alternating binomial sum of iterates loses up to 1e-5 here
        rng = np.random.default_rng(20)
        alphas = [(i, j) for i in range(21) for j in range(21) if i + j <= 20]
        worst = 0.0
        for eps in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99):
            p = MultiPolynomial(2, dict(zip(alphas, rng.uniform(-1, 1, len(alphas)))))
            q = convolve_multipoly(gaussian, eps, p)
            back = convolve_multipoly(gaussian, eps, invert_multipoly(gaussian, eps, q))
            worst = max(worst, max_term_diff(back, q) / q.max_abs_coeff())
        assert worst <= 1e-8

    def test_depth_from_structural_degree(self, gaussian):
        # the image of x^24 at eps = 1 has its top term 1e-15 of its largest,
        # below the trim of total_degree(): the solve must use every term
        p = MultiPolynomial(2, {(24, 0): 1.0})
        q = convolve_multipoly(gaussian, 1.0, p)
        assert q.total_degree() < 24
        assert max_term_diff(invert_multipoly(gaussian, 1.0, q), p) < 1e-6

    @pytest.mark.parametrize("dim, top", [(2, 32), (3, 20)])
    @pytest.mark.parametrize("family", ["gaussian", "bump"])
    def test_backward_error_at_eps_level(self, request, family, dim, top):
        kernel = request.getfixturevalue(family)
        assert _worst_backward_error(kernel, dim, top, (0.5, 0.7, 0.9)) <= 1e-14

    def test_general_kernel_roundtrip(self):
        x = np.linspace(-1, 1, 501)
        k = TabulatedKernel(x, np.exp(-(x**2)) * (1 + 0.3 * x), parity="general")
        p = MultiPolynomial(2, {(1, 0): 1.0, (2, 1): -0.5, (0, 3): 2.0})
        q = convolve_multipoly(k, 0.5, p)
        assert q.coefficient((0, 0)) != 0.0  # the first moment shifts x
        assert max_term_diff(invert_multipoly(k, 0.5, q), p) < 1e-14

    def test_skew_normal_backward_error(self, skew_normal):
        assert _worst_backward_error(skew_normal, 2, 20, (0.7,)) <= 1e-14


def _worst_backward_error(kernel, dim, top, epsilons):
    """max |T r - q| / max |q| for r = T^-1 q, q = T p, p dense and random."""
    rng = np.random.default_rng(top)
    alphas = [tuple(a) for a in np.ndindex(*(top + 1,) * dim) if sum(a) <= top]
    worst = 0.0
    for eps in epsilons:
        p = MultiPolynomial(dim, dict(zip(alphas, rng.uniform(-1, 1, len(alphas)))))
        q = convolve_multipoly(kernel, eps, p)
        back = convolve_multipoly(kernel, eps, invert_multipoly(kernel, eps, q))
        worst = max(worst, max_term_diff(back, q) / q.max_abs_coeff())
    return worst
