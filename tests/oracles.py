"""Independent reference implementations the tests compare the package against.

Each one evaluates a definition directly, slowly and without the shortcuts
the package takes, so that a test can check the fast path against it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from deconv.multipoly import MultiPolynomial
from deconv.polynomials import ConvOperator, Polynomial1D
from deconv.quadrature import integrate


def direct_dft(x: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """O(N^2) transform straight from the definition (any length)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    # reducing k*j mod n in integers keeps each twiddle's phase in [0, 2 pi),
    # so its rounding does not grow with n
    w = np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)
    return w @ x


def cosine_transform(kernel, epsilon: float, xi: float) -> float:
    """phi_eps_hat(xi) of an even kernel by adaptive quadrature at one point."""
    u = epsilon * xi
    r = kernel.support_radius
    # one panel per half-oscillation keeps the G-K pair accurate
    panels = min(max(16, int(math.ceil(8.0 * abs(u) * r))), 4096)
    val, _ = integrate(
        lambda x: kernel.density(x) * np.cos(2.0 * math.pi * u * x),
        -r, r, abs_tol=1e-10, rel_tol=1e-8,
        initial_panels=panels, max_panels=max(2 * panels, 4096),
    )
    return val


def integrate_2d(f, ax: float, bx: float, ay: float, by: float, tol: float = 1e-9) -> float:
    """Iterated 1-D quadrature of f(x, y) over a rectangle.

    ``f`` must be vectorised in its second argument.
    """
    def outer(xs: np.ndarray) -> np.ndarray:
        out = np.empty_like(xs, dtype=float)
        for i, x in enumerate(xs):
            out[i] = integrate(lambda y: f(float(x), y), ay, by,
                               abs_tol=tol, rel_tol=tol)[0]
        return out

    return integrate(outer, ax, bx, abs_tol=tol, rel_tol=tol)[0]


def series_inverse(op: ConvOperator, q: Polynomial1D) -> Polynomial1D:
    """Preimage of q as the alternating binomial sum of iterated convolutions,
    sum_j (-1)^j C(h+1, j+1) T^j q with h = floor(deg/2)."""
    d = q.coeffs.size - 1
    half = d // 2
    cur = q.padded(op.max_degree + 1)
    acc = np.zeros_like(cur)
    for j in range(half + 1):
        acc += ((-1) ** j * math.comb(half + 1, j + 1)) * cur
        if j < half:
            cur = op.matrix @ cur
    return Polynomial1D(acc[: d + 1])


def smooth_by_drops(kernel, epsilon: float, p: MultiPolynomial) -> MultiPolynomial:
    """The separable map term by term: x^a -> sum over b <= a of prod_i M[b_i, a_i] x^b."""
    M = ConvOperator(kernel, epsilon, max((max(a) for a in p.terms), default=0)).matrix
    out: dict[tuple[int, ...], float] = {}
    for alpha, coeff in p.terms.items():
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            w = math.prod(M[b, a] for a, b in zip(alpha, beta))
            if w != 0.0:
                out[beta] = out.get(beta, 0.0) + coeff * w
    return MultiPolynomial(p.dim, out)


def coefficients_close(a, b, rel_tol: float, scale: float | None = None) -> bool:
    """Compare coefficient vectors of possibly different lengths."""
    av = a.coeffs if isinstance(a, Polynomial1D) else np.asarray(a, dtype=float)
    bv = b.coeffs if isinstance(b, Polynomial1D) else np.asarray(b, dtype=float)
    n = max(av.size, bv.size)
    pa = np.zeros(n); pa[: av.size] = av
    pb = np.zeros(n); pb[: bv.size] = bv
    denom = scale if scale is not None else max(np.abs(pa).max(), np.abs(pb).max(), 1e-300)
    return bool(np.abs(pa - pb).max() <= rel_tol * denom)
