"""Polynomials in up to three variables under separable smoothing.

A separable even product kernel smooths each variable on its own, so the
map is the tensor product of the 1-D matrix ``M`` of ``ConvOperator``:

    x^a  ->  sum over componentwise even drops d <= a of
             prod_i M[a_i - d_i][a_i] x^(a - d)

It keeps the total degree and fixes affine polynomials; ``T - I`` lowers the
total degree by two, so it is nilpotent.  The inverse is the fixed-point
recursion ``x <- x + (q - T x)`` from ``x = q``, run top // 2 times for the
largest total degree ``top`` of any term, after which ``T x = q`` exactly.
It equals the alternating binomial sum of iterates, which cancels
catastrophically in float64.  ``M`` reaches the largest single exponent;
``ConvOperator`` checks epsilon and rejects a map beyond float64.  The total
degree is capped at ``MAX_DEGREE``, as in one variable, and a result beyond
float64 raises ParameterError.
"""

from __future__ import annotations

import json
import math
from itertools import product
from typing import Mapping

from .errors import InputError, ParameterError
from .kernels import Kernel
from .polynomials import ConvOperator, check_degree, terms_from_json

COEFF_TRIM_REL = 1e-14
MAX_DIM = 3

MultiIndex = tuple[int, ...]


class MultiPolynomial:
    """Sparse multi-index -> coefficient map, dim in {1, 2, 3}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, float]):
        if dim not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2 or 3, got {dim}")
        clean: dict[MultiIndex, float] = {}
        for alpha, coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise InputError(f"bad multi-index {alpha} for dim {dim}")
            c = float(coeff)
            if not math.isfinite(c):
                raise InputError("coefficients must be finite")
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", dict(clean))

    def __setattr__(self, *a):
        raise AttributeError("MultiPolynomial is immutable")

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        top = max(abs(c) for c in self.terms.values())
        degs = [sum(a) for a, c in self.terms.items() if abs(c) > COEFF_TRIM_REL * top]
        return max(degs) if degs else 0

    def coefficient(self, alpha: MultiIndex) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def __call__(self, *point: float) -> float:
        if len(point) != self.dim:
            raise InputError(f"expected {self.dim} coordinates")
        return float(sum(c * math.prod(x**a for x, a in zip(point, alpha))
                         for alpha, c in self.terms.items()))

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if other.dim != self.dim:
            raise ParameterError("dimension mismatch")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return MultiPolynomial(self.dim, out)

    def __sub__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "MultiPolynomial":
        return MultiPolynomial(self.dim, {a: c * float(scalar) for a, c in self.terms.items()})

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self) -> str:
        return f"MultiPolynomial(dim={self.dim}, terms={self.terms!r})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        entries = [{"alpha": list(a), "coeff": c}
                   for a, c in sorted(self.terms.items())]
        return json.dumps({"dim": self.dim, "terms": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MultiPolynomial":
        dim, terms = terms_from_json(json.loads(text))
        return cls(dim, dict(terms))


def _axis_map(kernel: Kernel, epsilon: float, p: MultiPolynomial):
    """The 1-D smoothing matrix as lists up to p's largest exponent, and p's total degree."""
    if kernel.parity != "even":
        raise ParameterError("multi-variable smoothing requires an even kernel")
    top = max((sum(a) for a in p.terms), default=0)
    check_degree(top)
    widest = max((max(a) for a in p.terms), default=0)
    return ConvOperator(kernel, epsilon, widest).matrix.tolist(), top


def _smooth(M: list[list[float]], terms: Mapping[MultiIndex, float]) -> dict:
    """x^a -> sum over even drops d of prod_i M[a_i - d_i][a_i] x^(a - d)."""
    out: dict[MultiIndex, float] = {}
    for alpha, coeff in terms.items():
        for drop in product(*(range(0, a + 1, 2) for a in alpha)):
            beta = tuple(a - d for a, d in zip(alpha, drop))
            w = math.prod(M[b][a] for a, b in zip(alpha, beta))
            out[beta] = out.get(beta, 0.0) + coeff * w
    return out


def convolve_multipoly(kernel: Kernel, epsilon: float, p: MultiPolynomial) -> MultiPolynomial:
    """Smooth p with the separable product of 1-D copies of ``kernel``."""
    M, _ = _axis_map(kernel, epsilon, p)
    return MultiPolynomial(p.dim, _finite(_smooth(M, p.terms), "the smoothed polynomial"))


def invert_multipoly(kernel: Kernel, epsilon: float, q: MultiPolynomial) -> MultiPolynomial:
    """Preimage of q under the separable smoothing map.

    The recursion x <- x + (q - T x) from x = q, run top // 2 times for the
    largest total degree ``top`` of any term of q.  A pass beyond float64
    raises ParameterError at once.
    """
    M, top = _axis_map(kernel, epsilon, q)
    x = q.terms
    for _ in range(top // 2):
        # T x has a term at every index of x, and x one at every index of q
        x = _finite({a: x.get(a, 0.0) + (q.terms.get(a, 0.0) - t)
                     for a, t in _smooth(M, x).items()}, "the inverse")
    return MultiPolynomial(q.dim, x)


def _finite(terms: dict[MultiIndex, float], what: str) -> dict[MultiIndex, float]:
    """The terms, or ParameterError if one is beyond float64."""
    if not all(map(math.isfinite, terms.values())):
        raise ParameterError(f"{what} overflows float64")
    return terms
