"""Polynomials in up to three variables under separable smoothing.

For a separable even product kernel the moment of a multi-index is the
product of 1-D moments, so the coefficient update mirrors the 1-D rule:

    (p * phi_eps)(x) = sum_a sum_{b <= a, a-b componentwise even}
                       C(a, b) coeff_a x^b eps^|a-b| prod_i c_(a-b)_i

Total degree is preserved, degree-0 and degree-1 polynomials are fixed
points, and the map is invertible.  The inverse is the same alternating
binomial sum over iterates as in one variable, applied with depth
floor(total_degree / 2).
"""

from __future__ import annotations

import json
import math
from itertools import product
from typing import Mapping

from .errors import InputError, ParameterError
from .kernels import Kernel
from .polynomials import terms_from_json

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


def _moment_product(kernel: Kernel, gamma: MultiIndex) -> float:
    """Moment of a separable product kernel at multi-index gamma.

    The zeroth moment is pinned to exactly 1 (unit-mass normalisation), so
    the identity part of the map carries no quadrature residue.
    """
    out = 1.0
    for g in gamma:
        if g == 0:
            continue
        c = kernel.moment(g)
        if c == 0.0:
            return 0.0
        out *= c
    return out


def convolve_multipoly(kernel: Kernel, epsilon: float, p: MultiPolynomial) -> MultiPolynomial:
    """Smooth p with the separable product of 1-D copies of ``kernel``."""
    if kernel.parity != "even":
        raise ParameterError("multi-variable smoothing requires an even kernel")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    out: dict[MultiIndex, float] = {}
    for alpha, coeff in p.terms.items():
        ranges = [range(0, a + 1, 2) for a in alpha]  # even componentwise drops
        for drop in product(*ranges):
            mom = _moment_product(kernel, drop)
            if mom == 0.0:
                continue
            beta = tuple(a - d for a, d in zip(alpha, drop))
            binom = math.prod(math.comb(a, d) for a, d in zip(alpha, drop))
            val = coeff * binom * mom * epsilon ** sum(drop)
            out[beta] = out.get(beta, 0.0) + val
    return MultiPolynomial(p.dim, out)


def invert_multipoly(kernel: Kernel, epsilon: float, q: MultiPolynomial) -> MultiPolynomial:
    """Preimage of q under the separable smoothing map.

    Alternating binomial sum of iterates with depth floor(n/2) in the total
    degree n; exact on polynomials because the degree-dropping part of the
    map is nilpotent.
    """
    if kernel.parity != "even":
        raise ParameterError("multi-variable inversion requires an even kernel")
    half = q.total_degree() // 2
    acc = MultiPolynomial(q.dim, {})
    cur = q
    for j in range(half + 1):
        acc = acc + ((-1) ** j * math.comb(half + 1, j + 1)) * cur
        if j < half:
            cur = convolve_multipoly(kernel, epsilon, cur)
    return acc
