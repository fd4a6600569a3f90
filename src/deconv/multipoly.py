"""Polynomials in up to three variables under separable smoothing.

A separable product kernel smooths each variable on its own, so the map is
the tensor product ``M ⊗ M (⊗ M)`` of the 1-D matrix ``M`` of
``ConvOperator``, and it is applied one axis at a time.  Along an axis the
terms fall into fibres, one for each choice of the other exponents; the
fibres are the columns of one array, which ``M`` maps and the inverse
back-substitutes, exactly as in one variable.  ``M`` is unit
upper-triangular for any unit-mass kernel, even or not, so the inverse is
one triangular solve per axis, backward stable at every degree.  The
polynomial stays sparse between axes: entries that come out exactly 0.0
are dropped.  ``M`` reaches the largest single exponent; ``ConvOperator``
checks epsilon and rejects a map beyond float64.  The total degree is
capped at ``MAX_DEGREE``, as in one variable, and a result beyond float64
raises ParameterError.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from .errors import InputError, ParameterError
from .kernels import Kernel
from .polynomials import (ConvOperator, _integer, back_substitute, check_degree,
                          terms_from_json)

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
            alpha = tuple(map(_integer, alpha))
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
        return cls.from_data(json.loads(text))

    @classmethod
    def from_data(cls, data) -> "MultiPolynomial":
        """From a decoded ``{dim, terms}`` JSON object."""
        dim, terms = terms_from_json(data)
        return cls(dim, dict(terms))


def _axis_map(kernel: Kernel, epsilon: float, p: MultiPolynomial) -> np.ndarray:
    """The 1-D smoothing matrix up to p's largest single exponent."""
    check_degree(max((sum(a) for a in p.terms), default=0))
    widest = max((max(a) for a in p.terms), default=0)
    return ConvOperator(kernel, epsilon, widest).matrix


def _per_axis(solve, p: MultiPolynomial, what: str) -> MultiPolynomial:
    """Apply ``solve`` to the column stack of p's fibres along each axis in turn."""
    alphas = np.array(list(p.terms), dtype=int).reshape(-1, p.dim)
    coeffs = np.fromiter(p.terms.values(), float, len(p.terms))
    for axis in range(p.dim):
        fibres, col = np.unique(np.delete(alphas, axis, axis=1), axis=0, return_inverse=True)
        B = np.zeros((alphas[:, axis].max(initial=-1) + 1, len(fibres)))
        B[alphas[:, axis], col.reshape(-1)] = coeffs  # numpy 2.0.0 returns col as a column
        with np.errstate(over="ignore", invalid="ignore"):
            B = solve(B)
        if not np.all(np.isfinite(B)):
            raise ParameterError(f"{what} overflows float64")
        row, col = np.nonzero(B)
        alphas = np.insert(fibres[col], axis, row, axis=1)
        coeffs = B[row, col]
    return MultiPolynomial(p.dim, dict(zip(map(tuple, alphas.tolist()), coeffs.tolist())))


def convolve_multipoly(kernel: Kernel, epsilon: float, p: MultiPolynomial) -> MultiPolynomial:
    """Smooth p with the separable product of 1-D copies of ``kernel``."""
    M = _axis_map(kernel, epsilon, p)
    return _per_axis(lambda B: M[: len(B), : len(B)] @ B, p, "the smoothed polynomial")


def invert_multipoly(kernel: Kernel, epsilon: float, q: MultiPolynomial) -> MultiPolynomial:
    """Preimage of q under the separable smoothing map: one triangular solve per axis."""
    M = _axis_map(kernel, epsilon, q)
    return _per_axis(lambda B: back_substitute(M, B), q, "the inverse")
