"""Dense real polynomials and the coefficient-level smoothing operator.

Convolving ``p(x) = sum a_j x^j`` with an even unit-mass kernel scaled by
``eps`` maps polynomials to polynomials of the same degree:

    (p * phi_eps)(x) = sum_j a_j sum_{k even, k <= j} C(j, k) c_k eps^k x^(j-k)

with ``c_k`` the kernel moments.  On the coefficient vector this is a
triangular matrix with unit diagonal (the map only pushes mass from a power
down to powers two or more below it), hence a vector-space automorphism:
smoothing a polynomial loses no information, and the inverse is another
triangular map.  For non-even kernels the same expansion holds over every
k with signs, ``(-1)^k C(j, k) c_k eps^k``; the matrix is still unit
upper-triangular, and the same back-substitution inverts it.

The inverse is computed by back-substitution against the stored matrix.
It equals the alternating sum of iterated convolutions
``sum_j (-1)^j C(q+1, j+1) T^j`` (``q = floor(n/2)``), whose intermediates
grow like ``(n/2)^(n/2)`` times the input and drown the answer in rounding
noise for degrees beyond roughly 20.

Degrees are capped at ``MAX_DEGREE``; a map or result beyond float64 raises
ParameterError.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from .errors import InputError, ParameterError, check_positive
from .kernels import Kernel

DEGREE_TRIM_REL = 1e-14
# the largest n for which every binomial C(n, k) converts to float64
MAX_DEGREE = 1029


class Polynomial1D:
    """Immutable dense polynomial; index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        arr = np.array(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                       dtype=float)
        if arr.ndim != 1:
            raise InputError("coefficients must be one-dimensional")
        if arr.size == 0:
            arr = np.zeros(1)
        if not np.all(np.isfinite(arr)):
            raise InputError("coefficients must be finite")
        # exact trailing zeros carry no information; tiny-but-nonzero entries
        # are kept so that ill-scaled vectors survive round trips
        n = arr.size
        while n > 1 and arr[n - 1] == 0.0:
            n -= 1
        arr = arr[:n].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Polynomial1D is immutable")

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        """Largest power with a coefficient above 1e-14 * max|a|.

        The threshold suppresses spurious degree inflation left behind by
        alternating sums; the zero polynomial reports degree 0.
        """
        a = np.abs(self.coeffs)
        top = a.max()
        if top == 0.0:
            return 0
        keep = np.nonzero(a > DEGREE_TRIM_REL * top)[0]
        return int(keep[-1]) if keep.size else 0

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        out[: self.coeffs.size] = self.coeffs
        return out

    # -- algebra ------------------------------------------------------------

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        out = np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)
        return float(out) if out.ndim == 0 else out

    def __add__(self, other: "Polynomial1D") -> "Polynomial1D":
        n = max(self.coeffs.size, other.coeffs.size)
        return Polynomial1D(self.padded(n) + other.padded(n))

    def __sub__(self, other: "Polynomial1D") -> "Polynomial1D":
        n = max(self.coeffs.size, other.coeffs.size)
        return Polynomial1D(self.padded(n) - other.padded(n))

    def __mul__(self, scalar: float) -> "Polynomial1D":
        return Polynomial1D(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Polynomial1D({self.coeffs.tolist()!r})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([float(c) for c in self.coeffs])

    @classmethod
    def from_json(cls, text: str) -> "Polynomial1D":
        return cls.from_data(json.loads(text))

    @classmethod
    def from_data(cls, data) -> "Polynomial1D":
        """From decoded JSON: ``[a0, a1, ...]`` or a ``{dim: 1, terms}`` object."""
        if isinstance(data, dict):  # multi-index form with dim 1
            if data.get("dim") != 1:
                raise InputError("expected a 1-D polynomial")
            coeffs = {k: c for (k,), c in terms_from_json(data)[1]}
            check_degree(max(coeffs, default=0))
            arr = np.zeros(max(coeffs) + 1 if coeffs else 1)
            for k, v in coeffs.items():
                arr[k] = v
            return cls(arr)
        return cls(np.asarray(data, dtype=float))


def terms_from_json(data) -> tuple[int, list[tuple[tuple[int, ...], float]]]:
    """``dim`` and the (alpha, coeff) pairs of a ``{dim, terms}`` JSON object.

    Raises InputError naming the missing or malformed field.
    """
    try:
        dim = _integer(data["dim"])
        terms = [(tuple(map(_integer, t["alpha"])), float(t["coeff"])) for t in data["terms"]]
    except KeyError as exc:
        raise InputError(f"polynomial JSON has no {exc} field") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed polynomial JSON: {exc}") from None
    for alpha, _ in terms:
        if len(alpha) != dim or min(alpha, default=0) < 0:
            raise InputError(f"bad multi-index {list(alpha)} for dim {dim}")
    return dim, terms


def _integer(value) -> int:
    """An integer or integral float; not a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"malformed polynomial: {value!r} is not an integer")
    return int(value)


def check_degree(degree: int) -> None:
    """Raise ParameterError for a degree above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ParameterError(
            f"degree {degree} exceeds {MAX_DEGREE}, the largest whose binomial "
            "coefficients are float64 numbers"
        )


def back_substitute(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r with ``M[:n, :n] @ r = b`` for unit upper-triangular M, n = len(b).

    ``b`` is a vector or a stack of columns, all solved at once.
    """
    n = b.shape[0]
    r = b.copy()
    for i in range(n - 1, -1, -1):
        r[i] = b[i] - M[i, i + 1 : n] @ r[i + 1 : n]
    return r


class ConvOperator:
    """Coefficient-space smoothing operator for one (kernel, eps, max degree).

    The matrix ``M[i][j]`` holds the coefficient of ``x^i`` in the image of
    ``x^j``; it is built once and shared by all operations, so linearity is
    exact and results are reproducible.  The diagonal is exactly 1.0 (zeroth
    moment pinned to 1), which keeps the two leading input coefficients
    bit-identical through the map.  A map or result beyond float64 raises
    ParameterError.
    """

    def __init__(self, kernel: Kernel, epsilon: float, max_degree: int):
        check_positive("epsilon", epsilon)
        if max_degree < 0 or int(max_degree) != max_degree:
            raise ParameterError(f"max_degree must be a nonnegative integer, got {max_degree}")
        check_degree(max_degree)
        self.kernel = kernel
        self.epsilon = float(epsilon)
        self.max_degree = int(max_degree)
        with np.errstate(over="ignore", invalid="ignore"):
            self.matrix = self._finite(self._build_matrix(), "the smoothing map")
        self.matrix.setflags(write=False)

    def _finite(self, values: np.ndarray, what: str) -> np.ndarray:
        if not np.all(np.isfinite(values)):
            raise ParameterError(
                f"{what} at degree {self.max_degree} and epsilon {self.epsilon} "
                "overflows float64"
            )
        return values

    def _build_matrix(self) -> np.ndarray:
        n = self.max_degree
        # numpy powers, which reach inf past float64 where a Python float power raises
        eps_pow = [float(np.float64(self.epsilon) ** k) for k in range(n + 1)]
        # (-1)^k c_k; the odd moments of an even kernel are 0.0 and add nothing
        signed = [1.0] + [(-1) ** k * self.kernel.moment(k) for k in range(1, n + 1)]
        M = np.zeros((n + 1, n + 1))
        np.fill_diagonal(M, 1.0)
        for j in range(n + 1):
            for k in range(1, j + 1):
                if signed[k] != 0.0:
                    entry = math.comb(j, k) * signed[k] * eps_pow[k]
                    if not math.isfinite(entry):  # C(j, k) c_k alone may pass float64
                        entry = math.comb(j, k) * (signed[k] * eps_pow[k])
                    M[j - k, j] = entry
        return M

    # -- forward -------------------------------------------------------------

    def convolve(self, p: Polynomial1D) -> Polynomial1D:
        """Image of p under the smoothing map; degree is preserved.

        Operates on the full stored coefficient vector: entries below the
        degree() reporting threshold still carry structure (e.g. the tail of
        a convergent power series) and are never dropped here.
        """
        d = self._check_degree(p)
        a = p.padded(self.max_degree + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.matrix @ a
        return Polynomial1D(self._finite(out[: d + 1], "the result"))

    def iterate(self, p: Polynomial1D, k: int) -> Polynomial1D:
        """k-fold application (k = 0 returns p)."""
        if k < 0 or int(k) != k:
            raise ParameterError(f"iteration count must be a nonnegative integer, got {k}")
        d = self._check_degree(p)
        a = p.padded(self.max_degree + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(int(k)):
                a = self.matrix @ a
        return Polynomial1D(self._finite(a[: d + 1], "the result"))

    def side_polynomial(self, p: Polynomial1D, j: int) -> Polynomial1D:
        """j-th degree-dropping remainder: sum_k (-1)^k C(j, k) T^(j-k) p.

        These satisfy T(p_j) = p_j + p_(j+1) with deg p_j <= deg(p) - 2j
        (down to a constant/affine floor), which is what makes the smoothing
        map invertible degree by degree.
        """
        if j < 0 or int(j) != j:
            raise ParameterError(f"side index must be a nonnegative integer, got {j}")
        if p.is_zero():
            raise ParameterError("side polynomials of the zero polynomial are excluded")
        if j >= 1 and p.degree() < 2:
            raise ParameterError("side polynomials with j >= 1 need degree >= 2")
        d = self._check_degree(p)
        a = p.padded(self.max_degree + 1)
        powers = [a]
        acc = np.zeros_like(a)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(int(j)):
                powers.append(self.matrix @ powers[-1])
            for k in range(int(j) + 1):
                acc += ((-1) ** k * math.comb(int(j), k)) * powers[int(j) - k]
        return Polynomial1D(self._finite(acc[: d + 1], "the result"))

    # -- inverse -------------------------------------------------------------

    def invert(self, q: Polynomial1D) -> Polynomial1D:
        """Preimage of q: the unique p with convolve(p) = q.

        Back-substitutes the unit-triangular system (backward stable, no
        iterated convolutions).
        """
        self._check_degree(q)
        with np.errstate(over="ignore", invalid="ignore"):
            r = back_substitute(self.matrix, q.coeffs)
        return Polynomial1D(self._finite(r, "the result"))

    def _check_degree(self, p: Polynomial1D) -> int:
        """Effective length-based degree: the full stored vector participates."""
        d = p.coeffs.size - 1
        if d > self.max_degree:
            raise ParameterError(
                f"polynomial degree {d} exceeds operator max_degree {self.max_degree}"
            )
        return d

