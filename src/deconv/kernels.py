"""Smooth convolution kernels: densities, moments, Fourier transforms.

A kernel is a rapidly decaying density ``phi`` with unit area.  Its scaled
version is ``phi_eps(x) = phi(x / eps) / eps``.  Everything downstream is
driven by three quantities:

* raw moments ``c_m = integral x^m phi(x) dx`` (``c_0 = 1``; odd moments of
  an even kernel vanish identically),
* scaled moments ``integral x^m phi_eps(x) dx = c_m eps^m``,
* the Fourier transform ``phi_hat(xi) = integral phi(x) exp(-2 pi i xi x) dx``
  with the dilation law ``phi_eps_hat(xi) = phi_hat(eps xi)``.

Built-in families:

* ``GaussianKernel``: ``phi(x) = exp(-(x/2)^2) / sqrt(4 pi)`` (variance 2),
  closed-form transform ``exp(-4 pi^2 xi^2)``.
* ``BumpKernel``: ``exp(-1 / (1 - x^2))`` on (-1, 1), normalised to unit
  area; compact support, oscillating transform with real zeros.
* ``TabulatedKernel``: user samples on a grid, trapezoid-integrated.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError, ParameterError, check_positive
from .quadrature import _GK_NODES as _GK_NODES_ROW
from .quadrature import _W_KRONROD as _GK_WEIGHTS_ROW
from .quadrature import integrate

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class AdmissibilityReport:
    """Grid scan of phi_eps_hat against the window (0, 2).

    Negative or >= 2 samples break the contraction that the truncated
    deconvolution series relies on; sign changes mark frequencies whose
    content cannot be recovered at all.  Samples that are exactly 0.0
    without a sign change are counted as positive underflow (a decaying
    transform below the smallest float) rather than as violations.
    """

    passed: bool
    min_value: float
    max_value: float
    min_location: float
    max_location: float
    first_violation: float | None
    zero_crossings: tuple[float, ...]
    underflow_count: int

    def to_dict(self) -> dict:
        return asdict(self)


class Kernel:
    """Base class; subclasses provide ``density`` and metadata attributes."""

    family: str = "abstract"
    parity: str = "even"            # "even" or "general"
    support_radius: float = math.inf  # |x| beyond which phi is treated as 0
    lobe_width: float = 1.0         # width of the central lobe at eps = 1

    def __init__(self):
        self._moment_cache: dict[int, float] = {}
        self._lock = threading.Lock()

    # -- density ------------------------------------------------------------

    def density(self, x: np.ndarray) -> np.ndarray:
        """Normalised density phi at unscaled argument x (vectorised)."""
        raise NotImplementedError

    def eval(self, epsilon: float, x: float | np.ndarray) -> float | np.ndarray:
        """phi_eps(x) = phi(x / eps) / eps; exactly 0 outside the support."""
        check_positive("epsilon", epsilon)
        arr = np.asarray(x, dtype=float)
        out = np.where(
            np.abs(arr) > epsilon * self.support_radius,
            0.0,
            self.density(arr / epsilon) / epsilon,
        )
        return float(out) if arr.ndim == 0 else out

    # -- moments ------------------------------------------------------------

    def moment(self, m: int) -> float:
        """c_m = integral x^m phi(x) dx over the effective support.

        Odd moments of even kernels are 0 by symmetry and are returned
        without quadrature.
        """
        if m < 0 or int(m) != m:
            raise ParameterError(f"moment order must be a nonnegative integer, got {m}")
        m = int(m)
        if self.parity == "even" and m % 2 == 1:
            return 0.0
        with self._lock:
            if m not in self._moment_cache:
                self._moment_cache[m] = self._compute_moment(m)
            return self._moment_cache[m]

    def _compute_moment(self, m: int) -> float:
        r = self.support_radius
        try:
            math.pow(r, m)  # x^m peaks at the support's edge
        except OverflowError:
            # a non-finite integrand would exhaust the panel budget instead
            raise self._moment_overflow(m) from None
        val, _ = integrate(lambda x: x**m * self.density(x), -r, r,
                           abs_tol=QUAD_ABS_TOL, rel_tol=QUAD_REL_TOL,
                           initial_panels=16)
        return val

    def _moment_overflow(self, m: int) -> ParameterError:
        return ParameterError(f"moment c_{m} of the {self.family} kernel: its "
                              f"integrand x^{m} phi(x) overflows float64")

    def scaled_moment(self, epsilon: float, m: int) -> float:
        """integral x^m phi_eps(x) dx = c_m eps^m (0 for odd m, even kernels)."""
        check_positive("epsilon", epsilon)
        c = self.moment(m)
        if c == 0.0:
            return 0.0
        return c * epsilon**m

    # -- Fourier transform ----------------------------------------------------

    def fourier_grid(self, epsilon: float, xis: np.ndarray) -> np.ndarray:
        """phi_eps_hat(xi) = phi_hat(eps * xi) on an array of frequencies.

        The cosine transform of an even kernel with finite support, by one
        composite Gauss-Kronrod rule shared across all frequencies (a single
        cosine matrix-vector product).
        """
        check_positive("epsilon", epsilon)
        if self.parity != "even" or not math.isfinite(self.support_radius):
            raise ParameterError(
                "numerical Fourier transform is implemented for even kernels "
                "with finite support only"
            )
        xis = np.asarray(xis, dtype=float)
        r = self.support_radius
        u_max = float(np.max(np.abs(xis))) * epsilon
        panels = int(min(max(32, math.ceil(8.0 * u_max * r)), 3000))
        edges = np.linspace(-r, r, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mids[:, None] + half * _GK_NODES_ROW).ravel()
        weights = (half * np.broadcast_to(_GK_WEIGHTS_ROW, (panels, 15))).ravel()
        fw = self.density(nodes) * weights
        out = np.empty(xis.shape, dtype=float)
        chunk = 512
        for lo in range(0, xis.size, chunk):
            us = epsilon * xis.flat[lo:lo + chunk]
            out.flat[lo:lo + chunk] = np.cos(2.0 * math.pi * np.outer(us, nodes)) @ fw
        return out

    def check_admissible(
        self, epsilon: float, xi_max: float, n_grid: int
    ) -> AdmissibilityReport:
        """Sample phi_eps_hat on [-xi_max, xi_max] and test 0 < value < 2."""
        check_positive("epsilon", epsilon)
        if xi_max <= 0:
            raise ParameterError(f"xi_max must be positive, got {xi_max}")
        if n_grid < 3:
            raise ParameterError(f"n_grid must be at least 3, got {n_grid}")
        xs = np.linspace(-xi_max, xi_max, int(n_grid))
        vals = self.fourier_grid(epsilon, xs)
        i_min = int(np.argmin(vals))
        i_max = int(np.argmax(vals))
        bad = (vals < 0.0) | (vals >= 2.0)
        ok = not bool(bad.any())
        first_violation = float(xs[np.nonzero(bad)[0][0]]) if not ok else None
        sign_flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        zeros = tuple(float(0.5 * (xs[i] + xs[i + 1])) for i in sign_flips)
        return AdmissibilityReport(
            passed=ok,
            min_value=float(vals[i_min]),
            max_value=float(vals[i_max]),
            min_location=float(xs[i_min]),
            max_location=float(xs[i_max]),
            first_violation=first_violation,
            zero_crossings=zeros,
            underflow_count=int(np.count_nonzero(vals == 0.0)),
        )


class GaussianKernel(Kernel):
    """phi(x) = exp(-(x/2)^2) / sqrt(4 pi); variance 2, entire transform.

    The density is treated as 0 beyond |x| = 10*sqrt(2) where it has decayed
    below 1e-22; high moments of the truncated density differ from the exact
    Gaussian ones by < 5e-5 relative at m = 50 (negligible through m ~ 30).
    """

    family = "gaussian"
    parity = "even"
    support_radius = 10.0 * math.sqrt(2.0)
    lobe_width = 1.0  # resolution rule: >= 8 taps per eps

    _NORM = 1.0 / math.sqrt(4.0 * math.pi)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._NORM * np.exp(-0.25 * x * x)

    def fourier_grid(self, epsilon: float, xis: np.ndarray) -> np.ndarray:
        check_positive("epsilon", epsilon)
        u = epsilon * np.asarray(xis, dtype=float)
        return np.exp(-4.0 * math.pi**2 * u * u)


class BumpKernel(Kernel):
    """Compactly supported mollifier exp(-1/(1-x^2)) on (-1, 1), unit area."""

    family = "bump"
    parity = "even"
    support_radius = 1.0
    lobe_width = 2.0  # the support is the lobe

    def __init__(self):
        super().__init__()
        raw, _ = integrate(self._raw, -1.0, 1.0,
                           abs_tol=1e-14, rel_tol=1e-13, initial_panels=32)
        self._norm = 1.0 / raw

    @staticmethod
    def _raw(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
        return out

    def density(self, x: np.ndarray) -> np.ndarray:
        return self._norm * self._raw(x)


class TabulatedKernel(Kernel):
    """Kernel given by samples (x_i, phi_i) on a strictly increasing grid.

    The raw table is normalised to unit trapezoid area at construction.
    Moments use the same trapezoid rule; evaluation interpolates linearly
    and is 0 outside the tabulated range.  Parity is declared by the caller
    and spot-checked against mirrored interpolation.
    """

    family = "tabulated"

    def __init__(self, x: np.ndarray, values: np.ndarray, parity: str = "general"):
        super().__init__()
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or x.size < 3:
            raise InputError("tabulated kernel needs matching 1-D x/value arrays, >= 3 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(values))):
            raise InputError("tabulated kernel contains non-finite entries")
        if not np.all(x[1:] > x[:-1]):
            raise InputError("tabulated kernel grid must be strictly increasing")
        if parity not in ("even", "general"):
            raise ParameterError(f"parity must be 'even' or 'general', got {parity!r}")
        area = float(np.trapezoid(values, x))
        if abs(area) < 1e-300:
            raise InputError("tabulated kernel has (near-)zero area; cannot normalise")
        self._x = x
        self._v = values / area
        self.support_radius = float(max(abs(x[0]), abs(x[-1])))
        self.lobe_width = float(x[-1] - x[0])
        self.parity = parity
        if parity == "even":
            self._spot_check_even()

    def _spot_check_even(self):
        probes = np.linspace(0.0, 0.9 * self.support_radius, 17)
        left = self.density(-probes)
        right = self.density(probes)
        scale = float(np.max(np.abs(self._v)))
        if np.max(np.abs(left - right)) > 1e-6 * scale:
            raise ParameterError("kernel declared even but samples are asymmetric")

    @classmethod
    def from_csv(cls, path: str, parity: str = "general") -> "TabulatedKernel":
        """Load a two-column (x, value) CSV; '.' decimal separator, UTF-8."""
        xs, vs = [], []
        first_data_row = True
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from None
        for row in rows:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise InputError(f"expected two columns in {path}, got {row!r}")
            try:
                x = float(row[0])
                v = float(row[1])
            except ValueError:
                if first_data_row:  # tolerate a single header line
                    first_data_row = False
                    continue
                raise InputError(f"non-numeric row in {path}: {row!r}")
            first_data_row = False
            xs.append(x)
            vs.append(v)
        return cls(np.array(xs), np.array(vs), parity=parity)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.interp(x, self._x, self._v, left=0.0, right=0.0)

    def _compute_moment(self, m: int) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(np.trapezoid(self._x**m * self._v, self._x))
        if not math.isfinite(val):
            raise self._moment_overflow(m)
        return val

    def fourier_grid(self, epsilon: float, xis: np.ndarray) -> np.ndarray:
        if self.parity != "even":
            raise ParameterError(
                "the transform of a general tabulated kernel is complex-valued "
                "and not provided; declare parity='even' for a real transform"
            )
        check_positive("epsilon", epsilon)
        us = epsilon * np.asarray(xis, dtype=float)
        cosm = np.cos(2.0 * math.pi * np.outer(us, self._x))
        return np.trapezoid(cosm * self._v, self._x, axis=1)


_FAMILIES = {
    "gaussian": GaussianKernel,
    "bump": BumpKernel,
}


def make_kernel(family: str, csv_path: str | None = None, parity: str = "general") -> Kernel:
    """Instantiate a kernel by family name ('gaussian', 'bump', 'tabulated')."""
    fam = family.lower()
    if fam in _FAMILIES:
        return _FAMILIES[fam]()
    if fam == "tabulated":
        if csv_path is None:
            raise ParameterError("tabulated kernel requires a CSV path")
        return TabulatedKernel.from_csv(csv_path, parity=parity)
    raise ParameterError(f"unknown kernel family {family!r}")
