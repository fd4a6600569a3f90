"""Independent reference implementations the tests compare the package against.

Each one evaluates a definition directly, slowly and without the shortcuts
the package takes, so that a test can check the fast path against it.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from deconv.errors import InputError, PrecisionError
from deconv.multipoly import MultiPolynomial
from deconv.polynomials import ConvOperator, Polynomial1D
from deconv.signals import GridSignal

# (node, Gauss-7 weight, Kronrod-15 weight) on [-1, 1]
_GK_NODES = np.array([
    0.000000000000000,
    -0.207784955007898, +0.207784955007898,
    -0.405845151377397, +0.405845151377397,
    -0.586087235467691, +0.586087235467691,
    -0.741531185599394, +0.741531185599394,
    -0.864864423359769, +0.864864423359769,
    -0.949107912342759, +0.949107912342759,
    -0.991455371120813, +0.991455371120813,
])
_W_GAUSS = np.array([
    0.417959183673469,
    0.0, 0.0,
    0.381830050505119, 0.381830050505119,
    0.0, 0.0,
    0.279705391489277, 0.279705391489277,
    0.0, 0.0,
    0.129484966168870, 0.129484966168870,
    0.0, 0.0,
])
_W_KRONROD = np.array([
    0.209482141084728,
    0.204432940075298, 0.204432940075298,
    0.190350578064785, 0.190350578064785,
    0.169004726639267, 0.169004726639267,
    0.140653259715525, 0.140653259715525,
    0.104790010322250, 0.104790010322250,
    0.063092092629979, 0.063092092629979,
    0.022935322010529, 0.022935322010529,
])


def _panel(f, a: float, b: float):
    """Return (K15 value, |K15 - G7| error estimate) for one panel."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GK_NODES
    y = np.asarray(f(x), dtype=float)
    gauss = half * float(_W_GAUSS @ y)
    kronrod = half * float(_W_KRONROD @ y)
    err = abs(kronrod - gauss)
    # The classical sharper estimate; keeps smooth panels from being split
    # forever.  It is the smaller one only below 1, and overflows far above.
    err = min(err, (200.0 * err) ** 1.5) if 0 < err < 1 else err
    return kronrod, err


def adaptive_integrate(
    f,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-8,
    initial_panels: int = 8,
    max_panels: int = 2048,
) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod (G7, K15) integral of a vectorised callable.

    The panel with the largest error estimate is bisected until the combined
    estimate meets ``abs_tol`` or ``rel_tol * |value|``.  Returns
    ``(value, error_estimate)``; raises :class:`PrecisionError` when
    ``max_panels`` is reached first.  An independent reference for the
    package's fixed Gauss-Legendre rule.
    """
    if not b > a:
        raise ValueError(f"integration bounds must satisfy b > a, got [{a}, {b}]")
    edges = np.linspace(a, b, initial_panels + 1)
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo, hi)
        panels.append((err, lo, hi, val))

    while True:
        total = sum(p[3] for p in panels)
        err_total = sum(p[0] for p in panels)
        if err_total <= max(abs_tol, rel_tol * abs(total)):
            return total, err_total
        if len(panels) >= max_panels:
            raise PrecisionError(
                f"quadrature did not converge on [{a}, {b}]: "
                f"error estimate {err_total:.3e} after {len(panels)} panels",
                achieved_error=err_total,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, lo, hi, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            val, err = _panel(f, *seg)
            panels.append((err, seg[0], seg[1], val))


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
    val, _ = adaptive_integrate(
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
            out[i] = adaptive_integrate(lambda y: f(float(x), y), ay, by,
                                        abs_tol=tol, rel_tol=tol)[0]
        return out

    return adaptive_integrate(outer, ax, bx, abs_tol=tol, rel_tol=tol)[0]


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


def signal_from_csv_by_rows(path: str) -> GridSignal:
    """A ``t,value`` CSV read row by row with ``csv.reader`` and ``float()``.

    The reference for ``signals.signal_from_csv``, whose numpy parser must
    agree with it bit for bit, or fail where it fails with the same message.
    """
    ts, vs = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header[:2]] != ["t", "value"]:
                raise InputError(f"{path}: expected header 't,value'")
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise InputError(f"expected two columns (t,value) in {path}, got {row!r}")
                try:
                    ts.append(float(row[0]))
                    vs.append(float(row[1]))
                except ValueError:
                    raise InputError(f"non-numeric row in {path}: {row!r}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    if len(ts) < 2:
        raise InputError(f"{path}: need at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(ts)
    dt = float(steps[0])
    if not (0 < dt < math.inf and np.abs(steps - dt).max() <= 1e-9 * max(dt, 1.0)):
        raise InputError(f"{path}: time column is not uniformly spaced")
    return GridSignal(ts[0], dt, np.asarray(vs))
