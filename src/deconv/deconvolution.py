"""Truncated-series deconvolution of sampled signals.

The order-n inverse of smoothing is the alternating binomial sum

    x_n = sum_{k=0}^{n} (-1)^k C(n+1, k+1) T^k g,          (explicit form)

where T convolves with the discrete kernel.  Its binomial coefficients reach
~1e26 by n = 90 and cancel catastrophically in floating point, so the
production path runs the algebraically identical fixed-point recursion

    x_0 = g,   x_{m+1} = x_m + (g - T x_m),                 (recursion)

i.e. the partial sums of sum_k (id - T)^k g, which needs no large
coefficients and one convolution per order.  Where the kernel transform
stays inside (0, 2) the recursion's frequency response is
1 - (1 - phi_eps_hat)^(n+1): it rises to 1 wherever the kernel kept a
nonzero fraction of the content, which is the whole story of how (and how
fast) deconvolution recovers each frequency.

``explicit_inverse_series`` evaluates the explicit form directly (optionally
in extended precision) and exists to cross-check the recursion, not to be
fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ParameterError, ResolutionError, check_positive
from .kernels import Kernel
from .signals import (
    GridSignal,
    KernelTaps,
    MIN_TAPS_PER_LOBE,
    Spectrum,
    TapsConvolver,
    convolve_signal,
    dft,
    discretize_kernel,
    interior_rel_l2,
    l2_norm,
)


@dataclass(frozen=True)
class DeconvConfig:
    """Parameters of the order-n inverse.

    edge_margin is the per-side fraction of samples excluded from error
    metrics (boundary artifacts of zero-padded convolution).  When
    admissibility_check is on, the kernel transform is scanned up to the
    grid Nyquist frequency and failures are attached to the report as
    warnings (polynomial-type content can still invert when the scan fails).
    auto_stop halts early once the interior update norm grows for three
    consecutive orders, the footprint of the numerical noise floor.
    """

    kernel: Kernel
    epsilon: float
    order: int
    edge_margin: float = 0.1
    admissibility_check: bool = True
    auto_stop: bool = False

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        if self.order < 1 or int(self.order) != self.order:
            raise ParameterError(f"order must be a positive integer, got {self.order}")
        if not (0.0 <= self.edge_margin < 0.5):
            raise ParameterError(f"edge_margin must lie in [0, 0.5), got {self.edge_margin}")


@dataclass
class DeconvReport:
    """Everything a run produced: signal, trace, diagnostics."""

    reconstructed: GridSignal
    residual_norms: np.ndarray          # ||g - T x_m||_2 for m = 0..orders_run
    # 1 - (1 - tap transform at the bin frequencies)^(orders_run + 1)
    spectral_factors: np.ndarray
    orders_run: int
    interior_rel_l2: float | None = None
    warnings: list[str] = field(default_factory=list)
    filtered: GridSignal | None = None
    filtered_interior_rel_l2: float | None = None
    spectra: dict[str, Spectrum] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "orders_run": self.orders_run,
            "residual_norms": [float(r) for r in self.residual_norms],
            "interior_rel_l2": self.interior_rel_l2,
            "filtered_interior_rel_l2": self.filtered_interior_rel_l2,
            "warnings": list(self.warnings),
        }


def spectral_factor(cfg: DeconvConfig, xi: float | np.ndarray) -> float | np.ndarray:
    """Frequency response 1 - (1 - phi_eps_hat(xi))^(n+1) of invert-after-smooth."""
    xis = np.asarray(xi, dtype=float)
    ph = cfg.kernel.fourier_grid(cfg.epsilon, np.atleast_1d(xis))
    fac = 1.0 - (1.0 - ph) ** (cfg.order + 1)
    return float(fac[0]) if xis.ndim == 0 else fac.reshape(xis.shape)


def inverse_operator(
    cfg: DeconvConfig,
    g: GridSignal,
    reference: GridSignal | None = None,
) -> DeconvReport:
    """Apply the order-n truncated inverse to g.

    Runs the fixed-point recursion; the reconstruction costs exactly n
    discrete convolutions, plus one more to close the residual trace (the
    trace holds n+1 norms, one per order including the final state).
    """
    taps = discretize_kernel(cfg.kernel, cfg.epsilon, g.dt)
    warnings: list[str] = []
    if cfg.admissibility_check:
        if cfg.kernel.parity != "even":
            warnings.append(
                "admissibility scan unavailable for a general (non-even) "
                "kernel; convergence of the truncated series is unverified"
            )
        else:
            nyquist = 0.5 / g.dt
            try:
                rep = cfg.kernel.check_admissible(cfg.epsilon, nyquist, 2001)
            except ParameterError as exc:  # the scan only advises
                warnings.append(f"admissibility scan unavailable: {exc}")
            else:
                if not rep.passed:
                    warnings.append(
                        "kernel transform leaves (0, 2) on the sampled band "
                        f"(min {rep.min_value:.3e} at xi={rep.min_location:.4g}); the "
                        "truncated series need not converge for broadband content"
                    )

    n = cfg.order
    inner = g.interior(cfg.edge_margin)
    conv = TapsConvolver(taps, g.n)
    x = g.values.copy()
    residuals = np.empty(n + 1)
    last_unorm = math.inf  # the interior update norm, read by auto_stop only
    grow_streak = 0
    orders_run = n
    # a finite norm implies finite samples, so only a non-finite one is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n + 1):
            r = g.values - conv.apply(x)
            rn = l2_norm(r)
            if not math.isfinite(rn) and not np.isfinite(r).all():
                if m == 0:  # no iteration has run: g - T g itself is past float64
                    raise ParameterError(
                        f"the convolution of these {g.n} finite samples overflows float64")
                raise DivergenceError(
                    f"non-finite intermediate at order {m}; kernel is far from admissible",
                    iteration=m,
                )
            residuals[m] = rn
            if m == orders_run:  # the residual of the final iterate closes the trace
                break
            x += r
            if cfg.auto_stop:
                unorm = l2_norm(r[inner])
                grow_streak = grow_streak + 1 if unorm > last_unorm else 0
                last_unorm = unorm
                if grow_streak >= 3:
                    orders_run = m + 1
                    warnings.append(
                        f"auto-stop at order {m + 1}: interior update norm grew for "
                        "3 consecutive orders (numerical noise floor)"
                    )
    residuals = residuals[: orders_run + 1]

    rec = g.with_values(x)
    if cfg.kernel.parity == "even":
        # the taps' own transform at the bin frequencies; folding the centred
        # taps onto the N samples keeps it exact when taps outnumber samples
        h = taps.half_width
        folded = np.bincount(np.arange(-h, h + 1) % g.n, weights=taps.weights, minlength=g.n)
        response = dft(g.with_values(folded)).bins.real
        factors = 1.0 - (1.0 - response) ** (orders_run + 1)
    else:
        factors = np.full(g.n, np.nan)  # complex transform, factor undefined
    err = interior_rel_l2(rec, reference, cfg.edge_margin) if reference is not None else None
    return DeconvReport(
        reconstructed=rec,
        residual_norms=residuals,
        spectral_factors=factors,
        orders_run=orders_run,
        interior_rel_l2=err,
        warnings=warnings,
    )


def explicit_inverse_series(cfg: DeconvConfig, g: GridSignal, dtype=np.float64) -> np.ndarray:
    """Directly evaluate sum_k (-1)^k C(n+1, k+1) T^k g.

    Oracle for the recursion.  Uses direct convolution in the requested
    dtype; pass np.longdouble to push the cancellation floor of the binomial
    sum (~3e8 * eps at n = 30) below 1e-9.
    """
    taps = discretize_kernel(cfg.kernel, cfg.epsilon, g.dt).weights.astype(dtype)
    h = (taps.size - 1) // 2
    n = cfg.order
    cur = g.values.astype(dtype)
    acc = np.zeros_like(cur)
    for k in range(n + 1):
        coeff = dtype((-1) ** k * math.comb(n + 1, k + 1))
        acc = acc + coeff * cur
        if k < n:
            cur = np.convolve(cur, taps)[h : h + g.n]
    return acc


def make_sinc_filter(bandwidth: float, dt: float, half_width: float) -> KernelTaps:
    """Low-pass taps 2B sinc(2Bt) * dt on [-half_width, half_width].

    Normalised sinc (sin(pi x)/(pi x)); passband is |frequency| <= B.  The
    tap sum differs from 1 by the truncation ripple of the sinc tail, which
    is why the taps are not renormalised.  Requires >= MIN_TAPS_PER_LOBE
    samples across the main lobe (width 1/B).
    """
    check_positive("bandwidth", bandwidth)
    check_positive("dt", dt)
    check_positive("half_width", half_width)
    lobe = 1.0 / bandwidth
    if lobe / dt < MIN_TAPS_PER_LOBE:
        raise ResolutionError(
            f"dt={dt} under-resolves the sinc main lobe (width {lobe:.4g}): "
            f"{lobe / dt:.2f} taps, need >= {MIN_TAPS_PER_LOBE}"
        )
    half = int(round(half_width / dt))
    t = dt * np.arange(-half, half + 1)
    w = 2.0 * bandwidth * np.sinc(2.0 * bandwidth * t) * dt
    return KernelTaps(w, dt)


def recover_with_filter(
    cfg: DeconvConfig,
    noisy: GridSignal,
    filter_taps: KernelTaps | None = None,
    reference: GridSignal | None = None,
) -> DeconvReport:
    """Inverse operator followed by a low-pass filter.

    Default filter is the unit-bandwidth sinc (2 sinc(2t)) spanning 8 time
    units per side.  The report carries both reconstructions and their
    spectra before and after filtering.
    """
    if filter_taps is None:
        filter_taps = make_sinc_filter(1.0, noisy.dt, 8.0)
    report = inverse_operator(cfg, noisy, reference=reference)
    filtered = convolve_signal(report.reconstructed, filter_taps)
    report.filtered = filtered
    if reference is not None:
        report.filtered_interior_rel_l2 = interior_rel_l2(
            filtered, reference, cfg.edge_margin
        )
    report.spectra["reconstructed"] = dft(report.reconstructed)
    report.spectra["filtered"] = dft(filtered)
    return report
