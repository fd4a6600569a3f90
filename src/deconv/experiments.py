"""The three bundled experiments, emitting plot-ready CSV plus JSON summaries.

* fig1 - polynomial round trip: smooth the degree-50 Taylor approximation of
  sin(5x) + sin(3x) with the compact bump kernel (eps = 0.9), invert in
  coefficient space, and repeat the inversion on the sampled signal to show
  the boundary artifacts of zero-padded discrete convolution.
* fig2 - noiseless signal recovery: smooth f(t) = sin(5t) + sin(3t) with the
  Gaussian kernel (eps = 0.55) and apply the order-90 truncated inverse.
* fig3 - noisy recovery: add seeded zero-mean noise (variance 0.5) to the
  smoothed signal, invert, then low-pass with 2 sinc(2t).

Grids are package defaults ([-2, 2] x 2001 for fig1, [-6, 6] x 2048 for
fig2/fig3); summaries embed every resolved parameter for provenance, and
identical parameters (including the seed) produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .deconvolution import (
    DeconvConfig,
    inverse_operator,
    make_sinc_filter,
    recover_with_filter,
    spectral_factor,
)
from .errors import ParameterError
from .kernels import Kernel, make_kernel
from .polynomials import ConvOperator, Polynomial1D
from .signals import (
    GridSignal,
    Spectrum,
    convolve_signal,
    dft,
    discretize_kernel,
    interior_rel_l2,
    sample_function,
    spectrum_to_csv,
    write_columns_csv,
)

SIN_MIX_ANGULAR_FREQS = (3.0, 5.0)


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved parameters of one experiment run."""

    experiment: str
    kernel_family: str
    epsilon: float
    order: int
    taylor_degree: int
    t0: float
    t1: float
    n_samples: int
    edge_margin: float = 0.1
    noise_seed: int = 20260808
    noise_variance: float = 0.5
    filter_bandwidth: float = 1.0
    filter_half_width: float = 8.0

    @classmethod
    def fig1(cls, **overrides) -> "ExperimentSpec":
        base = cls(
            experiment="fig1", kernel_family="bump", epsilon=0.9, order=0,
            taylor_degree=50, t0=-2.0, t1=2.0, n_samples=2001,
        )
        return replace(base, **overrides)

    @classmethod
    def fig2(cls, **overrides) -> "ExperimentSpec":
        base = cls(
            experiment="fig2", kernel_family="gaussian", epsilon=0.55, order=90,
            taylor_degree=0, t0=-6.0, t1=6.0, n_samples=2048,
        )
        return replace(base, **overrides)

    @classmethod
    def fig3(cls, **overrides) -> "ExperimentSpec":
        return cls.fig2(**{"experiment": "fig3", **overrides})

    def kernel(self) -> Kernel:
        return make_kernel(self.kernel_family)

    def to_dict(self) -> dict:
        return asdict(self)


def sin_mix(t: np.ndarray) -> np.ndarray:
    """sin(5t) + sin(3t), the test signal of fig2/fig3."""
    return np.sin(5.0 * t) + np.sin(3.0 * t)


def taylor_sin_mix(degree: int) -> Polynomial1D:
    """Maclaurin truncation of sin(5x) + sin(3x) at the given degree.

    Only odd powers appear: coefficient of x^k is
    (-1)^((k-1)/2) (5^k + 3^k) / k!.
    """
    if degree < 1 or int(degree) != degree:
        raise ParameterError(f"degree must be a positive integer, got {degree}")
    coeffs = np.zeros(int(degree) + 1)
    for k in range(1, int(degree) + 1, 2):
        coeffs[k] = (-1) ** ((k - 1) // 2) * (5**k + 3**k) / math.factorial(k)
    return Polynomial1D(coeffs)


def _smoothed_sin_mix(spec: ExperimentSpec) -> tuple[Kernel, GridSignal, GridSignal]:
    """The spec's kernel, the sampled sin mix and its smoothed samples."""
    kernel = spec.kernel()
    f = sample_function(sin_mix, spec.t0, spec.t1, spec.n_samples)
    return kernel, f, convolve_signal(f, discretize_kernel(kernel, spec.epsilon, f.dt))


# -- output helpers -----------------------------------------------------------

def _write_summary(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def kernel_spectrum(kernel: Kernel, epsilon: float, like: Spectrum) -> Spectrum:
    """Kernel transform sampled at a spectrum's bin frequencies."""
    vals = kernel.fourier_grid(epsilon, like.frequencies)
    return Spectrum(df=like.df, bins=vals.astype(np.complex128))


def spectral_peak_to_floor(
    spec: Spectrum, angular_freq: float, exclude: int = 5, band: int = 40
) -> dict:
    """Peak magnitude at a tone against the median magnitude nearby.

    The tone at angular frequency w sits at physical frequency w / (2 pi);
    the peak is searched within +-2 bins of it, the floor is the median
    magnitude over ``band`` bins on each side with ``exclude`` bins around
    the peak left out.
    """
    xi = angular_freq / (2.0 * math.pi)
    k = int(round(xi / spec.df))
    mags = np.abs(spec.bins)
    half = spec.n // 2
    k = max(0, min(k, half))
    lo, hi = max(0, k - 2), min(half, k + 2) + 1
    peak_idx = lo + int(np.argmax(mags[lo:hi]))
    peak = float(mags[peak_idx])
    idx = np.arange(max(0, k - band), min(half, k + band) + 1)
    sel = mags[idx[np.abs(idx - peak_idx) > exclude]]
    floor = float(np.median(sel)) if sel.size else 0.0
    return {
        "angular_freq": angular_freq,
        "bin": peak_idx,
        "peak": peak,
        "floor": floor,
        "ratio": peak / floor if floor > 0 else math.inf,
    }


# -- fig1 ---------------------------------------------------------------------

def run_fig1(spec: ExperimentSpec, out_dir: str) -> dict:
    """Polynomial smoothing round trip, coefficient space and sampled."""
    if spec.experiment != "fig1":
        raise ParameterError(f"spec is for {spec.experiment!r}, expected 'fig1'")
    os.makedirs(out_dir, exist_ok=True)
    kernel = spec.kernel()
    p = taylor_sin_mix(spec.taylor_degree)
    op = ConvOperator(kernel, spec.epsilon, max_degree=max(spec.taylor_degree, p.degree()))
    q = op.convolve(p)
    r = op.invert(q)

    scale = float(np.abs(p.coeffs).max())
    nmax = max(p.coeffs.size, r.coeffs.size)
    coeff_err = float(np.abs(r.padded(nmax) - p.padded(nmax)).max()) / scale

    ts = np.linspace(spec.t0, spec.t1, spec.n_samples)
    curves = [p(ts), q(ts), r(ts)]
    write_columns_csv(
        os.path.join(out_dir, "fig1_curves.csv"),
        ["t", "original", "convolved", "inverted"],
        [ts, *curves],
    )
    write_columns_csv(
        os.path.join(out_dir, "fig1_error.csv"),
        ["t", "abs_error"],
        [ts, np.abs(curves[2] - curves[0])],
    )

    # sampled route: discrete convolution, then the same alternating series
    # realised on samples (depth = floor(degree / 2))
    sampled = sample_function(p, spec.t0, spec.t1, spec.n_samples)
    taps = discretize_kernel(kernel, spec.epsilon, sampled.dt)
    smoothed = convolve_signal(sampled, taps)
    depth = max(1, spec.taylor_degree // 2)
    cfg = DeconvConfig(kernel, spec.epsilon, depth,
                       edge_margin=spec.edge_margin, admissibility_check=False)
    rep = inverse_operator(cfg, smoothed, reference=sampled)
    recon = rep.reconstructed
    abs_err = np.abs(recon.values - sampled.values)
    mask = sampled.interior_mask(spec.edge_margin)
    write_columns_csv(
        os.path.join(out_dir, "fig1_sampled.csv"),
        ["t", "original", "convolved", "inverted"],
        [sampled.times, sampled.values, smoothed.values, recon.values],
    )
    write_columns_csv(
        os.path.join(out_dir, "fig1_sampled_error.csv"),
        ["t", "abs_error"],
        [sampled.times, abs_err],
    )
    _write_summary(os.path.join(out_dir, "fig1_coefficients.json"), {
        "original": p.coeffs.tolist(),
        "convolved": q.coeffs.tolist(),
        "inverted": r.coeffs.tolist(),
    })

    summary = {
        "config": spec.to_dict(),
        "grids_are_package_defaults": True,
        "coefficient_roundtrip_rel_error": coeff_err,
        "sampled_interior_rel_l2": rep.interior_rel_l2,
        "sampled_interior_max_abs_error": float(abs_err[mask].max()),
        "sampled_edge_max_abs_error": float(abs_err[~mask].max()) if (~mask).any() else 0.0,
        "sampled_series_depth": depth,
        "outputs": [
            "fig1_curves.csv", "fig1_error.csv", "fig1_sampled.csv",
            "fig1_sampled_error.csv", "fig1_coefficients.json",
        ],
    }
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


# -- fig2 ---------------------------------------------------------------------

def run_fig2(spec: ExperimentSpec, out_dir: str) -> dict:
    """Noiseless pipeline: sample, smooth, invert, emit signals and spectra."""
    if spec.experiment != "fig2":
        raise ParameterError(f"spec is for {spec.experiment!r}, expected 'fig2'")
    os.makedirs(out_dir, exist_ok=True)
    kernel, f, smoothed = _smoothed_sin_mix(spec)
    cfg = DeconvConfig(kernel, spec.epsilon, spec.order, edge_margin=spec.edge_margin)
    rep = inverse_operator(cfg, smoothed, reference=f)
    recon = rep.reconstructed

    write_columns_csv(
        os.path.join(out_dir, "fig2_signals.csv"),
        ["t", "original", "convolved", "reconstructed"],
        [f.times, f.values, smoothed.values, recon.values],
    )
    spec_f = dft(f)
    spectrum_to_csv(spec_f, os.path.join(out_dir, "fig2_spectrum_original.csv"))
    spectrum_to_csv(dft(smoothed), os.path.join(out_dir, "fig2_spectrum_convolved.csv"))
    spec_recon = dft(recon)
    spectrum_to_csv(spec_recon, os.path.join(out_dir, "fig2_spectrum_reconstructed.csv"))
    spectrum_to_csv(kernel_spectrum(kernel, spec.epsilon, spec_f),
                    os.path.join(out_dir, "fig2_spectrum_kernel.csv"))

    factors = {
        str(w): float(spectral_factor(cfg, w / (2.0 * math.pi)))
        for w in SIN_MIX_ANGULAR_FREQS
    }
    peaks = {
        str(w): spectral_peak_to_floor(spec_recon, w) for w in SIN_MIX_ANGULAR_FREQS
    }
    summary = {
        "config": spec.to_dict(),
        "grids_are_package_defaults": True,
        "interior_rel_l2": rep.interior_rel_l2,
        "residual_norm_first": float(rep.residual_norms[0]),
        "residual_norm_last": float(rep.residual_norms[-1]),
        "spectral_factor_at_tones": factors,
        "reconstruction_peaks": peaks,
        "warnings": rep.warnings,
        "outputs": [
            "fig2_signals.csv", "fig2_spectrum_original.csv",
            "fig2_spectrum_convolved.csv", "fig2_spectrum_reconstructed.csv",
            "fig2_spectrum_kernel.csv",
        ],
    }
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


# -- fig3 ---------------------------------------------------------------------

def run_fig3(spec: ExperimentSpec, out_dir: str) -> dict:
    """Noisy pipeline: smooth, add seeded noise, invert, low-pass filter."""
    if spec.experiment != "fig3":
        raise ParameterError(f"spec is for {spec.experiment!r}, expected 'fig3'")
    if spec.noise_variance < 0:
        raise ParameterError(f"noise variance must be >= 0, got {spec.noise_variance}")
    os.makedirs(out_dir, exist_ok=True)
    kernel, f, smoothed = _smoothed_sin_mix(spec)
    rng = np.random.default_rng(spec.noise_seed)
    noise = rng.normal(0.0, math.sqrt(spec.noise_variance), f.n) if spec.noise_variance > 0 \
        else np.zeros(f.n)
    noisy = smoothed.with_values(smoothed.values + noise)

    cfg = DeconvConfig(kernel, spec.epsilon, spec.order, edge_margin=spec.edge_margin)
    filter_taps = make_sinc_filter(spec.filter_bandwidth, f.dt, spec.filter_half_width)
    rep = recover_with_filter(cfg, noisy, filter_taps=filter_taps, reference=f)
    recon, filtered = rep.reconstructed, rep.filtered

    mask = f.interior_mask(spec.edge_margin)
    noise_power = float(np.mean(noise[mask] ** 2))
    signal_power = float(np.mean(smoothed.values[mask] ** 2))
    snr = signal_power / noise_power if noise_power > 0 else math.inf

    write_columns_csv(
        os.path.join(out_dir, "fig3_signals.csv"),
        ["t", "original", "convolved", "noisy", "reconstructed", "filtered"],
        [f.times, f.values, smoothed.values, noisy.values, recon.values, filtered.values],
    )
    spec_f = dft(f)
    spectrum_to_csv(spec_f, os.path.join(out_dir, "fig3_spectrum_original.csv"))
    spectrum_to_csv(dft(noisy), os.path.join(out_dir, "fig3_spectrum_noisy.csv"))
    spectrum_to_csv(rep.spectra["reconstructed"],
                    os.path.join(out_dir, "fig3_spectrum_reconstructed.csv"))
    spectrum_to_csv(rep.spectra["filtered"],
                    os.path.join(out_dir, "fig3_spectrum_filtered.csv"))
    filt_sig = GridSignal(-spec.filter_half_width, f.dt,
                          filter_taps.weights / f.dt)  # density view of the taps
    spectrum_to_csv(dft(filt_sig), os.path.join(out_dir, "fig3_spectrum_filter.csv"))

    peaks_filtered = {
        str(w): spectral_peak_to_floor(rep.spectra["filtered"], w)
        for w in SIN_MIX_ANGULAR_FREQS
    }
    summary = {
        "config": spec.to_dict(),
        "grids_are_package_defaults": True,
        "snr_interior_power_ratio": snr,
        "snr_formula": "mean(smoothed^2) / mean(noise^2) over the interior mask",
        "interior_rel_l2_unfiltered": rep.interior_rel_l2,
        "interior_rel_l2_filtered": rep.filtered_interior_rel_l2,
        "filtered_peaks": peaks_filtered,
        "warnings": rep.warnings,
        "outputs": [
            "fig3_signals.csv", "fig3_spectrum_original.csv", "fig3_spectrum_noisy.csv",
            "fig3_spectrum_reconstructed.csv", "fig3_spectrum_filtered.csv",
            "fig3_spectrum_filter.csv",
        ],
    }
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_experiment(spec: ExperimentSpec, out_dir: str) -> dict:
    runners = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3}
    if spec.experiment not in runners:
        raise ParameterError(f"unknown experiment {spec.experiment!r}")
    return runners[spec.experiment](spec, out_dir)
