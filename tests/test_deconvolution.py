import math

import numpy as np
import pytest

from deconv.deconvolution import (
    DeconvConfig,
    explicit_inverse_series,
    inverse_operator,
    make_sinc_filter,
    recover_with_filter,
    spectral_factor,
)
from deconv.errors import DivergenceError, ParameterError, ResolutionError
from deconv.signals import (
    GridSignal,
    KernelTaps,
    convolve_signal,
    dft,
    discretize_kernel,
    sample_function,
)


def smooth_window_tone(t0=0.0, t1=1.0, n=512, freq_hz=1.2, sigma=None):
    """Tone under a Gaussian envelope; with the default sigma the boundary
    values are ~1e-14, so zero padding is essentially exact."""
    mid = 0.5 * (t0 + t1)
    if sigma is None:
        sigma = (t1 - t0) / 16.0
    return sample_function(
        lambda t: np.exp(-((t - mid) ** 2) / (2.0 * sigma**2))
        * np.cos(2 * np.pi * freq_hz * (t - mid)),
        t0, t1, n,
    )


class TestConfig:
    def test_validation(self, gaussian):
        with pytest.raises(ParameterError):
            DeconvConfig(gaussian, -0.5, 10)
        with pytest.raises(ParameterError):
            DeconvConfig(gaussian, 0.5, 0)
        with pytest.raises(ParameterError):
            DeconvConfig(gaussian, 0.5, 10, edge_margin=0.6)


class TestInverseOperator:
    def test_affine_signal_unchanged_in_interior(self, gaussian):
        # corrections are edge-born and spread ~sqrt(orders) kernel widths;
        # the margin holds them ~8 sigma away from the interior
        s = sample_function(lambda t: 2.0 * t + 1.0, 0.0, 1.0, 2001)
        cfg = DeconvConfig(gaussian, 0.005, 12, edge_margin=0.2,
                           admissibility_check=False)
        rep = inverse_operator(cfg, s)
        mask = s.interior_mask(0.2)
        assert np.abs(rep.reconstructed.values[mask] - s.values[mask]).max() < 1e-8

    def test_residual_trace_length(self, gaussian):
        s = smooth_window_tone()
        cfg = DeconvConfig(gaussian, 0.02, 7, admissibility_check=False)
        rep = inverse_operator(cfg, s)
        assert rep.residual_norms.shape == (8,)
        assert rep.orders_run == 7

    def test_residual_identity(self, gaussian):
        # ||g - T x_m|| equals ||(id - T)^(m+1) g||: unrolling the recursion
        g = smooth_window_tone()
        taps = discretize_kernel(gaussian, 0.02, g.dt)
        cfg = DeconvConfig(gaussian, 0.02, 10, admissibility_check=False)
        rep = inverse_operator(cfg, g)
        u = g.values.copy()
        for m in range(11):
            u = u - convolve_signal(g.with_values(u), taps).values
            assert abs(rep.residual_norms[m] - np.linalg.norm(u)) < 1e-9 * max(
                1.0, np.linalg.norm(u))

    def test_matches_explicit_series_n10_float64(self, gaussian):
        g = smooth_window_tone()
        cfg = DeconvConfig(gaussian, 0.02, 10, admissibility_check=False)
        rep = inverse_operator(cfg, g)
        explicit = explicit_inverse_series(cfg, g)
        assert np.abs(rep.reconstructed.values - explicit).max() < 1e-9

    def test_recovers_smoothed_tone(self, gaussian):
        f = smooth_window_tone(-10.0, 10.0, n=4096, freq_hz=0.8, sigma=1.2)
        taps = discretize_kernel(gaussian, 0.05, f.dt)
        g = convolve_signal(f, taps)
        cfg = DeconvConfig(gaussian, 0.05, 40, edge_margin=0.1)
        rep = inverse_operator(cfg, g, reference=f)
        assert rep.interior_rel_l2 < 5e-3

    def test_monotone_improvement_with_order(self, gaussian):
        f = smooth_window_tone(-10.0, 10.0, n=1024, freq_hz=0.8, sigma=1.2)
        taps = discretize_kernel(gaussian, 0.3, f.dt)
        g = convolve_signal(f, taps)
        errs = []
        for n in (2, 5, 10, 20, 40):
            cfg = DeconvConfig(gaussian, 0.3, n, admissibility_check=False)
            errs.append(inverse_operator(cfg, g, reference=f).interior_rel_l2)
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_admissibility_warning_for_bump(self, bump):
        g = smooth_window_tone(n=256)
        cfg = DeconvConfig(bump, 0.1, 3, admissibility_check=True)
        rep = inverse_operator(cfg, g)
        assert any("transform" in w for w in rep.warnings)

    def test_scan_past_the_transform_reach_warns(self, bump):
        # Nyquist 12500 at eps = 1 is past the bump transform's reach (10125):
        # the scan cannot run, the inversion still does
        g = GridSignal(0.0, 1.0 / 25000, np.ones(64))
        rep = inverse_operator(DeconvConfig(bump, 1.0, 2, admissibility_check=True), g)
        assert len(rep.warnings) == 1
        assert rep.warnings[0].startswith("admissibility scan unavailable")
        assert "alias" in rep.warnings[0]

    def test_no_warning_for_gaussian(self, gaussian):
        g = smooth_window_tone(n=256)
        cfg = DeconvConfig(gaussian, 0.04, 3, admissibility_check=True)
        assert inverse_operator(cfg, g).warnings == []

    def test_divergence_error(self):
        # a two-hump kernel has transform ~cos(2 pi 0.5 xi): near -1 at
        # xi = 1, so the residual powers grow like 2^m and overflow
        from deconv.kernels import TabulatedKernel
        x = np.linspace(-0.7, 0.7, 561)
        v = np.exp(-(((x - 0.5) / 0.05) ** 2)) + np.exp(-(((x + 0.5) / 0.05) ** 2))
        kernel = TabulatedKernel(x, v, parity="even")
        rng = np.random.default_rng(5)
        g = GridSignal(0.0, 0.05, rng.normal(size=64))
        cfg = DeconvConfig(kernel, 1.0, 1500, admissibility_check=False)
        with pytest.raises(DivergenceError) as exc:
            inverse_operator(cfg, g)
        assert exc.value.iteration > 0

    def test_auto_stop_on_noise_floor(self, bump, rng):
        # the bump's lobe amplification makes the update norms grow; the
        # auto-stop must halt well before the requested order
        g = GridSignal(0.0, 0.05, rng.normal(size=128))
        cfg = DeconvConfig(bump, 0.9, 2000, admissibility_check=False, auto_stop=True)
        rep = inverse_operator(cfg, g)
        assert rep.orders_run < 2000
        assert any("auto-stop" in w for w in rep.warnings)
        # the factors report the orders actually run, not the requested 2000
        response = tap_response(discretize_kernel(bump, 0.9, g.dt), g.n)
        np.testing.assert_allclose(
            rep.spectral_factors, 1.0 - (1.0 - response) ** (rep.orders_run + 1),
            rtol=1e-12, atol=1e-13)


def tap_response(taps, n):
    """sum_j w_j cos(2 pi k j / n) over the centred taps, bin by bin."""
    j = np.arange(taps.weights.size) - taps.half_width
    return np.array([
        math.fsum(taps.weights * np.cos(2.0 * np.pi * ((k * j) % n) / n))
        for k in range(n)
    ])


class TestSpectralFactors:
    def test_taps_fold_when_they_outnumber_samples(self, gaussian, rng):
        g = GridSignal(0.0, 0.0625, rng.normal(size=64))
        cfg = DeconvConfig(gaussian, 0.5, 6, admissibility_check=False)
        taps = discretize_kernel(gaussian, 0.5, g.dt)
        assert taps.weights.size > 3 * g.n  # 229 taps on 64 samples
        rep = inverse_operator(cfg, g)
        expected = 1.0 - (1.0 - tap_response(taps, g.n)) ** 7
        assert np.abs(rep.spectral_factors - expected).max() < 1e-13

    @pytest.mark.parametrize("family,eps,order,t0,t1,n", [
        ("bump", 0.9, 25, -2.0, 2.0, 2001),       # fig1's sampled route
        ("gaussian", 0.55, 90, -6.0, 6.0, 2048),  # fig2
    ])
    def test_match_kernel_transform_at_figure_settings(self, family, eps, order,
                                                       t0, t1, n):
        from deconv.kernels import make_kernel
        g = GridSignal(t0, (t1 - t0) / (n - 1), np.zeros(n))
        cfg = DeconvConfig(make_kernel(family), eps, order, admissibility_check=False)
        rep = inverse_operator(cfg, g)
        expected = spectral_factor(cfg, dft(g).frequencies)
        assert np.abs(rep.spectral_factors - expected).max() < 1e-11

    def test_general_kernel_gives_nan(self):
        from deconv.kernels import TabulatedKernel
        x = np.linspace(-3.0, 3.0, 301)
        kernel = TabulatedKernel(x, np.exp(-(x**2)) * (1 + 0.3 * x), parity="general")
        g = GridSignal(0.0, 0.05, np.ones(64))
        cfg = DeconvConfig(kernel, 1.0, 3, admissibility_check=False)
        assert np.all(np.isnan(inverse_operator(cfg, g).spectral_factors))


class TestEquivalenceHighOrder:
    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18,
        reason="extended precision unavailable; the n=30 cancellation floor "
               "(~3e8 * eps) cannot reach 1e-9 in float64",
    )
    def test_matches_explicit_series_n30_longdouble(self, gaussian, rng):
        # bandlimited random signal via low-order Fourier modes
        t = np.linspace(0.0, 1.0, 1024)
        vals = np.zeros_like(t)
        for k in range(1, 9):
            vals += rng.normal() * np.sin(2 * np.pi * k * t) + rng.normal() * np.cos(
                2 * np.pi * k * t)
        vals /= np.abs(vals).max()
        g = GridSignal(0.0, t[1] - t[0], vals)
        cfg = DeconvConfig(gaussian, 0.01, 30, admissibility_check=False)
        rep = inverse_operator(cfg, g)
        explicit = explicit_inverse_series(cfg, g, dtype=np.longdouble)
        diff = np.abs(rep.reconstructed.values.astype(np.longdouble) - explicit).max()
        assert diff < 1e-9


class TestSpectralFactor:
    def test_dc_is_one(self, gaussian):
        cfg = DeconvConfig(gaussian, 0.7, 15)
        assert abs(spectral_factor(cfg, 0.0) - 1.0) < 1e-14

    def test_fig2_tone_values(self, gaussian):
        # frozen: phi_hat at omega = 5 is exp(-(0.55*5)^2) = 5.1957e-4, and
        # 91 terms recover 1 - (1 - phi_hat)^91 = 4.619e-2 of that tone
        cfg = DeconvConfig(gaussian, 0.55, 90)
        xi = 5.0 / (2.0 * math.pi)
        fac = spectral_factor(cfg, xi)
        assert 0.0 < fac < 1.0
        assert abs(fac - 0.046193) < 1e-5

    def test_monotone_in_order(self, gaussian):
        xi = 5.0 / (2.0 * math.pi)
        vals = [spectral_factor(DeconvConfig(gaussian, 0.55, n), xi)
                for n in (10, 50, 200, 1000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_spectral_contract_per_bin(self, gaussian):
        # dft(reconstruction) == dft(input) * factor on every bin whose input
        # content is above threshold; the envelope keeps that band inside the
        # frequencies the kernel did not annihilate
        f = smooth_window_tone(t0=-10.0, t1=10.0, n=1024, freq_hz=0.25, sigma=1.2)
        taps = discretize_kernel(gaussian, 0.3, f.dt)
        g = convolve_signal(f, taps)
        cfg = DeconvConfig(gaussian, 0.3, 60, admissibility_check=False)
        rep = inverse_operator(cfg, g)
        spec_in = dft(f)
        spec_out = dft(rep.reconstructed)
        factors = spectral_factor(cfg, spec_in.frequencies)
        big = np.abs(spec_in.bins) > 1e-6 * np.abs(spec_in.bins).max()
        ratio = spec_out.bins[big] / spec_in.bins[big]
        assert np.abs(ratio - factors[big]).max() < 5e-3


class TestSincFilter:
    def test_center_tap(self):
        taps = make_sinc_filter(1.0, 0.01, 4.0)
        assert abs(taps.weights[taps.half_width] - 2.0 * 0.01) < 1e-15

    def test_dc_preserved_within_2_percent(self):
        taps = make_sinc_filter(1.0, 0.01, 8.0)
        assert abs(taps.weights.sum() - 1.0) < 0.02

    def test_passband_and_stopband(self):
        # DFT of the taps approximates a rectangle of half-width B
        dt = 0.01
        taps = make_sinc_filter(1.0, dt, 8.0)
        n = 4096
        padded = np.zeros(n)
        padded[: taps.weights.size] = taps.weights
        resp = np.abs(np.fft.fft(padded))
        freqs = np.fft.fftfreq(n, d=dt)
        passband = resp[np.abs(freqs) < 0.8]
        stopband = resp[np.abs(freqs) > 1.2]
        assert np.abs(passband - 1.0).max() < 0.1  # ripple documented
        assert stopband.max() < 0.1

    def test_under_resolved(self):
        with pytest.raises(ResolutionError):
            make_sinc_filter(1.0, 0.2, 4.0)


class TestRecoverWithFilter:
    def test_all_pass_filter_matches_inverse_operator(self, gaussian):
        g = smooth_window_tone(n=512)
        cfg = DeconvConfig(gaussian, 0.02, 5, admissibility_check=False)
        unit = KernelTaps(np.array([1.0]), g.dt)
        rep = recover_with_filter(cfg, g, filter_taps=unit)
        plain = inverse_operator(cfg, g)
        assert np.array_equal(rep.filtered.values, plain.reconstructed.values)

    def test_zero_signal_stays_zero(self, gaussian):
        g = GridSignal(0.0, 0.01, np.zeros(256))
        cfg = DeconvConfig(gaussian, 0.1, 8, admissibility_check=False)
        rep = recover_with_filter(cfg, g)
        assert np.abs(rep.filtered.values).max() == 0.0

    def test_spectra_attached(self, gaussian):
        g = smooth_window_tone(n=256)
        cfg = DeconvConfig(gaussian, 0.04, 4, admissibility_check=False)
        rep = recover_with_filter(cfg, g)
        assert set(rep.spectra) == {"reconstructed", "filtered"}

    def test_filter_cuts_out_of_band_noise(self, gaussian, rng):
        # tone at 0.5 Hz + noise; the unit-bandwidth sinc keeps the tone and
        # drops most of the out-of-band noise power
        t0, t1, n = -8.0, 8.0, 1024
        f = sample_function(lambda t: np.sin(2 * np.pi * 0.5 * t), t0, t1, n)
        taps = discretize_kernel(gaussian, 0.3, f.dt)
        g = convolve_signal(f, taps)
        noisy = g.with_values(g.values + rng.normal(0, 0.5, n))
        cfg = DeconvConfig(gaussian, 0.3, 30, edge_margin=0.1)
        rep = recover_with_filter(cfg, noisy, reference=f)
        assert rep.filtered_interior_rel_l2 < rep.interior_rel_l2
