import contextlib
import filecmp
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from deconv.cli import main as cli_main
from deconv import signals
from deconv.experiments import (
    ExperimentSpec,
    run_experiment,
    run_fig1,
    run_fig2,
    run_fig3,
    sin_mix,
    spectral_peak_to_floor,
    taylor_sin_mix,
)
from deconv.multipoly import MultiPolynomial
from deconv.polynomials import Polynomial1D
from deconv.signals import dft, sample_function, signal_from_csv


class TestTaylorSinMix:
    def test_degree_one(self):
        p = taylor_sin_mix(1)
        assert np.array_equal(p.coeffs, [0.0, 8.0])

    def test_degree_three(self):
        # cubic coefficient is -(5^3 + 3^3)/3! = -152/6
        p = taylor_sin_mix(3)
        assert abs(p.coeffs[3] - (-152.0 / 6.0)) < 1e-14
        assert p.coeffs[1] == 8.0 and p.coeffs[2] == 0.0

    def test_derivatives_at_zero(self):
        # oracle: k-th Maclaurin coefficient is f^{(k)}(0) / k!; for the sine
        # mix the derivatives cycle through 5^k cos / -5^k sin patterns
        p = taylor_sin_mix(9)
        for k in range(1, 10, 2):
            expect = (-1) ** ((k - 1) // 2) * (5**k + 3**k) / math.factorial(k)
            assert abs(p.coeffs[k] - expect) < 1e-12 * abs(expect)

    def test_degree_50_approximates_on_window(self):
        p = taylor_sin_mix(50)
        xs = np.linspace(-2.0, 2.0, 401)
        assert np.abs(p(xs) - sin_mix(xs)).max() < 1e-6

    def test_rejects_degree_zero(self):
        with pytest.raises(Exception):
            taylor_sin_mix(0)


@pytest.fixture(scope="module")
def fig1_summary(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fig1"))
    return run_fig1(ExperimentSpec.fig1(), out), out


class TestFig1:

    def test_coefficient_roundtrip(self, fig1_summary):
        s, _ = fig1_summary
        assert s["coefficient_roundtrip_rel_error"] < 1e-8

    def test_outputs_exist(self, fig1_summary):
        s, out = fig1_summary
        for name in s["outputs"] + ["summary.json"]:
            assert os.path.exists(os.path.join(out, name))

    def test_sampled_route_shows_edge_effects(self, fig1_summary):
        # the discrete route is orders of magnitude worse than the exact
        # coefficient route, and the innermost quarter beats the boundary zone
        s, out = fig1_summary
        assert s["sampled_edge_max_abs_error"] > 1e4 * s["coefficient_roundtrip_rel_error"]
        errs, ts = [], []
        with open(os.path.join(out, "fig1_sampled_error.csv")) as fh:
            next(fh)
            for line in fh:
                t, e = line.split(",")
                ts.append(float(t)); errs.append(float(e))
        ts = np.array(ts); errs = np.array(errs)
        central = errs[np.abs(ts) < 0.5].max()
        boundary = errs[np.abs(ts) > 1.9].max()
        assert central < boundary

    def test_affine_variant_zero_error(self, tmp_path):
        s = run_fig1(ExperimentSpec.fig1(taylor_degree=1), str(tmp_path))
        assert s["coefficient_roundtrip_rel_error"] == 0.0

    def test_config_echoed(self, fig1_summary):
        s, _ = fig1_summary
        assert s["config"]["epsilon"] == 0.9
        assert s["config"]["kernel_family"] == "bump"
        assert s["config"]["taylor_degree"] == 50


@pytest.fixture(scope="module")
def fig2_summary(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fig2"))
    return run_fig2(ExperimentSpec.fig2(), out), out


class TestFig2:

    def test_config_defaults_embedded(self, fig2_summary):
        s, _ = fig2_summary
        assert s["config"]["order"] == 90
        assert s["config"]["epsilon"] == 0.55
        assert s["config"]["n_samples"] == 2048

    def test_error_matches_spectral_prediction(self, fig2_summary):
        # the pipeline must reproduce what the frequency response dictates:
        # tone recovery factors 0.9979 (omega 3) and 0.0462 (omega 5) give a
        # predicted interior error of ~0.675
        s, _ = fig2_summary
        f3 = s["spectral_factor_at_tones"]["3.0"]
        f5 = s["spectral_factor_at_tones"]["5.0"]
        predicted = math.sqrt(((1 - f3) ** 2 + (1 - f5) ** 2) / 2.0)
        assert abs(s["interior_rel_l2"] - predicted) < 0.02

    def test_residuals_decrease(self, fig2_summary):
        s, _ = fig2_summary
        assert s["residual_norm_last"] < s["residual_norm_first"]

    def test_spectra_files(self, fig2_summary):
        _, out = fig2_summary
        lines = open(os.path.join(out, "fig2_spectrum_kernel.csv")).read().splitlines()
        assert lines[0] == "freq,re,im,abs"
        assert len(lines) == 2049

    def test_working_configuration_recovers(self, tmp_path):
        # with the kernel scale halved the same pipeline reconstructs nearly
        # perfectly, confirming the machinery rather than the parameters
        s = run_fig2(ExperimentSpec.fig2(epsilon=0.275), str(tmp_path))
        assert s["interior_rel_l2"] < 0.02
        assert s["spectral_factor_at_tones"]["5.0"] > 0.999


@pytest.fixture(scope="module")
def fig3_summary(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fig3"))
    return run_fig3(ExperimentSpec.fig3(), out), out


class TestFig3:

    def test_snr_below_one(self, fig3_summary):
        s, _ = fig3_summary
        assert s["snr_interior_power_ratio"] < 1.0

    def test_filter_reduces_error(self, fig3_summary):
        s, _ = fig3_summary
        assert s["interior_rel_l2_filtered"] < s["interior_rel_l2_unfiltered"]

    def test_seed_recorded(self, fig3_summary):
        s, _ = fig3_summary
        assert s["config"]["noise_seed"] == 20260808
        assert s["config"]["noise_variance"] == 0.5

    def test_zero_variance_allpass_reproduces_fig2(self, tmp_path):
        # degenerate noise and a filter away, fig3's reconstruction column
        # must equal fig2's byte for byte
        out2 = str(tmp_path / "f2"); out3 = str(tmp_path / "f3")
        run_fig2(ExperimentSpec.fig2(), out2)
        run_fig3(ExperimentSpec.fig3(noise_variance=0.0), out3)
        sig2 = open(os.path.join(out2, "fig2_signals.csv")).read().splitlines()
        sig3 = open(os.path.join(out3, "fig3_signals.csv")).read().splitlines()
        # columns: fig2 t,original,convolved,reconstructed
        #          fig3 t,original,convolved,noisy,reconstructed,filtered
        for l2, l3 in zip(sig2[1:], sig3[1:]):
            c2 = l2.split(","); c3 = l3.split(",")
            assert c2[:3] == c3[:3]
            assert c2[3] == c3[4]


@pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
def test_determinism_byte_identical(tmp_path, which):
    a = str(tmp_path / "a"); b = str(tmp_path / "b")
    run_experiment(getattr(ExperimentSpec, which)(), a)
    run_experiment(getattr(ExperimentSpec, which)(), b)
    for name in os.listdir(a):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False)


def test_figure_spectra_mirror_in_every_column(tmp_path, monkeypatch):
    # each spectrum fig2 and fig3 write is a real signal's (or the even
    # Gaussian's), so every row past N/2 is built from its mirror's strings
    mirrors = signals._mirrors
    seen = []

    def recording(upper, mirror):
        same, negated = mirrors(upper, mirror)
        seen.append(same | negated)
        return same, negated

    monkeypatch.setattr(signals, "_mirrors", recording)
    run_experiment(ExperimentSpec.fig2(), str(tmp_path / "fig2"))
    run_experiment(ExperimentSpec.fig3(), str(tmp_path / "fig3"))
    assert len(seen) == 9
    assert all(cols.all() for cols in seen)


class TestPeakToFloor:
    def test_clean_tone_dominates(self):
        # non-integer period count leaks into neighbours, but the tone still
        # towers over the local floor
        s = sample_function(lambda t: np.sin(5 * t), -6.0, 6.0, 2048)
        d = spectral_peak_to_floor(dft(s), 5.0)
        assert d["ratio"] > 20.0

    def test_white_noise_has_no_peak(self, rng):
        from deconv.signals import GridSignal
        s = GridSignal(0.0, 12 / 2047, rng.normal(size=2048))
        d = spectral_peak_to_floor(dft(s), 5.0)
        assert d["ratio"] < 10.0


class TestCli:
    def test_kernel_moments_values(self, capsys):
        assert cli_main(["kernel", "moments", "--family", "gaussian", "--max-m", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "m,moment"
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert np.allclose(vals, [1.0, 0.0, 2.0, 0.0, 12.0], atol=1e-8)

    def test_kernel_fourier_and_check(self, capsys, tmp_path):
        assert cli_main(["kernel", "fourier", "--family", "gaussian",
                         "--epsilon", "0.55", "--xi-max", "2", "--n-grid", "5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "xi,value"
        mid = float(rows[3].split(",")[1])
        assert mid == 1.0  # transform at xi = 0
        out = str(tmp_path / "check.json")
        assert cli_main(["kernel", "check", "--family", "bump", "--epsilon", "0.9",
                         "--xi-max", "20", "--n-grid", "401", "--out", out]) == 0
        rep = json.loads(open(out).read())
        assert rep["passed"] is False and rep["zero_crossings"]

    def test_transform_past_its_reach(self, capsys, tmp_path):
        # kernel fourier fails with one JSON error; deconv run only warns
        assert cli_main(["kernel", "fourier", "--family", "bump", "--epsilon", "1",
                         "--xi-max", "24000", "--n-grid", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ParameterError" and "alias" in err["message"]
        from deconv.signals import GridSignal, signal_to_csv
        g_path = str(tmp_path / "g.csv"); rep_path = str(tmp_path / "rep.json")
        signal_to_csv(GridSignal(0.0, 1.0 / 25000, np.ones(64)), g_path)
        assert cli_main(["deconv", "run", "--family", "bump", "--epsilon", "1",
                         "--order", "2", "--in", g_path, "--out", str(tmp_path / "rec.csv"),
                         "--report", rep_path]) == 0
        rep = json.loads(open(rep_path).read())
        assert [w[:30] for w in rep["warnings"]] == ["admissibility scan unavailable"]

    def test_poly_conv_deconv_roundtrip_via_files(self, tmp_path):
        p = Polynomial1D([0.25, -1.0, 0.5, 2.0])
        p_path = str(tmp_path / "p.json")
        q_path = str(tmp_path / "q.json")
        r_path = str(tmp_path / "r.json")
        open(p_path, "w").write(p.to_json())
        assert cli_main(["poly", "conv", "--family", "gaussian", "--epsilon", "0.8",
                         "--in", p_path, "--out", q_path]) == 0
        assert cli_main(["poly", "deconv", "--family", "gaussian", "--epsilon", "0.8",
                         "--in", q_path, "--out", r_path]) == 0
        r = Polynomial1D.from_json(open(r_path).read())
        assert np.abs(r.padded(4) - p.coeffs).max() < 1e-10

    @pytest.mark.parametrize("alpha, epsilon", [
        ([134, 134], 0.5),
        ([267, 1], 0.1),
    ], ids=["x134y134-roundtrip", "x267y-roundtrip"])
    def test_gaussian_degree_limit_is_per_variable(self, tmp_path, alpha, epsilon):
        # total degree 268 without any exponent that needs the moment c_268,
        # whose quadrature overflows float64
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"dim": 2, "terms": [{"alpha": alpha, "coeff": 1}]}))
        for action in ("conv", "deconv"):
            out = tmp_path / f"{action}.json"
            assert cli_main(["poly", action, "--family", "gaussian", "--epsilon", str(epsilon),
                             "--in", str(path), "--out", str(out)]) == 0
            path = out
        r = MultiPolynomial.from_json(path.read_text())
        assert r.coefficient(alpha) == 1.0
        assert max((abs(c) for a, c in r.terms.items() if a != tuple(alpha)),
                   default=0.0) < 1e-9

    @pytest.mark.parametrize("action", ["conv", "deconv"])
    @pytest.mark.parametrize("text,expected", [
        ("[]", [0.0]),
        ('{"dim": 2, "terms": []}', {"dim": 2, "terms": []}),
    ])
    def test_poly_empty_input_is_zero(self, tmp_path, action, text, expected):
        # an empty sum is 0: [] reads as the zero polynomial and an empty
        # {dim, terms} round-trips unchanged; neither is an error
        in_path, out_path = str(tmp_path / "in.json"), str(tmp_path / "out.json")
        open(in_path, "w").write(text)
        assert cli_main(["poly", action, "--family", "gaussian", "--epsilon", "0.8",
                         "--in", in_path, "--out", out_path]) == 0
        assert json.loads(open(out_path).read()) == expected

    def test_poly_iterate_multi(self, tmp_path):
        mp_path = str(tmp_path / "mp.json")
        out_path = str(tmp_path / "out.json")
        open(mp_path, "w").write(
            '{"dim": 2, "terms": [{"alpha": [2, 0], "coeff": 1.0}]}')
        assert cli_main(["poly", "conv", "--family", "gaussian", "--epsilon", "1.0",
                         "--in", mp_path, "--out", out_path]) == 0
        data = json.loads(open(out_path).read())
        consts = [t for t in data["terms"] if t["alpha"] == [0, 0]]
        assert abs(consts[0]["coeff"] - 2.0) < 1e-9

    def test_signal_conv_and_dft(self, tmp_path):
        s = sample_function(lambda t: np.sin(2 * np.pi * t), 0.0, 1.0, 256)
        s_path = str(tmp_path / "s.csv")
        c_path = str(tmp_path / "c.csv")
        sp_path = str(tmp_path / "sp.csv")
        from deconv.signals import signal_to_csv
        signal_to_csv(s, s_path)
        assert cli_main(["signal", "conv", "--family", "gaussian", "--epsilon", "0.05",
                         "--in", s_path, "--out", c_path]) == 0
        out = signal_from_csv(c_path)
        assert out.n == 256
        assert cli_main(["signal", "dft", "--in", s_path, "--out", sp_path]) == 0
        assert open(sp_path).readline().strip() == "freq,re,im,abs"

    def test_deconv_run(self, tmp_path):
        from deconv.kernels import GaussianKernel
        from deconv.signals import convolve_signal, discretize_kernel, signal_to_csv
        f = sample_function(lambda t: np.sin(3 * t), -6.0, 6.0, 1024)
        g = convolve_signal(f, discretize_kernel(GaussianKernel(), 0.3, f.dt))
        g_path = str(tmp_path / "g.csv"); f_path = str(tmp_path / "f.csv")
        out_path = str(tmp_path / "rec.csv"); rep_path = str(tmp_path / "rep.json")
        signal_to_csv(g, g_path); signal_to_csv(f, f_path)
        assert cli_main(["deconv", "run", "--family", "gaussian", "--epsilon", "0.3",
                         "--order", "40", "--in", g_path, "--out", out_path,
                         "--report", rep_path, "--reference", f_path]) == 0
        rep = json.loads(open(rep_path).read())
        assert rep["orders_run"] == 40
        assert rep["interior_rel_l2"] < 0.05

    @pytest.mark.filterwarnings("error")
    def test_deconv_run_large_finite_signal(self, tmp_path, capsys):
        # at |values| ~ 1e160 the squares overflow float64, the norms do not
        from deconv.signals import signal_to_csv

        def finite_only(name):
            raise ValueError(f"report holds {name}")

        f = sample_function(sin_mix, -6.0, 6.0, 512)
        reports = []
        for scale in (1.0, 1e160):
            s = f.with_values(f.values * scale)
            in_path = str(tmp_path / "in.csv"); rep_path = str(tmp_path / "rep.json")
            signal_to_csv(s, in_path)
            assert cli_main(["deconv", "run", "--family", "gaussian", "--epsilon", "0.3",
                             "--order", "5", "--in", in_path, "--reference", in_path,
                             "--out", str(tmp_path / "out.csv"), "--report", rep_path]) == 0
            assert capsys.readouterr().err == ""
            with open(rep_path, encoding="utf-8") as fh:
                reports.append(json.load(fh, parse_constant=finite_only))
        small, large = reports
        np.testing.assert_allclose(large["residual_norms"],
                                   np.multiply(small["residual_norms"], 1e160), rtol=1e-12)
        assert large["interior_rel_l2"] == pytest.approx(small["interior_rel_l2"], rel=1e-9)

    def test_deconv_run_general_kernel_writes_report(self, tmp_path, skew_normal):
        # the CLI's default --parity general: no real transform, so no DC factor
        from deconv.signals import convolve_signal, discretize_kernel, signal_to_csv
        k_path = str(tmp_path / "k.csv")
        np.savetxt(k_path, np.column_stack([skew_normal._x, skew_normal._v]),
                   delimiter=",", fmt="%.17g")
        f = sample_function(lambda t: np.sin(3 * t), -6.0, 6.0, 1024)
        g = convolve_signal(f, discretize_kernel(skew_normal, 0.3, f.dt))
        g_path = str(tmp_path / "g.csv"); out_path = str(tmp_path / "rec.csv")
        rep_path = str(tmp_path / "rep.json")
        signal_to_csv(g, g_path)
        assert cli_main(["deconv", "run", "--family", "tabulated", "--kernel-csv", k_path,
                         "--epsilon", "0.3", "--order", "10", "--in", g_path,
                         "--out", out_path, "--report", rep_path]) == 0
        rep = json.loads(open(rep_path).read())
        assert any("admissibility scan unavailable" in w for w in rep["warnings"])
        assert "spectral_factor_dc" not in rep

    def test_experiment_subcommand_summary(self, tmp_path, capsys):
        assert cli_main(["experiment", "fig2", "--out", str(tmp_path),
                         "--order", "5", "--grid=-6:6:512"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["order"] == 5
        assert summary["config"]["epsilon"] == 0.55

    def test_experiment_flags_reach_config(self, tmp_path, capsys):
        assert cli_main(["experiment", "fig3", "--out", str(tmp_path), "--order", "3",
                         "--grid=-6:6:512", "--epsilon", "0.5", "--variance", "0.25",
                         "--seed", "7"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["epsilon"], config["noise_variance"], config["noise_seed"]) \
            == (0.5, 0.25, 7)

    def test_experiment_degree_sets_taylor_degree(self, tmp_path, capsys):
        assert cli_main(["experiment", "fig1", "--out", str(tmp_path), "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(out)
        assert summary["config"]["taylor_degree"] == 1
        assert summary["coefficient_roundtrip_rel_error"] == 0.0

    def test_numeric_error_exit_code_and_json(self, tmp_path, capsys):
        p_path = str(tmp_path / "p.json")
        open(p_path, "w").write("[1.0, 2.0]")
        code = cli_main(["poly", "conv", "--family", "gaussian", "--epsilon", "-1",
                         "--in", p_path])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"

    @pytest.mark.parametrize("argv, name, text, error, field", [
        (["signal", "dft"], "s.csv", "t,value\n0.0,1.0\n0.5\n", "InputError", "s.csv"),
        (["deconv", "run", "--epsilon", "0.3", "--order", "2"],
         "s.csv", "t,value\n0.0,1.0\n0.5\n", "InputError", "s.csv"),
        (["poly", "conv", "--epsilon", "0.8"], "p.json", '{"dim": 2}', "InputError", "terms"),
        (["poly", "conv", "--epsilon", "0.8"], "p.json",
         '{"dim": 2, "terms": [{"alpha": [2, 0]}]}', "InputError", "coeff"),
        (["poly", "conv", "--epsilon", "0.8"], "p.json",
         '{"dim": 1, "terms": [{"alpha": [2]}]}', "InputError", "coeff"),
        (["poly", "conv", "--epsilon", "0.8"], "p.json",
         '{"dim": 2, "terms": [{"alpha": [1e400, 0], "coeff": 1}]}',
         "InputError", "polynomial JSON"),
        (["poly", "conv", "--epsilon", "0.8"], "p.json",
         '{"dim": 1, "terms": [{"alpha": [100000000], "coeff": 1}]}',
         "ParameterError", "100000000"),
        (["poly", "conv", "--family", "bump", "--epsilon", "0.01"], "p.json",
         json.dumps([0.0] * 1030 + [1.0]), "ParameterError", "1030"),
        (["poly", "deconv", "--epsilon", "0.8"], "p.json",
         '{"dim": 2, "terms": [{"alpha": [515, 515], "coeff": 1}]}',
         "ParameterError", "1030"),
        (["signal", "dft"], "s.csv", "t,value\n0.0,1.0\n0.1,abc\n", "InputError", "s.csv"),
        (["signal", "dft"], "s.csv", b"t,value\n0.0,1.0\n0.1,\xff\n", "InputError", "s.csv"),
        (["signal", "dft"], "s.csv", "t,value\n0,1\n1,2\nnan,3\n3,4\n", "InputError", "s.csv"),
        (["poly", "conv", "--epsilon", "0.5"], "p.json",
         '{"dim": 1, "terms": [{"alpha": [2.5], "coeff": 1}]}', "InputError", "2.5"),
        (["poly", "conv", "--epsilon", "0.5"], "p.json",
         '{"dim": 2, "terms": [{"alpha": [0, 2.5], "coeff": 1}]}', "InputError", "2.5"),
        (["poly", "conv", "--epsilon", "0.5"], "p.json",
         '{"dim": 1, "terms": [{"alpha": [true], "coeff": 1}]}', "InputError", "True"),
        (["poly", "conv", "--epsilon", "0.5"], "p.json", b"[1.0, 2.0\xff]", "InputError",
         "p.json"),
        (["poly", "conv", "--epsilon", "0.5", "--family", "tabulated", "--kernel-csv",
          "{path}"], "k.csv", b"x,value\n-1,0\n0,1\xff\n1,0\n", "InputError", "k.csv"),
    ], ids=["csv-row-one-column-dft", "csv-row-one-column-deconv", "json-no-terms",
            "json-term-no-coeff", "json-1d-term-no-coeff", "json-alpha-overflows-int",
            "json-1d-degree-1e8", "degree-1030", "json-2d-total-degree-1030",
            "csv-non-numeric-value", "csv-not-utf8", "csv-nan-time",
            "json-1d-fractional-alpha", "json-2d-fractional-alpha", "json-bool-alpha",
            "json-not-utf8", "kernel-csv-not-utf8"])
    def test_malformed_input_exit_code_and_json(self, tmp_path, capsys, argv, name,
                                                 text, error, field):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = [str(path) if a == "{path}" else a for a in argv]
        code = cli_main(argv + ["--in", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == error and field in err["message"]

    # a numpy RuntimeWarning would be one more stderr line; here it fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, content, what", [
        (["poly", "deconv", "--family", "bump", "--epsilon", "0.5", "--in", "{path}"],
         [0.0] * 300 + [1.0], "the result"),
        (["poly", "deconv", "--family", "gaussian", "--epsilon", "0.5", "--in", "{path}"],
         [0.0] * 300 + [1.0], "moment c_268"),
        (["poly", "conv", "--family", "bump", "--epsilon", "100", "--in", "{path}"],
         [0.0] * 300 + [1.0], "the smoothing map"),
        (["poly", "deconv", "--epsilon", "0.8", "--in", "{path}"],
         {"dim": 2, "terms": [{"alpha": [200, 200], "coeff": 1}]}, "the inverse"),
        (["poly", "conv", "--epsilon", "0.8", "--in", "{path}"],
         {"dim": 2, "terms": [{"alpha": [200, 200], "coeff": 1}]}, "the smoothed polynomial"),
        (["kernel", "moments", "--family", "tabulated", "--kernel-csv", "{path}"],
         "x,value\n-1e200,0\n0,1\n1e200,0\n", "moment c_2"),
        # signal dft: rfft's bin 0 overflows; then every bin is finite, bin 1's modulus is not
        (["signal", "dft", "--in", "{path}", "--out", "{out}"],
         "t,value\n0,1.5e308\n1,0\n2,0\n3,1.5e308\n", "the spectrum"),
        (["signal", "dft", "--in", "{path}", "--out", "{out}"],
         "t,value\n0,7.5e307\n1,-7.5e307\n2,-7.5e307\n3,7.5e307\n", "the modulus"),
    ], ids=["bump-inverse", "gaussian-moment", "bump-map", "2d-smoothed", "2d-smoothed-conv",
            "tabulated-moment", "dft-rfft", "dft-modulus"])
    def test_float64_overflow_is_one_parameter_error(self, tmp_path, capsys, argv, content,
                                                      what):
        path = tmp_path / "input"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths = {"{path}": str(path), "{out}": str(tmp_path / "out")}
        assert cli_main([paths.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ParameterError"
        assert err["message"].startswith(what) and "overflows float64" in err["message"]

    def test_usage_error_exit_code_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["poly", "conv", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", ["1:2", "1:2:3:4", "a:2:3", "-6:6:1.5"])
    def test_malformed_grid_is_usage_error(self, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["experiment", "fig2", "--out", "unused", f"--grid={grid}"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"family": "gaussian", "max-m": 2}')
        assert cli_main(["kernel", "moments", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 4  # header + m = 0, 1, 2


# -- the CLI contract on generated input files ----------------------------------

# Each command reads the file "{in}".  None of them discretises a kernel: a
# generated time step would size the taps.
CSV_COMMANDS = (
    ["signal", "dft", "--in", "{in}", "--out", "{out}"],
    ["kernel", "moments", "--family", "tabulated", "--kernel-csv", "{in}"],
    ["kernel", "moments", "--family", "tabulated", "--parity", "even", "--kernel-csv", "{in}"],
)
JSON_COMMANDS = (
    ["poly", "conv", "--epsilon", "0.5", "--in", "{in}"],
    ["poly", "deconv", "--family", "bump", "--epsilon", "0.9", "--in", "{in}"],
    ["poly", "iterate", "--epsilon", "0.8", "--k", "2", "--in", "{in}"],
)

_cell = st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "1e400", "abc", ""]) \
    | st.floats().map(repr)
_csv = st.builds(
    lambda head, rows: "\n".join([head, *(",".join(r) for r in rows)]) + "\n",
    st.sampled_from(["t,value", "x,value", "t", ""]),
    st.lists(st.lists(_cell, max_size=3), max_size=8))
# uniform grids, so that some files get past the parser
_grid_csv = st.builds(
    lambda t0, dt, vs: "t,value\n" + "".join(f"{t0 + i * dt!r},{v!r}\n"
                                             for i, v in enumerate(vs)),
    st.floats(-10, 10), st.floats(1e-3, 2), st.lists(st.floats(-5, 5), min_size=2, max_size=8))
_scalar = st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=2)
_term = st.fixed_dictionaries({
    "alpha": st.lists(st.integers(0, 12) | st.sampled_from([2.0, 2.5, 1e400, 10**8]) | _scalar,
                      max_size=4),
    "coeff": st.floats(-2, 2) | _scalar,
})
_poly = (st.fixed_dictionaries({"dim": st.integers(0, 4) | _scalar,
                                "terms": st.lists(_term, max_size=6)})
         | st.lists(st.floats(-2, 2) | _scalar, max_size=8) | _scalar)


def _encoded(texts):
    """The texts as UTF-8, sometimes with a byte that is not UTF-8, or any bytes."""
    return st.builds(lambda text, tail: text.encode() + tail,
                     texts, st.sampled_from([b"", b"\xff", b"\x00"])) | st.binary(max_size=40)


@given(case=st.tuples(st.sampled_from(CSV_COMMANDS), _encoded(_csv | _grid_csv))
       | st.tuples(st.sampled_from(JSON_COMMANDS), _encoded(_poly.map(json.dumps))))
@example(case=(CSV_COMMANDS[0], b"t,value\n0,1\n1,2\nnan,3\n3,4\n"))
@example(case=(CSV_COMMANDS[0], b"t,value\n0.0,1.0\n0.1,\xff\n"))
@example(case=(CSV_COMMANDS[1], b"x,value\n-1,0\n0,1\xff\n1,0\n"))
@example(case=(JSON_COMMANDS[0], b'{"dim": 1, "terms": [{"alpha": [2.5], "coeff": 1}]}'))
@example(case=(JSON_COMMANDS[0], b'{"dim": 1, "terms": [{"alpha": [true], "coeff": 1}]}'))
@example(case=(JSON_COMMANDS[0], b'{"dim": 2, "terms": [{"alpha": [1e400, 0], "coeff": 1}]}'))
@example(case=(JSON_COMMANDS[0], b'{"dim": 1, "terms": [{"alpha": [100000000], "coeff": 1}]}'))
@example(case=(JSON_COMMANDS[0], b"[1.0, 2.0\xff]"))
@example(case=(JSON_COMMANDS[1], b'{"dim": 2, "terms": [{"alpha": [1, 0], "coeff": 1}]}'))
@example(case=(CSV_COMMANDS[1], b"x,value\n-1e200,0\n0,1\n1e200,0\n"))
@example(case=(CSV_COMMANDS[0], b"t,value\n0,1.5e308\n1,0\n2,0\n3,1.5e308\n"))
def test_cli_exit_code_and_stderr_on_generated_files(case):
    argv, content = case
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{in}": os.path.join(tmp, "in"), "{out}": os.path.join(tmp, "out")}
        with open(paths["{in}"], "wb") as fh:
            fh.write(content)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli_main([paths.get(a, a) for a in argv])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    # outside pytest a warning is one more stderr line
    lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == 0:
        assert lines == []
    elif code == 1:
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
