import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from deconv.deconvolution import make_sinc_filter
from deconv.errors import InputError, ParameterError, ResolutionError
from deconv.signals import (
    DIRECT_CONV_MAX_TAPS,
    GridSignal,
    KernelTaps,
    Spectrum,
    TapsConvolver,
    convolve_signal,
    dft,
    discretize_kernel,
    idft,
    interior_rel_l2,
    sample_function,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
)
from oracles import direct_dft, signal_from_csv_by_rows


class TestGridSignal:
    def test_sample_constant(self):
        s = sample_function(lambda t: np.zeros_like(t), 0.0, 1.0, 5)
        assert s.dt == 0.25 and np.all(s.values == 0.0)

    def test_sample_line(self):
        s = sample_function(lambda t: t, 0.0, 1.0, 2)
        assert np.array_equal(s.values, [0.0, 1.0])

    def test_sample_sin_mix(self):
        s = sample_function(lambda t: np.sin(5 * t) + np.sin(3 * t), -6.0, 6.0, 2048)
        assert s.n == 2048 and abs(s.times[-1] - 6.0) < 1e-12

    def test_rejects_non_finite(self):
        with np.errstate(divide="ignore"), pytest.raises(InputError):
            sample_function(lambda t: 1.0 / t, 0.0, 1.0, 5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            sample_function(lambda t: t, 1.0, 0.0, 5)

    def test_grid_mismatch_rejected(self):
        a = GridSignal(0.0, 0.1, np.zeros(8))
        b = GridSignal(0.0, 0.1, np.zeros(9))
        with pytest.raises(ParameterError):
            _ = a + b

    def test_interior_mask(self):
        s = GridSignal(0.0, 1.0, np.arange(10.0))
        mask = s.interior_mask(0.1)
        assert mask.sum() == 8 and not mask[0] and not mask[-1]


class TestDiscretize:
    def test_taps_sum_to_one(self, gaussian):
        taps = discretize_kernel(gaussian, 0.55, 0.005)
        assert abs(taps.weights.sum() - 1.0) < 1e-14

    def test_bump_tap_count(self, bump):
        taps = discretize_kernel(bump, 0.9, 0.005)
        assert taps.weights.size == math.ceil(1.8 / 0.005) + 1

    def test_under_resolved(self, gaussian):
        with pytest.raises(ResolutionError):
            discretize_kernel(gaussian, 0.55, 1.0)

    def test_odd_length(self, gaussian):
        taps = discretize_kernel(gaussian, 0.3, 0.01)
        assert taps.weights.size % 2 == 1

    def test_taps_type_rejects_even_length(self):
        with pytest.raises(InputError):
            KernelTaps(np.ones(4), 0.1)


class TestConvolveSignal:
    def test_constant_preserved_exactly_in_deep_interior(self, gaussian):
        # mask margin exceeds the full tap half-width, and the taps sum to 1
        s = sample_function(lambda t: np.ones_like(t), 0.0, 1.0, 1001)
        taps = discretize_kernel(gaussian, 0.01, s.dt)
        out = convolve_signal(s, taps)
        mask = s.interior_mask(0.2)
        assert np.abs(out.values[mask] - 1.0).max() < 1e-6

    def test_affine_preserved_in_interior(self, gaussian):
        s = sample_function(lambda t: 2.0 * t + 1.0, 0.0, 1.0, 1001)
        taps = discretize_kernel(gaussian, 0.01, s.dt)
        out = convolve_signal(s, taps)
        mask = s.interior_mask(0.2)
        assert np.abs(out.values[mask] - s.values[mask]).max() < 1e-6

    def test_quadratic_matches_polynomial_prediction(self, gaussian):
        # cross-module oracle: coefficient-level result x^2 + c2 eps^2
        eps = 0.5
        s = sample_function(lambda t: t**2, -8.0, 8.0, 3201)
        taps = discretize_kernel(gaussian, eps, s.dt)
        out = convolve_signal(s, taps)
        mask = s.interior_mask(0.35)
        predicted = s.values + 2.0 * eps**2
        assert np.abs(out.values[mask] - predicted[mask]).max() < 1e-5

    def test_direct_equals_fft(self, rng):
        # np.convolve cropped to the window is the oracle on both sides of
        # DIRECT_CONV_MAX_TAPS, at a length that is not a power of two
        cases = [(500, rng.normal(size=DIRECT_CONV_MAX_TAPS // 2 - 1)),
                 (500, rng.normal(size=2 * DIRECT_CONV_MAX_TAPS + 1)),
                 # n + h = 540 = 2^2 3^3 5 is 5-smooth: the circular length is n + h
                 (500, rng.normal(size=81)),
                 # n + h - 1 = 540: a length one short of n + h would be 5-smooth
                 (500, rng.normal(size=83)),
                 # taps outnumber samples; 2h + 1 = 125 = 5^3 sets the length
                 (40, rng.normal(size=125)),
                 (2, rng.normal(size=201))]
        dt = 12.0 / 2047  # fig3's grid and its 2731-tap sinc filter
        cases.append((2048, make_sinc_filter(1.0, dt, 8.0).weights))
        for n, weights in cases:
            s = GridSignal(0.0, dt, rng.normal(size=n))
            taps = KernelTaps(weights, dt)
            h = taps.half_width
            expect = np.convolve(s.values, taps.weights)[h : h + s.n]
            assert np.abs(convolve_signal(s, taps).values - expect).max() < 1e-10

    def test_reused_convolver_gives_independent_results(self, rng):
        # the FFT path keeps its work buffers between calls; each result must
        # still match the oracle and survive the next call
        taps = KernelTaps(rng.normal(size=2 * DIRECT_CONV_MAX_TAPS + 1), 0.01)
        h = taps.half_width
        conv = TapsConvolver(taps, 500)
        xs = [rng.normal(size=500) for _ in range(3)]
        outs = [conv.apply(x) for x in xs]
        for x, out in zip(xs, outs):
            expect = np.convolve(x, taps.weights)[h : h + 500]
            assert np.abs(out - expect).max() < 1e-10

    def test_dt_mismatch(self, gaussian):
        s = GridSignal(0.0, 0.01, np.zeros(64))
        taps = discretize_kernel(gaussian, 0.1, 0.005)
        with pytest.raises(ParameterError):
            convolve_signal(s, taps)

    def test_linearity(self, gaussian, rng):
        s1 = GridSignal(0.0, 0.01, rng.normal(size=256))
        s2 = GridSignal(0.0, 0.01, rng.normal(size=256))
        taps = discretize_kernel(gaussian, 0.08, 0.01)
        lhs = convolve_signal(
            GridSignal(0.0, 0.01, 2.0 * s1.values - 0.5 * s2.values), taps)
        rhs = 2.0 * convolve_signal(s1, taps).values - 0.5 * convolve_signal(s2, taps).values
        assert np.abs(lhs.values - rhs).max() < 1e-10

    def test_shift_equivariance_interior(self, gaussian, rng):
        vals = rng.normal(size=300)
        s = GridSignal(0.0, 0.01, vals)
        shifted = GridSignal(0.0, 0.01, np.r_[np.zeros(5), vals[:-5]])
        taps = discretize_kernel(gaussian, 0.08, 0.01)
        a = convolve_signal(s, taps).values
        b = convolve_signal(shifted, taps).values
        h = taps.half_width
        core = slice(h + 10, 300 - h - 10)
        assert np.abs(b[core] - np.r_[np.zeros(5), a[:-5]][core]).max() < 1e-10

    def test_convolution_theorem_on_padding_free_signal(self, gaussian):
        # signal vanishing at the boundary (edge value ~2e-16): cropped linear
        # convolution coincides with circular, so the bin-wise product law holds
        s = sample_function(
            lambda t: np.exp(-((t - 0.5) * 12.0) ** 2) * np.cos(12.0 * t), 0.0, 1.0, 512)
        taps = discretize_kernel(gaussian, 0.02, s.dt)
        out = convolve_signal(s, taps)
        w = np.zeros(s.n)
        h = taps.half_width
        idx = (np.arange(-h, h + 1)) % s.n
        np.add.at(w, idx, taps.weights)
        lhs = dft(out).bins
        rhs = dft(s).bins * direct_dft(w)
        big = np.abs(rhs) > 1e-4 * np.abs(rhs).max()  # above the fp noise floor
        assert (np.abs(lhs - rhs)[big] / np.abs(rhs)[big]).max() < 1e-8


class TestSpectra:
    def test_dft_zero(self):
        s = GridSignal(0.0, 1.0, np.zeros(8))
        assert np.abs(dft(s).bins).max() == 0.0

    def test_dft_constant_dc_only(self):
        s = GridSignal(0.0, 0.5, np.full(16, 2.5))
        sp = dft(s)
        assert abs(sp.bins[0] - 2.5 * 16) < 1e-12
        assert np.abs(sp.bins[1:]).max() < 1e-12

    def test_df_scaling(self):
        s = GridSignal(0.0, 0.25, np.zeros(64))
        assert abs(dft(s).df - 1.0 / (64 * 0.25)) < 1e-15

    def test_roundtrip(self, rng):
        s = GridSignal(-1.0, 0.01, rng.normal(size=1024))
        back = idft(dft(s), s.t0)
        assert np.abs(back.values - s.values).max() < 1e-10
        assert back.t0 == s.t0 and abs(back.dt - s.dt) < 1e-15

    @given(st.integers(0, 2**31 - 1))
    def test_conjugate_symmetry(self, seed):
        vals = np.random.default_rng(seed).normal(size=128)
        sp = dft(GridSignal(0.0, 0.1, vals))
        k = np.arange(1, 128)
        assert np.abs(sp.bins[k] - np.conj(sp.bins[128 - k])).max() < 1e-10 * max(
            1.0, np.abs(sp.bins).max())

    def test_frequencies_signed(self):
        sp = dft(GridSignal(0.0, 1.0, np.zeros(8)))
        assert sp.frequencies[0] == 0.0
        assert sp.frequencies[4] == 0.5  # Nyquist bin
        assert sp.frequencies[7] == -0.125


class TestCsv:
    def test_signal_roundtrip(self, tmp_path, rng):
        s = GridSignal(-2.0, 0.01, rng.normal(size=100))
        path = str(tmp_path / "s.csv")
        signal_to_csv(s, path)
        back = signal_from_csv(path)
        assert back.t0 == s.t0 and back.n == s.n
        assert np.abs(back.values - s.values).max() == 0.0

    def test_signal_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val\n0,1\n1,2\n")
        with pytest.raises(InputError):
            signal_from_csv(str(path))

    def test_spectrum_csv_columns(self, tmp_path):
        sp = dft(GridSignal(0.0, 0.5, np.arange(8.0)))
        path = str(tmp_path / "sp.csv")
        spectrum_to_csv(sp, path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "freq,re,im,abs"
        assert len(lines) == 9

    EDGE_VALUES = [-0.0, 5e-324, 1e300, 1e16, 0.1, -1.0 / 3.0, 0.0, 2.5]

    @staticmethod
    def reference_csv(path, header, rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{float(x):.17g}" for x in row])

    def test_signal_csv_bytes_match_csv_writer(self, tmp_path, rng):
        vals = np.r_[self.EDGE_VALUES, rng.normal(size=40)]
        s = GridSignal(-0.3, 0.1, vals)
        signal_to_csv(s, str(tmp_path / "s.csv"))
        self.reference_csv(str(tmp_path / "ref.csv"), ["t", "value"],
                           zip(s.times, s.values))
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_spectrum_csv_bytes_match_csv_writer(self, tmp_path, rng):
        bins = np.r_[self.EDGE_VALUES, rng.normal(size=40)].astype(complex)
        bins.imag = np.r_[self.EDGE_VALUES[::-1], rng.normal(size=40)]
        # the abs column is Python's abs(complex), which np.abs misses by an ulp here
        assert np.any(np.abs(bins) != [abs(b) for b in bins.tolist()])
        sp = Spectrum(df=0.25, bins=bins)
        spectrum_to_csv(sp, str(tmp_path / "sp.csv"))
        rows = ((f, b.real, b.imag, abs(b)) for f, b in zip(sp.frequencies, sp.bins))
        self.reference_csv(str(tmp_path / "ref.csv"), ["freq", "re", "im", "abs"], rows)
        assert (tmp_path / "sp.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# -- signal_from_csv against the row-by-row reader on generated files ---------

_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_FORMATS = st.sampled_from([repr, "{:.17g}".format, "{:g}".format,
                            lambda x: f'"{x!r}"', lambda x: f" {x!r}\t"])
_FIELDS = st.sampled_from(["0", "1", "-2.5", "1_0", "1e", "nan", "inf", "1e400", "",
                           " ", '"1"', '"1,5"', '"1"5', "0x1", "abc", "\u20031"]) \
    | st.floats().map(repr)
# uniform grids, so that most files get past the parser
_GRID_TEXT = st.builds(
    lambda t0, dt, vs, fmt, extra, end: "t,value" + end + "".join(
        f"{fmt(t0 + i * dt)},{fmt(v)}{extra}{end}" for i, v in enumerate(vs)),
    st.floats(-10, 10), st.floats(1e-3, 2), st.lists(st.floats(-5, 5), max_size=8),
    _FORMATS, st.sampled_from(["", ",x", ",3", ","]), _ENDS)
_ROWS_TEXT = st.builds(
    lambda head, rows, end: end.join([head, *(",".join(r) for r in rows)]) + end,
    st.sampled_from(["t,value", " T , Value,x", "t", ""]),
    st.lists(st.lists(_FIELDS, max_size=3), max_size=6), _ENDS)


def _splice(text, row, k):
    """text with the generated row inserted after its first k >= 1 lines."""
    lines = text.splitlines(True)
    return "".join(lines[:k] + [",".join(row) + "\n"] + lines[k:])


_SPLICED_TEXT = st.builds(_splice, _GRID_TEXT, st.lists(_FIELDS, max_size=3), st.integers(1, 9))
_SIGNAL_CSV = st.builds(lambda text, tail: text.encode() + tail,
                        _GRID_TEXT | _ROWS_TEXT | _SPLICED_TEXT,
                        st.sampled_from([b""] * 4 + [b"\xff"]))


def _read_outcome(read, path):
    try:
        s = read(path)
    except InputError as exc:
        return str(exc)
    return s.t0, s.dt, s.values.tobytes()


@given(data=_SIGNAL_CSV)
@example(data=b"t,value\n0,1\n1_0,2\n")
@example(data=b"t,value\r0,1\r1,2\r2,4\r")
@example(data=b't,value\n"0","1"\n"1",2\n2,"4"\n')
@example(data=b"t,value\n0,1,x\n1,2,y\n2,3\n")
@example(data=b"t,value\n\n0,1\n\n1,2\n\n")
@example(data=b"t,value\n0,1\n  \n1,2\n")
@example(data=b"t,value\n0,1\n1,2\n\t\n")
@example(data=b"t,value\n")
@example(data=b"t,value\n0,1\n1,\xff2\n")
def test_reader_matches_row_oracle(data, tmp_path_factory):
    # same samples bit for bit, or the same InputError message
    path = str(tmp_path_factory.getbasetemp() / "generated.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    assert _read_outcome(signal_from_csv, path) == \
        _read_outcome(signal_from_csv_by_rows, path)


def test_interior_rel_l2():
    a = GridSignal(0.0, 1.0, np.ones(10))
    b = GridSignal(0.0, 1.0, np.r_[5.0, np.ones(8), 5.0])  # bad only at the edges
    assert interior_rel_l2(b, a, 0.1) == 0.0
    assert interior_rel_l2(b, a, 0.0) > 0.0
