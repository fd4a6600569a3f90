"""Uniformly sampled signals, discrete kernels, convolution, spectra.

Discrete convolution follows the zero-pad-and-crop policy: the signal is
extended with zeros by the kernel half-width on both sides, linearly
convolved, and cropped back to the original window, so the output carries
the same (t0, dt, N) as the input.  Long kernels compute the same crop as a
circular convolution at a 5-smooth length (``TapsConvolver``).  Samples
within a half-width of either boundary are edge-distorted by construction;
error metrics exclude them via an interior mask.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fft as _fft
from .errors import InputError, ParameterError, ResolutionError, check_positive
from .kernels import Kernel

DIRECT_CONV_MAX_TAPS = 64  # direct convolution below, FFT at or above
MIN_TAPS_PER_LOBE = 8
_NORMAL_MIN = float(np.finfo(float).tiny)  # the smallest normal float64


@dataclass(frozen=True)
class GridSignal:
    """Real samples on a uniform grid: values[i] at t0 + i * dt."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InputError("a signal needs a 1-D value array with at least 2 samples")
        if not (self.dt > 0 and math.isfinite(self.dt) and math.isfinite(self.t0)):
            raise InputError(f"bad grid metadata: t0={self.t0}, dt={self.dt}")
        if not np.all(np.isfinite(vals)):
            raise InputError("signal values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def same_grid(self, other: "GridSignal") -> bool:
        return self.t0 == other.t0 and self.dt == other.dt and self.n == other.n

    def require_same_grid(self, other: "GridSignal") -> None:
        if not self.same_grid(other):
            raise ParameterError(
                "signals are only combinable on identical grids: "
                f"({self.t0}, {self.dt}, {self.n}) vs ({other.t0}, {other.dt}, {other.n})"
            )

    def with_values(self, values: np.ndarray) -> "GridSignal":
        return GridSignal(self.t0, self.dt, values)

    def interior(self, margin: float) -> slice:
        """The samples left once a fraction ``margin`` is excluded per side."""
        if not (0.0 <= margin < 0.5):
            raise ParameterError(f"margin must lie in [0, 0.5), got {margin}")
        k = int(round(margin * self.n))
        return slice(k, self.n - k)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of :meth:`interior`."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.interior(margin)] = True
        return mask

    def __add__(self, other: "GridSignal") -> "GridSignal":
        self.require_same_grid(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridSignal") -> "GridSignal":
        self.require_same_grid(other)
        return self.with_values(self.values - other.values)


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT bins, DC first; bin k sits at physical frequency k * df
    (equivalently (k - N) * df for the upper half)."""

    df: float
    bins: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.complex128)
        if b.ndim != 1 or b.size < 2:
            raise InputError("a spectrum needs a 1-D bin array with at least 2 bins")
        if not (self.df > 0 and math.isfinite(self.df)):
            raise InputError(f"bad frequency spacing {self.df}")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bins", b)

    @property
    def n(self) -> int:
        return self.bins.size

    @property
    def frequencies(self) -> np.ndarray:
        """Signed physical frequencies per bin (DC first, standard order)."""
        n = self.n
        k = np.arange(n)
        k = np.where(k <= n // 2, k, k - n)
        return k * self.df


@dataclass(frozen=True)
class KernelTaps:
    """Odd-length symmetric discrete kernel on spacing dt (center index = half)."""

    weights: np.ndarray
    dt: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size % 2 != 1:
            raise InputError("taps must be a 1-D odd-length array")
        if not np.all(np.isfinite(w)):
            raise InputError("taps must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def half_width(self) -> int:
        return (self.weights.size - 1) // 2


def sample_function(
    f: Callable[[np.ndarray], np.ndarray], t0: float, t1: float, n: int
) -> GridSignal:
    """Sample f on n uniformly spaced points spanning [t0, t1]."""
    if not t1 > t0:
        raise ParameterError(f"need t1 > t0, got [{t0}, {t1}]")
    if n < 2:
        raise ParameterError(f"need at least 2 samples, got {n}")
    dt = (t1 - t0) / (n - 1)
    ts = t0 + dt * np.arange(n)
    vals = np.asarray(f(ts), dtype=float)
    if vals.shape != ts.shape:
        vals = np.broadcast_to(vals, ts.shape).astype(float)
    if not np.all(np.isfinite(vals)):
        raise InputError("sampled function produced non-finite values")
    return GridSignal(t0, dt, vals)


def discretize_kernel(kernel: Kernel, epsilon: float, dt: float) -> KernelTaps:
    """Sample phi_eps on a symmetric grid and renormalise to unit sum.

    The taps cover the effective support (odd count), are scaled by dt so the
    sum approximates the unit integral, then renormalised so the discrete
    kernel conserves mass exactly (bias versus pure sampling is O(dt^2)).
    Requires at least MIN_TAPS_PER_LOBE samples across the kernel's central
    lobe.
    """
    check_positive("epsilon", epsilon)
    check_positive("dt", dt)
    lobe = epsilon * kernel.lobe_width
    if lobe / dt < MIN_TAPS_PER_LOBE:
        raise ResolutionError(
            f"dt={dt} under-resolves the kernel: {lobe / dt:.2f} taps across the "
            f"central lobe (width {lobe:.4g}), need >= {MIN_TAPS_PER_LOBE}"
        )
    radius = epsilon * kernel.support_radius
    if not math.isfinite(radius):
        raise ParameterError("kernel has no finite effective support to discretise")
    half = int(math.ceil(radius / dt))
    offsets = dt * np.arange(-half, half + 1)
    w = kernel.eval(epsilon, offsets) * dt
    total = float(w.sum())
    if total <= 0:
        raise InputError("discretised kernel has non-positive mass")
    return KernelTaps(w / total, dt)


class TapsConvolver:
    """Reusable zero-pad-and-crop convolution for one (taps, length) pair.

    Fewer than DIRECT_CONV_MAX_TAPS taps convolve directly with
    ``np.convolve``, which keeps short kernels (a 1-tap all-pass filter in
    particular) exact.  Longer kernels (2h + 1 taps) go through a circular
    convolution of length L, the smallest 5-smooth length (see
    :func:`deconv.fft.next_fast_len`) with L >= n + h and L >= 2h + 1.  The
    taps sit centred on index 0 (``w[h:]`` at 0..h, ``w[:h]`` at L-h..L-1),
    so the first n circular outputs are the cropped linear ones: for i, j
    in [0, n) the index (i - j) mod L meets the taps only where
    |i - j| <= h once L >= n + h.  L >= 2h + 1 gives every tap its own slot
    when the taps outnumber the samples, so the stored spectrum is the taps'
    own transform.  The tap transform and two work buffers of length L are
    made once, so each repeated application (the deconvolution iteration)
    pays one forward and one inverse transform and allocates only its
    N-sample result.  An instance is not safe to share between threads.
    """

    def __init__(self, taps: KernelTaps, n: int):
        if n < 2:
            raise ParameterError("signal length must be at least 2")
        self.taps = taps
        self.n = int(n)
        w = taps.weights
        h = taps.half_width
        self._tap_spectrum = None
        if w.size >= DIRECT_CONV_MAX_TAPS:
            size = _fft.next_fast_len(max(self.n + h, 2 * h + 1))
            centred = np.zeros(size)
            centred[: h + 1] = w[h:]
            centred[size - h :] = w[:h]
            self._tap_spectrum = _fft.fft(centred)
            self._padded = np.zeros(size, dtype=complex)  # the values, then zeros
            self._work = np.empty(size, dtype=complex)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Convolve a raw value array (no finiteness validation)."""
        if self._tap_spectrum is None:
            h = self.taps.half_width
            return np.convolve(values, self.taps.weights)[h : h + self.n].copy()
        self._padded[: self.n] = values
        fa = _fft.fft(self._padded, out=self._work)
        fa *= self._tap_spectrum
        return _fft.ifft(fa, out=fa).real[: self.n].copy()


def convolve_signal(s: GridSignal, taps: KernelTaps) -> GridSignal:
    """Zero-pad, linearly convolve with the taps, crop back to s's window."""
    if taps.dt != s.dt:
        raise ParameterError(f"tap spacing {taps.dt} does not match signal dt {s.dt}")
    return s.with_values(TapsConvolver(taps, s.n).apply(s.values))


def dft(s: GridSignal) -> Spectrum:
    """Forward DFT (unnormalised); df = 1 / (N dt).

    numpy's ``rfft`` gives bins 0..N/2 and each upper bin N - k is the
    conjugate of bin k, so the spectrum is exactly Hermitian, as a real
    signal's is (which lets :func:`spectrum_to_csv` format half of it).
    A bin past float64 raises ParameterError.
    """
    n = s.n
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.fft.rfft(s.values)
    if not np.isfinite(half).all():
        raise ParameterError(f"the spectrum of these {n} finite samples overflows float64")
    bins = np.concatenate([half, half[1 : n - half.size + 1][::-1].conj()])
    return Spectrum(df=1.0 / (n * s.dt), bins=bins)


def idft(sp: Spectrum, t0: float) -> GridSignal:
    """Inverse DFT with 1/N; returns the real part on the grid starting at t0."""
    vals = _fft.ifft(sp.bins)
    dt = 1.0 / (sp.n * sp.df)
    return GridSignal(t0, dt, vals.real)


# -- CSV interfaces ----------------------------------------------------------

CSV_BLOCK_ROWS = 4096  # rows formatted per call, which bounds the text held at once
_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def _table(columns) -> np.ndarray:
    """Equal-length columns as the columns of one float64 array."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len({c.size for c in cols}) > 1:
        raise ParameterError(f"CSV columns differ in length: {[c.size for c in cols]}")
    return np.column_stack(cols)


def _format_rows(block: np.ndarray) -> str:
    """CSV text of a block of table rows: ``%.17g`` fields, CRLF line ends."""
    rows, width = block.shape
    return (",".join(["%.17g"] * width) + "\r\n") * rows % tuple(block.ravel().tolist())


def write_columns_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length columns as CSV: every value as ``%.17g``, which
    round-trips float64 exactly, and CRLF line ends as ``csv.writer`` writes.

    Columns of different lengths raise ``ParameterError``.  Each block of
    ``CSV_BLOCK_ROWS`` rows is formatted by one ``%`` operation.
    """
    table = _table(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            fh.write(_format_rows(table[start : start + CSV_BLOCK_ROWS]))


def signal_to_csv(s: GridSignal, path: str) -> None:
    write_columns_csv(path, ["t", "value"], [s.times, s.values])


def _csv_body(reader, path: str) -> tuple[list[float], list[float]]:
    """(t, value) columns by ``float()`` of each row's first two fields."""
    ts, vs = [], []
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
    return ts, vs


def signal_from_csv(path: str) -> GridSignal:
    """Read a ``t,value`` CSV with a uniformly spaced time column.

    numpy's C parser reads the body; it converts each field as ``float()``
    does.  Whatever it refuses (underscored digits such as ``1_0``, a short
    row, a non-numeric field) is re-read row by row with ``csv.reader`` and
    ``float()``, which accepts what ``float()`` accepts and names the
    offending row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None or [c.strip().lower() for c in header[:2]] != ["t", "value"]:
                raise InputError(f"{path}: expected header 't,value'")
            try:
                with warnings.catch_warnings():
                    # an empty body is reported below, not as loadtxt's warning
                    warnings.simplefilter("ignore", UserWarning)
                    body = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                      usecols=(0, 1), ndmin=2)
                ts, vs = body[:, 0], body[:, 1]
            except ValueError:  # a UnicodeDecodeError too: the re-read raises it again
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                ts, vs = _csv_body(reader, path)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    if len(ts) < 2:
        raise InputError(f"{path}: need at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(ts)
    dt = float(steps[0])
    # a NaN compares false, so a NaN or infinite time fails this test
    if not (0 < dt < math.inf and np.abs(steps - dt).max() <= 1e-9 * max(dt, 1.0)):
        raise InputError(f"{path}: time column is not uniformly spaced")
    return GridSignal(float(ts[0]), dt, np.asarray(vs))


def _mirrors(upper: np.ndarray, mirror: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, whether the upper rows equal their mirror rows bit for bit,
    and whether they are their exact negations (never with a NaN, which
    ``%.17g`` prints without its sign).  Bits, not ``==``: 0.0 == -0.0, but
    the two print as ``0`` and ``-0``."""
    ubits, mbits = upper.view(np.int64), mirror.view(np.int64)
    same = (ubits == mbits).all(axis=0)
    negated = (ubits == mbits ^ _SIGN_BIT).all(axis=0) & ~np.isnan(mirror).any(axis=0)
    return same, negated


def _mirrored_rows(fields: list[str], rows: np.ndarray, same: np.ndarray,
                   negated: np.ndarray) -> str:
    """CSV text of ``rows``, whose mirror rows printed as ``fields`` (row-major,
    the last of them mirroring the first of ``rows``).  A column that mirrors
    reuses the strings, with the sign toggled where it is negated; any other
    is formatted."""
    width = rows.shape[1]
    cols = []
    for c in range(width):
        if same[c]:
            cols.append(fields[c::width][::-1])
        elif negated[c]:
            cols.append([f[1:] if f[0] == "-" else "-" + f for f in fields[c::width][::-1]])
        else:
            cols.append(["%.17g" % v for v in rows[:, c].tolist()])
    return "\r\n".join(map(",".join, zip(*cols))) + "\r\n"


def spectrum_to_csv(sp: Spectrum, path: str) -> None:
    """Write ``freq,re,im,abs`` rows, DC first, every value as ``%.17g``.

    Rows 0..N/2 are formatted.  Row N - k is built from the strings of
    row k, column by column, wherever the column's upper rows all mirror
    theirs (see ``_mirrors``); a real signal's spectrum from :func:`dft`
    mirrors in all four columns.  A column that does not is formatted in
    full.  The bytes are those of a row-by-row ``%.17g`` write either way;
    the upper rows' text is held until the lower half is written.
    """
    n = sp.n
    # Python's abs(complex), not np.abs: the two differ in the last ulp
    try:
        mags = np.fromiter(map(abs, sp.bins.tolist()), float, n)
    except OverflowError:
        raise ParameterError("the modulus of a finite spectrum bin overflows float64") from None
    table = _table([sp.frequencies, sp.bins.real, sp.bins.imag, mags])
    half = n // 2
    same, negated = _mirrors(table[half + 1 :], table[n - half - 1 : 0 : -1])
    upper = []  # text of the upper rows mirroring each lower block
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("freq,re,im,abs\r\n")
        for start in range(0, half + 1, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, half + 1)
            text = _format_rows(table[start:stop])
            fh.write(text)
            lo, hi = max(start, 1), min(stop, n - half)  # mirrors of rows n-hi+1..n-lo
            if lo < hi:
                fields = text.replace("\r\n", ",").split(",")
                upper.append(_mirrored_rows(fields[4 * (lo - start) : 4 * (hi - start)],
                                            table[n - hi + 1 : n - lo + 1], same, negated))
        fh.writelines(reversed(upper))


def l2_norm(values: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array, bitwise ``np.linalg.norm``'s
    unless the sum of squares overflows or falls below the normal range.

    Then a nonzero finite array is rescaled by its largest |value|, so a
    norm that float64 holds comes out finite and accurate.  Overflow
    warnings are the caller's to silence (``np.errstate(over="ignore")``).
    """
    sq = values @ values
    if _NORMAL_MIN <= sq < math.inf or not values.size:
        return math.sqrt(sq)
    scale = float(np.abs(values).max())
    if not 0.0 < scale < math.inf:
        return math.sqrt(sq)
    unit = values / scale
    return scale * math.sqrt(unit @ unit)


def interior_rel_l2(candidate: GridSignal, reference: GridSignal, margin: float) -> float:
    """Relative L2 distance on the interior samples."""
    candidate.require_same_grid(reference)
    inner = reference.interior(margin)
    with np.errstate(over="ignore"):
        num = l2_norm(candidate.values[inner] - reference.values[inner])
        den = l2_norm(reference.values[inner])
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
