"""Spans around the public entry points of each ``deconv`` module.

The wrappers live here, in the benchmark, not in the program.  Several
modules import functions by name (``deconvolution`` imports ``dft`` and
``TapsConvolver`` from ``signals``, ``kernels`` imports ``integrate``), so a
wrapper replaces every module attribute that holds the original object: each
caller finds the wrapper under the name it actually looks up.  Methods are
replaced on every class that defines them.

A span is (id, name, start, end, parent id, job, ok), appended when the call
returns to one flat float array, so that a million spans take 56 MB.  Spans
stay in memory while the traced jobs run and are written out once, at the
end.  A span's self time is its duration minus its children's; calls are
sequential, so children never overlap.  Start and end are read from the
thread's CPU clock, as job times are, and self times are scaled to reference
speed with their job's speed factor (see speed.py), and reported per job.
Counts of work (FFT points, taps, CSV bytes, ...) are taken at the same
boundaries.  ``fft.ops_computed`` and ``fft.bytes_computed`` are computed
from array sizes, not measured: 5 N log2 N operations for the radix-2 path and
N^2 complex multiply-adds for the direct path; 16 bytes per complex value
read or written per radix-2 stage, and the N x N twiddle matrix plus input
and output for the direct path.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import defaultdict
from time import thread_time

import numpy as np


def _fft_counts(counts, args, kwargs, out):
    n = int(np.asarray(args[0]).size)
    counts["fft.points"] += n
    if n & (n - 1) == 0:
        stages = int(math.log2(n)) if n > 1 else 0
        counts["fft.ops_computed"] += 5 * n * stages
        counts["fft.bytes_computed"] += 32 * n * stages
    else:
        counts["fft.direct_calls"] += 1
        counts["fft.ops_computed"] += n * n
        counts["fft.bytes_computed"] += 16 * n * n + 32 * n


def _csv_write_counts(counts, args, kwargs, out):
    counts["signals.csv.bytes"] += os.path.getsize(args[1])


def _csv_read_counts(counts, args, kwargs, out):
    counts["signals.csv.bytes"] += os.path.getsize(args[0])


def _taps_counts(counts, args, kwargs, out):
    counts["signals.taps"] += out.weights.size


def _grid_counts(counts, args, kwargs, out):
    counts["kernels.fourier_grid.points"] += int(np.asarray(args[2]).size)


def _orders_counts(counts, args, kwargs, out):
    counts["deconvolution.orders_run"] += out.orders_run


def _terms_counts(counts, args, kwargs, out):
    counts["multipoly.convolve.terms_in"] += len(args[2].terms)


# (module, attribute path, span name, work counter)
TARGETS = (
    ("fft", "fft", "fft.fft", _fft_counts),
    ("fft", "ifft", "fft.ifft", _fft_counts),
    ("signals", "TapsConvolver.apply", "signals.apply", None),
    ("signals", "discretize_kernel", "signals.discretize_kernel", _taps_counts),
    ("signals", "convolve_signal", "signals.convolve_signal", None),
    ("signals", "dft", "signals.dft", None),
    ("signals", "idft", "signals.dft", None),
    ("signals", "signal_to_csv", "signals.csv", _csv_write_counts),
    ("signals", "spectrum_to_csv", "signals.csv", _csv_write_counts),
    ("signals", "signal_from_csv", "signals.csv", _csv_read_counts),
    ("kernels", "make_kernel", "kernels.construct", None),
    ("kernels", "Kernel.moment", "kernels.moment", None),
    ("kernels", "Kernel.fourier_grid", "kernels.fourier_grid", _grid_counts),
    ("kernels", "GaussianKernel.fourier_grid", "kernels.fourier_grid", _grid_counts),
    ("kernels", "TabulatedKernel.fourier_grid", "kernels.fourier_grid", _grid_counts),
    ("kernels", "Kernel.check_admissible", "kernels.check_admissible", None),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("deconvolution", "inverse_operator", "deconvolution.inverse_operator", _orders_counts),
    ("deconvolution", "spectral_factor", "deconvolution.spectral_factor", None),
    ("deconvolution", "recover_with_filter", "deconvolution.recover_with_filter", None),
    ("deconvolution", "make_sinc_filter", "deconvolution.make_sinc_filter", None),
    ("polynomials", "ConvOperator.__init__", "polynomials.build", None),
    ("polynomials", "ConvOperator.convolve", "polynomials.convolve", None),
    ("polynomials", "ConvOperator.invert", "polynomials.invert", None),
    ("multipoly", "convolve_multipoly", "multipoly.convolve", _terms_counts),
    ("multipoly", "invert_multipoly", "multipoly.invert", None),
    ("experiments", "run_experiment", "experiments.run", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("fft", "signals", "kernels", "quadrature", "deconvolution",
          "polynomials", "multipoly", "experiments", "cli")


class Tracer:
    """Records spans while ``active``; the wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.opened = 0
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self.job = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        tracer = self
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = tracer.opened
            tracer.opened += 1
            parent = stack[-1]
            stack.append(idx)
            ok = False
            t0 = thread_time()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = thread_time()
                stack.pop()
                tracer.spans.extend((idx, code, t0, t1, parent, tracer.job, ok))
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Replace every reference to each target inside the ``deconv`` package."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "deconv" or k.startswith("deconv."))]
        for mod_name, path, name, count in TARGETS:
            owner = sys.modules[f"deconv.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def columns(self) -> np.ndarray:
        """Spans as rows ordered by id: (id, name, start, end, parent, job, ok)."""
        cols = np.frombuffer(self.spans, dtype=float).reshape(-1, 7)
        return cols[np.argsort(cols[:, 0], kind="stable")]

    def fired(self) -> set[str]:
        return {self.names[int(c)] for c in np.unique(self.columns()[:, 1])}

    def save(self, path: str) -> None:
        """Write the spans as columns (name codes index ``names``)."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), name=cols[:, 1].astype(np.int16),
                 start=cols[:, 2], end=cols[:, 3], parent=cols[:, 4].astype(np.int32),
                 job=cols[:, 5].astype(np.int32), ok=cols[:, 6].astype(bool))

    def layer_metrics(self, factors: dict[int, float]) -> dict[str, float]:
        """Per-job totals of self time, calls, work counts and errors.

        ``factors`` maps each traced job to its speed factor (see speed.py);
        self times are scaled by it, to reference speed.
        """
        jobs = len(factors)
        cols = self.columns()
        code = cols[:, 1].astype(int)
        dur = cols[:, 3] - cols[:, 2]
        parent = cols[:, 4].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=code.size)
        scale = np.array([factors[j] for j in cols[:, 5].astype(int)])
        self_ms = (dur - child) * scale * 1e3
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(*names):
            return np.isin(code, [ids[n] for n in names if n in ids])

        def calls(*names):
            return float(np.count_nonzero(sel(*names))) / jobs

        def ms(*names):
            return float(self_ms[sel(*names)].sum()) / jobs

        moment = sel("kernels.moment")
        answered = sel("quadrature.integrate") & has_parent
        answered &= moment[np.where(has_parent, parent, 0)]
        misses = np.unique(parent[answered]).size
        n_moment = int(np.count_nonzero(moment))
        c = self.counts
        out = {
            "fft.calls": calls("fft.fft", "fft.ifft"),
            "fft.direct_calls": c["fft.direct_calls"] / jobs,
            "fft.points": c["fft.points"] / jobs,
            "fft.ops_computed": c["fft.ops_computed"] / jobs,
            "fft.bytes_computed": c["fft.bytes_computed"] / jobs,
            "fft.self_ms": ms("fft.fft", "fft.ifft"),
            "signals.apply.calls": calls("signals.apply"),
            "signals.apply.self_ms": ms("signals.apply"),
            "signals.taps": c["signals.taps"] / jobs,
            "signals.discretize_kernel.self_ms": ms("signals.discretize_kernel"),
            "signals.dft.self_ms": ms("signals.dft"),
            "signals.csv.bytes": c["signals.csv.bytes"] / jobs,
            "signals.csv.self_ms": ms("signals.csv"),
            "experiments.run.self_ms": ms("experiments.run"),
            "cli.main.self_ms": ms("cli.main"),
            "kernels.fourier_grid.calls": calls("kernels.fourier_grid"),
            "kernels.fourier_grid.points": c["kernels.fourier_grid.points"] / jobs,
            "kernels.fourier_grid.self_ms": ms("kernels.fourier_grid"),
            "kernels.check_admissible.self_ms": ms("kernels.check_admissible"),
            "deconvolution.spectral_factor.self_ms": ms("deconvolution.spectral_factor"),
            "deconvolution.inverse_operator.self_ms": ms("deconvolution.inverse_operator"),
            "deconvolution.orders_run": c["deconvolution.orders_run"] / jobs,
            "quadrature.integrate.calls": calls("quadrature.integrate"),
            "quadrature.integrate.self_ms": ms("quadrature.integrate"),
            "kernels.moment.calls": calls("kernels.moment"),
            "kernels.moment.hit_ratio": 1.0 - misses / n_moment if n_moment else 0.0,
            "kernels.construct.self_ms": ms("kernels.construct"),
            "polynomials.build.self_ms": ms("polynomials.build"),
            "polynomials.convolve.self_ms": ms("polynomials.convolve"),
            "polynomials.invert.calls": calls("polynomials.invert"),
            "polynomials.invert.self_ms": ms("polynomials.invert"),
            "multipoly.convolve.calls": calls("multipoly.convolve"),
            "multipoly.convolve.terms_in": c["multipoly.convolve.terms_in"] / jobs,
            "multipoly.convolve.self_ms": ms("multipoly.convolve"),
            "multipoly.invert.self_ms": ms("multipoly.invert"),
        }
        ok = cols[:, 6].astype(bool)
        for layer in LAYERS:
            in_layer = np.isin(code, [i for n, i in ids.items() if n.startswith(layer + ".")])
            out[f"{layer}.errors"] = float(np.count_nonzero(in_layer & ~ok)) / jobs
        return out
