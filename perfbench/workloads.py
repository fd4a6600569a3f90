"""The three benchmark workloads: input generation, the timed job, the checker.

Each workload is a closed loop with one client.  Jobs come in blocks; a block
covers the workload's configuration space in a fixed pattern and the seed
draws everything else (noise, coefficients, epsilon, run order), so runs with
different seeds see the same mix of job sizes and their medians agree.  A run
always ends on a block boundary.

For every job the worker calls, in this order:

* ``prepare(job)``  writes the job's input files (not timed);
* ``run(job)``      calls ``deconv`` in-process (timed);
* ``check(job, outcome)``  checks the outputs against the job's contract (not
  timed) and returns a :class:`Verdict`.

A job fails when an exception escapes, the exit code is non-zero, an output
is non-finite, or the job breaks its contract.  Failures are not expected on
any workload.  One accuracy limit of the program is measured instead: a
``poly_roundtrip`` backward error above ``POLY_BACKWARD_TOL`` but within the
float64 rounding bound of the multi-variable inverse series (the series loses
accuracy beyond total degree ~16) is an accuracy miss, counted in
``Verdict.accuracy_miss``, not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from deconv import cli, experiments, make_kernel
from deconv.multipoly import MultiPolynomial, convolve_multipoly
from deconv.polynomials import ConvOperator, Polynomial1D

EPS64 = float(np.finfo(np.float64).eps)
# Backward error a float64 round trip must reach: half the digits survive.
POLY_BACKWARD_TOL = math.sqrt(EPS64)
# The benchmark's own float64 recursion must agree with the program to the
# same tolerance, relative to the largest output sample.
SIGNAL_ORACLE_TOL = math.sqrt(EPS64)
# Share of samples per side left out of interior error metrics, as the
# program's own experiments do.
EDGE_MARGIN = 0.1
# Program constant: the Gaussian density is treated as 0 beyond 10*sqrt(2).
GAUSSIAN_SUPPORT = 10.0 * math.sqrt(2.0)


@dataclass
class Verdict:
    failed: bool = False
    rel_err: float | None = None
    reason: str = ""
    accuracy_miss: bool = False


@dataclass
class Job:
    index: int
    params: dict
    prepared: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def interior_rel_l2(candidate: np.ndarray, reference: np.ndarray) -> float:
    n = reference.size
    k = int(round(EDGE_MARGIN * n))
    num = float(np.linalg.norm((candidate - reference)[k:n - k]))
    den = float(np.linalg.norm(reference[k:n - k]))
    return num / den if den > 0 else math.inf


def _run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


# -- paper_figs ---------------------------------------------------------------

class PaperFigs:
    """fig1, fig2, fig3 in rotation at the paper's parameters.

    fig3's noise seed is drawn once per run from the workload seed, so every
    job after the first of each figure is a rerun whose outputs must be
    byte-identical to the first.
    """

    name = "paper_figs"
    FIGS = ("fig1", "fig2", "fig3")
    # (csv file, reference column, compared columns) for the error metric
    ERROR_COLUMNS = {
        "fig1": (("fig1_curves.csv", 1, (3,)), ("fig1_sampled.csv", 1, (3,))),
        "fig2": (("fig2_signals.csv", 1, (3,)),),
        "fig3": (("fig3_signals.csv", 1, (4, 5)),),
    }
    expected_spans = {
        "experiments.run", "kernels.construct", "kernels.fourier_grid",
        "kernels.check_admissible", "kernels.moment", "quadrature.integrate",
        "deconvolution.inverse_operator", "deconvolution.spectral_factor",
        "deconvolution.recover_with_filter", "deconvolution.make_sinc_filter",
        "polynomials.build", "polynomials.convolve", "polynomials.invert",
        "signals.discretize_kernel", "signals.convolve_signal", "signals.apply",
        "signals.dft", "signals.csv", "fft.fft", "fft.ifft",
    }

    def __init__(self, seed: int, work_dir: str):
        self.work_dir = work_dir
        self.noise_seed = int(np.random.default_rng(seed).integers(2**31))
        self.digests: dict[str, dict[str, str]] = {}

    def jobs(self, block: int) -> list[Job]:
        return [Job(3 * block + i, {"fig": fig}) for i, fig in enumerate(self.FIGS)]

    def prepare(self, job: Job) -> None:
        fig = job.params["fig"]
        overrides = {"noise_seed": self.noise_seed} if fig == "fig3" else {}
        job.prepared["spec"] = getattr(experiments.ExperimentSpec, fig)(**overrides)
        job.prepared["out"] = os.path.join(self.work_dir, fig)

    def run(self, job: Job):
        # looked up on the module, where the traced run's wrapper sits
        return experiments.run_experiment(job.prepared["spec"], job.prepared["out"])

    def check(self, job: Job, outcome) -> Verdict:
        if isinstance(outcome, BaseException):
            return Verdict(True, reason=f"exception {outcome!r}")
        fig = job.params["fig"]
        out = job.prepared["out"]
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(fig, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests)
                             if first.get(k) != digests.get(k))
            return Verdict(True, reason=f"rerun not byte-identical: {changed}")
        worst = 0.0
        for fname, ref_col, cols in self.ERROR_COLUMNS[fig]:
            data = np.loadtxt(os.path.join(out, fname), delimiter=",", skiprows=1)
            if not np.all(np.isfinite(data)):
                return Verdict(True, reason=f"non-finite value in {fname}")
            for c in cols:
                worst = max(worst, interior_rel_l2(data[:, c], data[:, ref_col]))
        return Verdict(rel_err=worst)

    def properties(self, jobs: list[Job]) -> dict:
        return {"fig3_noise_seed": self.noise_seed}


# -- deconv_cli ---------------------------------------------------------------

def gaussian_taps(epsilon: float, dt: float) -> np.ndarray:
    """The Gaussian kernel sampled and normalised as ``discretize_kernel`` does."""
    radius = epsilon * GAUSSIAN_SUPPORT
    half = int(math.ceil(radius / dt))
    x = dt * np.arange(-half, half + 1)
    w = np.exp(-0.25 * (x / epsilon) ** 2) / math.sqrt(4.0 * math.pi) / epsilon * dt
    w[np.abs(x) > radius] = 0.0
    return w / w.sum()


def fixed_point_oracle(g: np.ndarray, taps: np.ndarray, order: int) -> np.ndarray:
    """x_{m+1} = x_m + (g - T x_m) with numpy's FFT, zero-pad-and-crop T."""
    n, h = g.size, (taps.size - 1) // 2
    size = 1 << (n + taps.size - 2).bit_length()
    spectrum = np.fft.rfft(taps, size)
    x = g.copy()
    for _ in range(order):
        tx = np.fft.irfft(np.fft.rfft(x, size) * spectrum, size)[h:h + n]
        x = x + (g - tx)
    return x


def _write_signal(path: str, t: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        fh.writelines(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(t, v))


def _read_signal(path: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0][:2]] != ["t", "value"]:
        raise ValueError(f"{path}: bad header")
    return np.array([[float(r[0]), float(r[1])] for r in rows[1:] if r])


class DeconvCli:
    """``deconv deconv run`` on seeded noisy, Gaussian-smoothed sin-mix signals.

    A block holds every (N, epsilon) pair once, in random order.  The order
    of pair c in block b lies in stratum (c + b) mod 21 of [20, 90), so each
    block pairs signal sizes with orders the same way for every seed, and
    over 21 blocks every pair meets every stratum.
    """

    name = "deconv_cli"
    LENGTHS = (1000, 1024, 1500, 2001, 2048, 3000, 4096)
    EPSILONS = (0.2, 0.3, 0.4)
    ORDERS = (20, 90)
    SPAN = (-6.0, 6.0)
    expected_spans = {
        "cli.main", "kernels.construct", "kernels.check_admissible",
        "kernels.fourier_grid", "deconvolution.inverse_operator",
        "deconvolution.spectral_factor", "signals.discretize_kernel",
        "signals.apply", "signals.dft", "signals.csv", "fft.fft", "fft.ifft",
    }

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def jobs(self, block: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, block])
        combos = list(product(self.LENGTHS, self.EPSILONS))
        strata = (np.arange(len(combos)) + block) % len(combos) + rng.random(len(combos))
        lo, hi = self.ORDERS
        orders = lo + np.floor((hi - lo) * strata / len(combos)).astype(int)
        base = block * len(combos)
        return [
            Job(base + i, {
                "n": combos[c][0], "epsilon": combos[c][1], "order": int(orders[c]),
                "noise": float(10.0 ** rng.uniform(-4.0, -3.0)),
                "noise_seed": int(rng.integers(2**31)),
            })
            for i, c in enumerate(rng.permutation(len(combos)))
        ]

    def prepare(self, job: Job) -> None:
        p = job.params
        t0, t1 = self.SPAN
        dt = (t1 - t0) / (p["n"] - 1)
        t = t0 + dt * np.arange(p["n"])
        clean = np.sin(5.0 * t) + np.sin(3.0 * t)
        taps = gaussian_taps(p["epsilon"], dt)
        h = (taps.size - 1) // 2
        noise = np.random.default_rng(p["noise_seed"]).normal(0.0, p["noise"], t.size)
        smoothed = np.convolve(clean, taps)[h:h + t.size] + noise
        paths = {k: os.path.join(self.work_dir, k) for k in
                 ("in.csv", "ref.csv", "out.csv", "report.json")}
        _write_signal(paths["in.csv"], t, smoothed)
        _write_signal(paths["ref.csv"], t, clean)
        for k in ("out.csv", "report.json"):
            if os.path.exists(paths[k]):
                os.remove(paths[k])
        job.prepared = paths
        job.prepared["argv"] = [
            "deconv", "run", "--family", "gaussian",
            "--epsilon", _fmt(p["epsilon"]), "--order", str(p["order"]),
            "--in", paths["in.csv"], "--out", paths["out.csv"],
            "--report", paths["report.json"], "--reference", paths["ref.csv"],
        ]

    def run(self, job: Job):
        return _run_cli(job.prepared["argv"])

    def check(self, job: Job, outcome) -> Verdict:
        if isinstance(outcome, BaseException):
            return Verdict(True, reason=f"exception {outcome!r}")
        if outcome != 0:
            return Verdict(True, reason=f"exit code {outcome}")
        p = job.params
        given = _read_signal(job.prepared["in.csv"])
        clean = _read_signal(job.prepared["ref.csv"])[:, 1]
        out = _read_signal(job.prepared["out.csv"])
        if out.shape != given.shape:
            return Verdict(True, reason=f"output shape {out.shape} != {given.shape}")
        if not np.all(np.isfinite(out)):
            return Verdict(True, reason="non-finite output")
        dt = given[1, 0] - given[0, 0]
        if np.abs(out[:, 0] - given[:, 0]).max() > 1e-9 * max(dt, 1.0):
            return Verdict(True, reason="output is off the input grid")
        with open(job.prepared["report.json"], encoding="utf-8") as fh:
            residuals = json.load(fh)["residual_norms"]
        if not residuals[-1] < residuals[0]:
            return Verdict(True, reason=f"residual trace {residuals[0]} -> {residuals[-1]}")
        expected = fixed_point_oracle(given[:, 1], gaussian_taps(p["epsilon"], dt), p["order"])
        gap = float(np.abs(out[:, 1] - expected).max())
        if gap > SIGNAL_ORACLE_TOL * max(1.0, float(np.abs(expected).max())):
            return Verdict(True, reason=f"differs from the float64 recursion by {gap:.3e}")
        return Verdict(rel_err=interior_rel_l2(out[:, 1], clean))

    def properties(self, jobs: list[Job]) -> dict:
        seen, repeats = set(), 0
        for j in jobs:
            key = (j.params["n"], j.params["epsilon"])
            repeats += key in seen
            seen.add(key)
        non_pow2 = sum(j.params["n"] & (j.params["n"] - 1) != 0 for j in jobs)
        return {
            "non_pow2_share": non_pow2 / len(jobs),
            "repeated_config_share": repeats / len(jobs),
        }


# -- poly_roundtrip -------------------------------------------------------------

def _poly_to_json(dim: int, coeffs: dict) -> str:
    if dim == 1:
        arr = [0.0] * (max(a[0] for a in coeffs) + 1)
        for a, c in coeffs.items():
            arr[a[0]] = c
        return json.dumps(arr)
    return json.dumps({"dim": dim, "terms": [
        {"alpha": list(a), "coeff": c} for a, c in sorted(coeffs.items())]})


def _poly_from_json(text: str) -> dict:
    data = json.loads(text)
    if isinstance(data, list):
        return {(i,): float(c) for i, c in enumerate(data) if c != 0.0}
    return {tuple(t["alpha"]): float(t["coeff"]) for t in data["terms"]}


class PolyRoundtrip:
    """``deconv poly conv`` then ``poly deconv`` on dense random polynomials.

    A block holds every (dim, kernel, degree) once, in random order: 1-D
    degrees 1-50, 2-D total degrees 1-20, 3-D total degrees 1-12, both
    kernels, with fresh coefficients and a fresh epsilon in [0.5, 1.0) for
    every job.
    """

    name = "poly_roundtrip"
    MAX_DEGREE = {1: 50, 2: 20, 3: 12}
    FAMILIES = ("gaussian", "bump")
    expected_spans = {
        "cli.main", "kernels.construct", "kernels.moment", "quadrature.integrate",
        "polynomials.build", "polynomials.convolve", "polynomials.invert",
        "multipoly.convolve", "multipoly.invert",
    }

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.kernels = {}

    def jobs(self, block: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, block])
        cases = [(dim, family, degree) for dim, top in self.MAX_DEGREE.items()
                 for family in self.FAMILIES for degree in range(1, top + 1)]
        base = block * len(cases)
        return [
            Job(base + i, {
                "dim": cases[c][0], "family": cases[c][1], "degree": cases[c][2],
                "epsilon": float(rng.uniform(0.5, 1.0)),
                "coeff_seed": int(rng.integers(2**31)),
            })
            for i, c in enumerate(rng.permutation(len(cases)))
        ]

    def prepare(self, job: Job) -> None:
        p = job.params
        rng = np.random.default_rng(p["coeff_seed"])
        alphas = [a for a in product(range(p["degree"] + 1), repeat=p["dim"])
                  if sum(a) <= p["degree"]]
        coeffs = dict(zip(alphas, rng.uniform(-1.0, 1.0, len(alphas)).tolist()))
        paths = {k: os.path.join(self.work_dir, k) for k in ("p.json", "q.json", "r.json")}
        with open(paths["p.json"], "w", encoding="utf-8") as fh:
            fh.write(_poly_to_json(p["dim"], coeffs))
        for k in ("q.json", "r.json"):
            if os.path.exists(paths[k]):
                os.remove(paths[k])
        flags = ["--family", p["family"], "--epsilon", _fmt(p["epsilon"])]
        job.prepared = paths
        job.prepared["input"] = coeffs
        job.prepared["argv"] = (
            ["poly", "conv", *flags, "--in", paths["p.json"], "--out", paths["q.json"]],
            ["poly", "deconv", *flags, "--in", paths["q.json"], "--out", paths["r.json"]],
        )

    def run(self, job: Job):
        conv, deconv = job.prepared["argv"]
        code = _run_cli(conv)
        return code if code != 0 else _run_cli(deconv)

    def forward(self, family: str, epsilon: float, dim: int, coeffs: dict) -> dict:
        """The program's smoothing map, applied outside the timed region."""
        kernel = self.kernels.setdefault(family, make_kernel(family))
        if dim == 1:
            arr = np.zeros(max(a[0] for a in coeffs) + 1)
            for a, c in coeffs.items():
                arr[a[0]] = c
            op = ConvOperator(kernel, epsilon, max_degree=max(arr.size - 1, 1))
            out = op.convolve(Polynomial1D(arr)).coeffs
            return {(i,): float(c) for i, c in enumerate(out) if c != 0.0}
        return dict(convolve_multipoly(kernel, epsilon, MultiPolynomial(dim, coeffs)).terms)

    def check(self, job: Job, outcome) -> Verdict:
        if isinstance(outcome, BaseException):
            return Verdict(True, reason=f"exception {outcome!r}")
        if outcome != 0:
            return Verdict(True, reason=f"exit code {outcome}")
        p = job.params
        with open(job.prepared["q.json"], encoding="utf-8") as fh:
            q = _poly_from_json(fh.read())
        with open(job.prepared["r.json"], encoding="utf-8") as fh:
            r = _poly_from_json(fh.read())
        if not all(math.isfinite(c) for c in (*q.values(), *r.values())):
            return Verdict(True, reason="non-finite coefficient")
        # smoothing keeps the two leading degrees exactly (unit diagonal)
        given = job.prepared["input"]
        for a, c in given.items():
            if sum(a) >= p["degree"] - 1 and abs(q.get(a, 0.0) - c) > 4 * EPS64 * abs(c):
                return Verdict(True, reason=f"leading coefficient {a} changed")
        back = self.forward(p["family"], p["epsilon"], p["dim"], r)
        scale = max(abs(c) for c in q.values())
        err = max(abs(back.get(a, 0.0) - q.get(a, 0.0)) for a in set(back) | set(q)) / scale
        if err <= POLY_BACKWARD_TOL:
            return Verdict(rel_err=err)
        # the 1-D path is a triangular solve; only the series may lose more
        bound = 0.0 if p["dim"] == 1 else self.series_rounding_bound(
            p["family"], p["epsilon"], MultiPolynomial(p["dim"], q))
        if not err <= bound:
            return Verdict(True, err, f"backward error {err:.3e} > "
                           f"{max(POLY_BACKWARD_TOL, bound):.3e}")
        return Verdict(rel_err=err, accuracy_miss=True)

    def series_rounding_bound(self, family: str, epsilon: float, q: MultiPolynomial) -> float:
        """Relative rounding error float64 may leave in the inverse series.

        The exact preimage of q is sum_j (-1)^j C(h+1, j+1) T^j q with
        h = deg(q) // 2.  Summing it in float64 can be off by up to
        m * eps * sum_j C(h+1, j+1) |T^j q|, with m the number of terms of q
        standing in for the length of each coefficient's sum; the bound is
        that, relative to |q|.  It comes from the operator and the input only.
        """
        kernel = self.kernels.setdefault(family, make_kernel(family))
        half = q.total_degree() // 2
        total, cur = 0.0, q
        for j in range(half + 1):
            total += math.comb(half + 1, j + 1) * cur.max_abs_coeff()
            cur = convolve_multipoly(kernel, epsilon, cur)
        return len(q.terms) * EPS64 * total / q.max_abs_coeff()

    def properties(self, jobs: list[Job]) -> dict:
        mix: dict[str, int] = {}
        for j in jobs:
            d, deg = j.params["dim"], j.params["degree"]
            band = "high" if deg > 0.75 * self.MAX_DEGREE[d] else "low"
            key = f"{d}d_{band}"
            mix[key] = mix.get(key, 0) + 1
        return {"degree_mix": {k: v / len(jobs) for k, v in sorted(mix.items())}}


WORKLOADS = {w.name: w for w in (PaperFigs, DeconvCli, PolyRoundtrip)}
