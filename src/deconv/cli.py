"""Command-line interface.

Subcommands mirror the library layers:

    kernel moments|fourier|check     moment tables, transform samples, admissibility
    poly conv|deconv|iterate         coefficient-space smoothing and inversion
    signal conv|dft                  sampled-signal smoothing and spectra
    deconv run                       truncated-series deconvolution of a signal
    experiment fig1|fig2|fig3        the bundled experiments

Numeric failures exit 1 with a machine-readable JSON object on stderr;
usage errors exit 2 (argparse).  A JSON config file can pre-load any flag
via --config; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .deconvolution import DeconvConfig, inverse_operator, spectral_factor
from .errors import DeconvError, InputError
from .experiments import ExperimentSpec, run_experiment
from .kernels import Kernel, make_kernel
from .multipoly import MultiPolynomial, convolve_multipoly, invert_multipoly
from .polynomials import ConvOperator, Polynomial1D
from .signals import (
    convolve_signal,
    dft,
    discretize_kernel,
    sample_function,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
)


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="gaussian",
                   help="kernel family: gaussian | bump | tabulated")
    p.add_argument("--kernel-csv", default=None,
                   help="two-column (x, value) CSV for --family tabulated")
    p.add_argument("--parity", default="general", choices=["even", "general"],
                   help="declared symmetry of a tabulated kernel")


def _kernel_from_args(args: argparse.Namespace) -> Kernel:
    return make_kernel(args.family, csv_path=args.kernel_csv, parity=args.parity)


def _load_poly(path: str) -> Polynomial1D | MultiPolynomial:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    data = json.loads(text)
    if isinstance(data, dict) and data.get("dim", 1) != 1:
        return MultiPolynomial.from_json(text)
    return Polynomial1D.from_json(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# -- kernel -------------------------------------------------------------------

def _cmd_kernel_moments(args) -> int:
    k = _kernel_from_args(args)
    lines = ["m,moment"]
    for m in range(args.max_m + 1):
        lines.append(f"{m},{_fmt(k.moment(m))}")
    _write_text(args.out, "\n".join(lines))
    return 0


def _cmd_kernel_fourier(args) -> int:
    k = _kernel_from_args(args)
    xis = np.linspace(-args.xi_max, args.xi_max, args.n_grid)
    vals = k.fourier_grid(args.epsilon, xis)
    lines = ["xi,value"]
    lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xis, vals)]
    _write_text(args.out, "\n".join(lines))
    return 0


def _cmd_kernel_check(args) -> int:
    k = _kernel_from_args(args)
    rep = k.check_admissible(args.epsilon, args.xi_max, args.n_grid)
    _write_text(args.out, json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    return 0


# -- poly ---------------------------------------------------------------------

def _cmd_poly(args, action: str) -> int:
    k = _kernel_from_args(args)
    p = _load_poly(args.infile)
    if isinstance(p, MultiPolynomial):
        if action == "conv":
            out = convolve_multipoly(k, args.epsilon, p)
        elif action == "deconv":
            out = invert_multipoly(k, args.epsilon, p)
        else:
            cur = p
            for _ in range(args.k):
                cur = convolve_multipoly(k, args.epsilon, cur)
            out = cur
        _write_text(args.out, out.to_json())
        return 0
    op = ConvOperator(k, args.epsilon, max_degree=max(p.coeffs.size - 1, 1))
    if action == "conv":
        out = op.convolve(p)
    elif action == "deconv":
        out = op.invert(p)
    else:
        out = op.iterate(p, args.k)
    _write_text(args.out, out.to_json())
    return 0


# -- signal ---------------------------------------------------------------------

def _cmd_signal_conv(args) -> int:
    k = _kernel_from_args(args)
    s = signal_from_csv(args.infile)
    taps = discretize_kernel(k, args.epsilon, s.dt)
    signal_to_csv(convolve_signal(s, taps), args.out)
    return 0


def _cmd_signal_dft(args) -> int:
    s = signal_from_csv(args.infile)
    spectrum_to_csv(dft(s), args.out)
    return 0


# -- deconv ---------------------------------------------------------------------

def _cmd_deconv_run(args) -> int:
    k = _kernel_from_args(args)
    g = signal_from_csv(args.infile)
    cfg = DeconvConfig(
        kernel=k, epsilon=args.epsilon, order=args.order,
        edge_margin=args.edge_margin,
        admissibility_check=not args.no_admissibility_check,
        auto_stop=args.auto_stop,
    )
    reference = signal_from_csv(args.reference) if args.reference else None
    rep = inverse_operator(cfg, g, reference=reference)
    signal_to_csv(rep.reconstructed, args.out)
    summary = rep.to_json_dict()
    summary["config"] = {
        "kernel_family": args.family,
        "epsilon": args.epsilon,
        "order": args.order,
        "edge_margin": args.edge_margin,
        "admissibility_check": not args.no_admissibility_check,
        "auto_stop": args.auto_stop,
    }
    if k.parity == "even":  # a general kernel has no real transform
        summary["spectral_factor_dc"] = float(spectral_factor(cfg, 0.0))
    if args.report:
        _write_text(args.report, json.dumps(summary, sort_keys=True, indent=2))
    return 0


# -- experiment -------------------------------------------------------------------

def _grid(text: str) -> dict:
    """``t0:t1:n`` as ExperimentSpec grid overrides (an argparse ``type``)."""
    try:
        t0, t1, n = text.split(":")
        return {"t0": float(t0), "t1": float(t1), "n_samples": int(n)}
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected t0:t1:n, got {text!r}") from None


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.order is not None:
        overrides["order"] = args.order
    if args.seed is not None:
        overrides["noise_seed"] = args.seed
    if args.variance is not None:
        overrides["noise_variance"] = args.variance
    if args.degree is not None:
        overrides["taylor_degree"] = args.degree
    if args.grid is not None:
        overrides.update(args.grid)
    maker = getattr(ExperimentSpec, args.which)
    spec = maker(**overrides)
    summary = run_experiment(spec, args.out)
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="deconv",
        description="Convolve and exactly deconvolve polynomials and sampled "
                    "signals with smooth even kernels.",
    )
    root.add_argument("--config", default=None,
                      help="JSON file of flag defaults (flag names with dashes "
                           "or underscores); explicit flags win")
    sub = root.add_subparsers(dest="group", required=True)

    kern = sub.add_parser("kernel", help="kernel moments, transform, admissibility")
    ksub = kern.add_subparsers(dest="action", required=True)
    km = ksub.add_parser("moments")
    _add_kernel_flags(km)
    km.add_argument("--max-m", type=int, default=4)
    km.add_argument("--out", default=None)
    km.set_defaults(func=_cmd_kernel_moments)
    kf = ksub.add_parser("fourier")
    _add_kernel_flags(kf)
    kf.add_argument("--epsilon", type=float, default=1.0)
    kf.add_argument("--xi-max", type=float, default=5.0)
    kf.add_argument("--n-grid", type=int, default=257)
    kf.add_argument("--out", default=None)
    kf.set_defaults(func=_cmd_kernel_fourier)
    kc = ksub.add_parser("check")
    _add_kernel_flags(kc)
    kc.add_argument("--epsilon", type=float, default=1.0)
    kc.add_argument("--xi-max", type=float, default=10.0)
    kc.add_argument("--n-grid", type=int, default=1001)
    kc.add_argument("--out", default=None)
    kc.set_defaults(func=_cmd_kernel_check)

    poly = sub.add_parser("poly", help="coefficient-space smoothing and inversion")
    psub = poly.add_subparsers(dest="action", required=True)
    for action, helptext in (
        ("conv", "smooth a polynomial"),
        ("deconv", "invert the smoothing"),
        ("iterate", "apply the smoothing k times"),
    ):
        pp = psub.add_parser(action, help=helptext)
        _add_kernel_flags(pp)
        pp.add_argument("--epsilon", type=float, required=True)
        pp.add_argument("--in", dest="infile", required=True,
                        help="polynomial JSON: [a0, a1, ...] or {dim, terms}")
        pp.add_argument("--out", default=None)
        if action == "iterate":
            pp.add_argument("--k", type=int, required=True)
        pp.set_defaults(func=lambda a, _act=action: _cmd_poly(a, _act))

    sig = sub.add_parser("signal", help="sampled-signal smoothing and spectra")
    ssub = sig.add_subparsers(dest="action", required=True)
    sc = ssub.add_parser("conv")
    _add_kernel_flags(sc)
    sc.add_argument("--epsilon", type=float, required=True)
    sc.add_argument("--in", dest="infile", required=True, help="signal CSV (t,value)")
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=_cmd_signal_conv)
    sd = ssub.add_parser("dft")
    sd.add_argument("--in", dest="infile", required=True, help="signal CSV (t,value)")
    sd.add_argument("--out", required=True)
    sd.set_defaults(func=_cmd_signal_dft)

    dec = sub.add_parser("deconv", help="truncated-series deconvolution")
    dsub = dec.add_subparsers(dest="action", required=True)
    dr = dsub.add_parser("run")
    _add_kernel_flags(dr)
    dr.add_argument("--epsilon", type=float, required=True)
    dr.add_argument("--order", type=int, required=True)
    dr.add_argument("--in", dest="infile", required=True, help="smoothed signal CSV")
    dr.add_argument("--out", required=True, help="reconstruction CSV")
    dr.add_argument("--report", default=None, help="summary JSON path")
    dr.add_argument("--reference", default=None, help="clean signal CSV for error metrics")
    dr.add_argument("--edge-margin", type=float, default=0.1)
    dr.add_argument("--no-admissibility-check", action="store_true")
    dr.add_argument("--auto-stop", action="store_true")
    dr.set_defaults(func=_cmd_deconv_run)

    exp = sub.add_parser("experiment", help="bundled experiments")
    exp.add_argument("which", choices=["fig1", "fig2", "fig3"])
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--epsilon", type=float, default=None)
    exp.add_argument("--order", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--variance", type=float, default=None)
    exp.add_argument("--degree", type=int, default=None, help="fig1 Taylor degree")
    exp.add_argument("--grid", type=_grid, default=None, help="t0:t1:n override")
    exp.set_defaults(func=_cmd_experiment)

    return root


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Prepend flags from --config <file> so explicit flags override them."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        parser.error("--config needs a file path")
    with open(argv[i + 1], encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        parser.error("--config file must hold a JSON object of flag values")
    injected: list[str] = []
    for key, value in data.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected += [flag, str(value)]
    # keep subcommand words first: find the position after the last positional
    rest = [a for j, a in enumerate(argv) if j not in (i, i + 1)]
    split = 0
    while split < len(rest) and not rest[split].startswith("-"):
        split += 1
    return rest[:split] + injected + rest[split:]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except (DeconvError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
