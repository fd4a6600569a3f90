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
from dataclasses import fields
from functools import partial

import numpy as np

from .deconvolution import DeconvConfig, inverse_operator, spectral_factor
from .errors import DeconvError, InputError, ParameterError
from .experiments import ExperimentSpec, run_experiment
from .kernels import Kernel, make_kernel
from .multipoly import MultiPolynomial, convolve_multipoly, invert_multipoly
from .polynomials import ConvOperator, Polynomial1D
from .signals import (
    convolve_signal,
    dft,
    discretize_kernel,
    open_output,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
    write_columns_csv,
    write_json,
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
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    if isinstance(data, dict) and data.get("dim", 1) != 1:
        return MultiPolynomial.from_data(data)
    return Polynomial1D.from_data(data)


# -- kernel -------------------------------------------------------------------

def _cmd_kernel_moments(args) -> int:
    k = _kernel_from_args(args)
    ms = range(args.max_m + 1)
    write_columns_csv(args.out, ["m", "moment"], [ms, [k.moment(m) for m in ms]])
    return 0


def _cmd_kernel_fourier(args) -> int:
    k = _kernel_from_args(args)
    xis = np.linspace(-args.xi_max, args.xi_max, args.n_grid)
    write_columns_csv(args.out, ["xi", "value"], [xis, k.fourier_grid(args.epsilon, xis)])
    return 0


def _cmd_kernel_check(args) -> int:
    k = _kernel_from_args(args)
    rep = k.check_admissible(args.epsilon, args.xi_max, args.n_grid)
    write_json(args.out, rep.to_dict())
    return 0


# -- poly ---------------------------------------------------------------------

def _cmd_poly(args) -> int:
    k = _kernel_from_args(args)
    p = _load_poly(args.infile)
    if isinstance(p, MultiPolynomial):
        smooth = partial(convolve_multipoly, k, args.epsilon)
        invert = partial(invert_multipoly, k, args.epsilon)
    else:
        op = ConvOperator(k, args.epsilon, max_degree=max(p.coeffs.size - 1, 1))
        smooth, invert = op.convolve, op.invert
    if args.action == "deconv":
        p = invert(p)
    else:
        times = args.k if args.action == "iterate" else 1
        if times < 0:
            raise ParameterError(f"iteration count must be a nonnegative integer, got {times}")
        for _ in range(times):
            p = smooth(p)
    with open_output(args.out) as fh:
        fh.write(p.to_json() + "\n")
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
    settings = {name: getattr(args, name) for name in (
        "epsilon", "order", "edge_margin", "admissibility_check", "auto_stop")}
    cfg = DeconvConfig(kernel=k, **settings)
    reference = signal_from_csv(args.reference) if args.reference else None
    rep = inverse_operator(cfg, g, reference=reference)
    signal_to_csv(rep.reconstructed, args.out)
    summary = rep.to_json_dict()
    summary["config"] = {"kernel_family": args.family, **settings}
    if k.parity == "even":  # a general kernel has no real transform
        summary["spectral_factor_dc"] = float(spectral_factor(cfg, 0.0))
    if args.report:
        write_json(args.report, summary)
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
    # absent flags are not in the namespace; present ones are named after their field
    names = {f.name for f in fields(ExperimentSpec)}
    overrides = {name: v for name, v in vars(args).items() if name in names}
    spec = getattr(ExperimentSpec, args.which)(**overrides, **args.grid)
    write_json(None, run_experiment(spec, args.out))
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
        pp.set_defaults(func=_cmd_poly)

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
    dr.add_argument("--no-admissibility-check", dest="admissibility_check",
                    action="store_false")
    dr.add_argument("--auto-stop", action="store_true")
    dr.set_defaults(func=_cmd_deconv_run)

    exp = sub.add_parser("experiment", help="bundled experiments",
                         argument_default=argparse.SUPPRESS)
    exp.add_argument("which", choices=["fig1", "fig2", "fig3"])
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--epsilon", type=float)
    exp.add_argument("--order", type=int)
    exp.add_argument("--seed", dest="noise_seed", metavar="SEED", type=int)
    exp.add_argument("--variance", dest="noise_variance", metavar="VARIANCE", type=float)
    exp.add_argument("--degree", dest="taylor_degree", metavar="DEGREE", type=int,
                     help="fig1 Taylor degree")
    exp.add_argument("--grid", type=_grid, default={}, help="t0:t1:n override")
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
        if value is None or isinstance(value, bool):  # null, like false, injects nothing
            if value:
                injected.append(flag)
        else:  # one word, so that a value starting with "-" is not read as a flag
            injected.append(f"{flag}={value}")
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
