"""One workload in a fresh process: set-up, closed loop of jobs, metrics.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``--setup-only`` imports ``deconv``, does the once-per-process construction
and prints ``time.process_time()``: the CPU seconds the process has used
since it started.

Otherwise the worker runs whole blocks of jobs until the timed job time (CPU
time at reference speed, see ``speed.py``) reaches S seconds (at least two
blocks, so every workload sees reruns), and prints one JSON object: the
end-to-end numbers with ``--trace 0``.  With ``--trace 1`` it spends S/2
seconds untraced, reruns the same jobs traced, and reports per-layer numbers
plus ``trace.overhead_ratio``, the traced job time over the untraced job time
for the same jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
from time import process_time

import numpy as np

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_BLOCKS = 2
# Fixed per workload so that before/after runs compare the same percentile;
# each is the highest percentile with at least 10 jobs beyond it in a 30 s run
# at the seed commit (36, 126 and 984 jobs).  For paper_figs it sits at the
# lower edge of the fig1 cluster, the slowest third.
TAIL_PERCENTILE = {"paper_figs": 70, "deconv_cli": 90, "poly_roundtrip": 95}


def setup():
    """``import deconv`` plus the construction a process does once."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from deconv import cli, make_kernel

    import workloads

    cli.build_parser()
    make_kernel("gaussian")
    make_kernel("bump")
    return workloads


def environment() -> dict:
    """Machine and library versions, and the BLAS thread count in use."""
    import ctypes
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run_blocks(workload, budget: float, blocks=None, tracer=None) -> tuple[list, int]:
    """Closed loop over whole blocks of jobs.

    Runs ``blocks`` blocks, or else until the job time at reference speed
    reaches ``budget`` seconds (at least ``MIN_BLOCKS``), so that the number of
    blocks does not follow the machine's speed.  Returns one record per job,
    (job, CPU seconds, speed factor, verdict), and the number of blocks run.
    """
    tracker = speed.SpeedTracker()
    runs = []
    block = 0
    measured = 0.0
    while (block < blocks) if blocks is not None else (block < MIN_BLOCKS or measured < budget):
        for job in workload.jobs(block):
            workload.prepare(job)
            if tracer is not None:
                tracer.job = job.index
                tracer.active = True
            outcome, (t0, t1), cpu = tracker.timed(lambda: workload.run(job))
            if tracer is not None:
                tracer.active = False
            measured += cpu * tracker.estimate()
            runs.append((job, t0, t1, cpu, workload.check(job, outcome)))
        block += 1
    tracker.sample()
    records = [(job, cpu, tracker.factor(t0, t1), verdict)
               for job, t0, t1, cpu, verdict in runs]
    return records, block


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile.

    A weighted mean of all order statistics, with the weights a Beta(p(n+1),
    (1-p)(n+1)) distribution puts on each 1/n slice of [0, 1].  Job times
    carry a few percent of machine noise each; a single order statistic
    passes that noise on in full, this average does not.
    """
    x = np.sort(values)
    n = x.size
    a, b = pct / 100.0 * (n + 1), (1.0 - pct / 100.0) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, left=0.0, right=1.0))
    return float(weights @ x)


def end_to_end(name: str, records: list, eps: float) -> tuple[dict, dict]:
    """End-to-end metrics, each job timed at reference speed (see speed.py)."""
    times = [t * f for _, t, f, _ in records]
    unscaled = [t for _, t, _, _ in records]
    errs = [v.rel_err for *_, v in records if v.rel_err is not None]
    pct = TAIL_PERCENTILE[name]
    tail = percentile(times, pct)
    worst = max(errs) if errs else math.nan
    metrics = {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": percentile(times, 50) * 1e3,
        "job_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worst_rel_err_digits": math.log10(worst / eps),
    }
    info = {
        "tail_percentile": pct,
        "jobs": len(times),
        "jobs_beyond_tail": sum(t > tail for t in times),
        "worst_rel_err": worst,
        "unscaled_cpu": {"jobs_per_s": len(unscaled) / sum(unscaled),
                         "job_p50_ms": percentile(unscaled, 50) * 1e3,
                         "job_tail_ms": percentile(unscaled, pct) * 1e3},
    }
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir")
    args = ap.parse_args()

    workloads = setup()
    if args.setup_only:
        print(repr(process_time()))
        return 0

    work_dir = os.path.join(args.work_dir, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # numpy seeds must be non-negative
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**64, work_dir)
    budget = args.seconds / 2 if args.trace else args.seconds
    records, blocks = run_blocks(workload, budget)
    properties = workload.properties([j for j, *_ in records])
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced, _ = run_blocks(workload, budget, blocks=blocks, tracer=tracer)
        tracer.uninstall()
        missing = sorted(workload.expected_spans - tracer.fired())
        if missing:
            raise RuntimeError(f"wrappers that never fired: {missing}")
        metrics = tracer.layer_metrics({j.index: f for j, _, f, _ in traced})
        # round trips within the series' rounding bound but above sqrt(eps)
        metrics["multipoly.invert.accuracy_misses"] = (
            sum(v.accuracy_miss for *_, v in traced) / len(traced))
        # block 0 of the untraced pass also pays warm-up; compare later blocks
        warm = len(workload.jobs(0))
        metrics["trace.overhead_ratio"] = (sum(t * f for _, t, f, _ in traced[warm:])
                                           / sum(t * f for _, t, f, _ in records[warm:]))
        tracer.save(os.path.join(args.work_dir, f"spans-{args.workload}.npz"))
        info = {"traced_jobs": len(traced), "spans": tracer.opened}
        records = records + traced
    else:
        metrics, info = end_to_end(args.workload, records, workloads.EPS64)
    verdicts = [v for *_, v in records]
    result = {
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "accuracy_misses": sum(v.accuracy_miss for v in verdicts),
        "failures": sorted({v.reason for v in verdicts if v.failed})[:5],
        "properties": properties,
        "environment": environment(),
        "metrics": metrics,
        "info": info,
    }
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
