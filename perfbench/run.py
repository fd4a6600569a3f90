"""Benchmark of the ``deconv`` package in ``src/``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (closed loop, one client,
each in its own fresh worker process):

* ``paper_figs``     fig1, fig2, fig3 in rotation through
                     ``experiments.run_experiment``;
* ``deconv_cli``     ``cli.main(["deconv", "run", ...])`` on seeded noisy
                     signals;
* ``poly_roundtrip`` ``cli.main(["poly", "conv", ...])`` then ``["poly",
                     "deconv", ...]`` on seeded dense random polynomials.

Inputs come from ``--seed``; generating and checking them is outside the
timed region.  ``setup_s`` is the median over ``SETUP_PROBES`` fresh
interpreters of the CPU time from process start to the end of ``import
deconv`` and the once-per-process construction.  Every time is CPU time (of
the thread that runs the jobs; for set-up, of the whole process), which
leaves out time the host gave this virtual CPU to another tenant, reported at
reference speed: scaled by the machine's speed measured just before and after
it (see ``speed.py``); the run's details also give the unscaled job times.
BLAS runs single-threaded (``BLAS_THREADS``), and the benchmark keeps itself
and its workers on one CPU.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced rerun with ``--trace 1``.
``correct`` is false when a job failed: it crashed, exited non-zero,
produced a non-finite output or broke its contract (see ``workloads.py``).
The line before it holds the run's details: tail percentile, job count,
``failed_ratio``, the share of ``poly_roundtrip`` accuracy misses, the raw
worst error and the input properties.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 170.0
def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a worker")
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          env=worker_env(), cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[1:]} exited with {proc.returncode}")
    return out


def measure_setup(deadline: float) -> float:
    """Median set-up CPU time of fresh interpreters, at reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        tracker = speed.SpeedTracker()
        tracker.sample()
        start = perf_counter()
        cpu = float(run_process([WORKER, "--setup-only"], deadline).split()[-1])
        end = perf_counter()
        tracker.sample()
        samples.append(cpu * tracker.factor(start, end))
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_figs", "deconv_cli", "poly_roundtrip"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "deconv", "__init__.py")):
        print(f"no deconv package under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    # Workers inherit this: the speed reference (speed.py) and the jobs then
    # run on the same virtual CPU, and the vCPUs of a shared host differ in
    # speed from moment to moment.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = perf_counter() + RUN_TIMEOUT_S
    os.makedirs(WORK_DIR, exist_ok=True)
    setup_s = None if args.trace else measure_setup(deadline)
    out = run_process([WORKER, "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--work-dir", WORK_DIR], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_ratio": result["failed"] / result["attempted"],
        "accuracy_miss_ratio": result["accuracy_misses"] / result["attempted"],
        "failures": result["failures"],
        "properties": result["properties"], "environment": result["environment"],
        **result["info"],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
