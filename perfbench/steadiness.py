"""Run-to-run spread of the end-to-end metrics, and the provenance record.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--out FILE]

Run from the root of a checkout.  For each workload it runs the benchmark
``--runs`` times, each with another seed, at ``run_seconds`` from
``BENCHMARK.json``, and prints for every end-to-end metric the median and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
should stay below a third of the metric's bound (``setup_s`` is exempt).

It writes the provenance record (default ``perfbench/provenance.json``): the
machine, Python, numpy, BLAS and BLAS thread count, and per workload the
input properties, failure and accuracy-miss ratios, medians and spreads of those runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=os.path.join(HERE, "provenance.json"))
    args = ap.parse_args()

    record = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    steady = True
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        details = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            *_, detail_line, result_line = proc.stdout.strip().splitlines()
            result = json.loads(result_line)
            details.append(json.loads(detail_line))
            print(wl, seed, json.dumps({k: round(v["value"], 4)
                                        for k, v in result["metrics"].items()}), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            summary[m["name"]] = {"median": med, "spread": spread, "bound": m["bound"]}
            print(f"  {wl:15s} {m['name']:22s} median {med:12.5g}  spread {spread:.4f}"
                  f"  bound {m['bound']}  {'ok' if ok else 'UNSTEADY'}", flush=True)
        record["environment"] = details[0]["environment"]
        record["workloads"][wl] = {
            "seeds": [d["seed"] for d in details],
            "jobs": [d["jobs"] for d in details],
            "tail_percentile": details[0]["tail_percentile"],
            "failed_ratio": [d["failed_ratio"] for d in details],
            "accuracy_miss_ratio": [d["accuracy_miss_ratio"] for d in details],
            "properties": details[0]["properties"],
            "metrics": summary,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("steady" if steady else "UNSTEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
