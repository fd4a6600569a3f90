"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

1. a tiny run of every workload, untraced and traced, prints as its last line
   the result object with every metric named in ``BENCHMARK.json``, each
   with its unit and a finite value;
2. one deliberately corrupted output per workload (one perturbed sample of a
   figure CSV or of a reconstruction, one perturbed coefficient of a 1-D and
   of a 2-D polynomial) makes that workload's checker count the job as
   failed, while the untouched output passes;
3. the benchmark exits non-zero, without a result line, from a directory
   that holds only ``BENCHMARK.json`` and the benchmark's files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def smoke(spec: dict) -> list[str]:
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{wl} trace={trace}: keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{wl} trace={trace}: correct={result['correct']}")
            for m in listed:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{wl} trace={trace}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{wl} trace={trace}: {m['name']} = {got}")
            print(f"smoke {wl} trace={trace}: {len(result['metrics'])} metrics", flush=True)
    return problems


def _perturb_csv_value(path: str, row: int, col: int) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    cells = lines[row].rstrip("\r\n").split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6) + 1e-6)
    lines[row] = ",".join(cells) + lines[row][len(lines[row].rstrip("\r\n")):]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def corrupted() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    def one_job(cls, pick, corrupt):
        work = os.path.join(SCRATCH, cls.name)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        wl = cls(7, work)
        job = next(j for j in wl.jobs(0) if pick(j))
        wl.prepare(job)
        outcome = wl.run(job)
        clean = wl.check(job, outcome)
        corrupt(job)
        broken = wl.check(job, outcome)
        print(f"corrupted {cls.name}: clean failed={clean.failed}, "
              f"corrupted failed={broken.failed} ({broken.reason})", flush=True)
        if clean.failed or not broken.failed:
            return [f"{cls.name}: clean={clean}, corrupted={broken}"]
        return []

    def corrupt_fig(job):
        _perturb_csv_value(os.path.join(job.prepared["out"], "fig2_signals.csv"), 500, 3)

    def corrupt_signal(job):
        _perturb_csv_value(job.prepared["out.csv"], 1000, 1)

    def corrupt_poly(job):
        with open(job.prepared["r.json"], encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, list):
            data[-1] += 1e-4 * max(abs(c) for c in data)
        else:
            terms = data["terms"]
            terms[-1]["coeff"] += 1e-4 * max(abs(t["coeff"]) for t in terms)
        with open(job.prepared["r.json"], "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    return (one_job(workloads.PaperFigs, lambda j: j.params["fig"] == "fig2", corrupt_fig)
            + one_job(workloads.DeconvCli, lambda j: j.params["n"] == 2001, corrupt_signal)
            + one_job(workloads.PolyRoundtrip,
                      lambda j: j.params["dim"] == 1 and j.params["degree"] < 13, corrupt_poly)
            # a multi-variable job is held to the inverse series' rounding bound
            + one_job(workloads.PolyRoundtrip,
                      lambda j: j.params["dim"] == 2 and j.params["degree"] > 8, corrupt_poly))


def bare_directory() -> list[str]:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "poly_roundtrip", 0)
    print(f"bare directory: exit {proc.returncode}", flush=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory run exited {proc.returncode}: {proc.stdout[-300:]}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = smoke(spec) + corrupted() + bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
