"""Repeat the benchmark over seeds and print the spread of every metric.

Run from the repository root:

    python3 bench/sweep.py --runs 10 [--trace] [--save bench/baseline.json]
                           [--workloads decay-2d ...]

Each round runs every workload once with a new seed (1, 2, ...), so slow
phases of the machine fall on all workloads alike.  For each workload and
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and their distance as a share of the median,
next to the metric's bound in BENCHMARK.json, plus fail_frac over all runs.
It exits 1 if a spread exceeds its bound or a run failed.  --trace adds one
traced run per workload.  --save writes the results with per-run raw
samples and the environment.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds, trace) -> dict:
    argv = [*cmd, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "exit_code": proc.returncode, "result": None}
    raw = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"seed": seed, "exit_code": 0, "result": json.loads(lines[-1]),
            "samples": json.loads(raw.read_text())["samples"]}


def summarize(runs: list[dict], name: str) -> dict:
    values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "machine": platform.machine(), "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = {w: [] for w in workloads}
    traced = {}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(spec["command"], w, seed, seconds, 0))
    if args.trace:
        for w in workloads:
            traced[w] = run_once(spec["command"], w, seeds[0], seconds, 1)

    report = {"environment": environment(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    ok = True
    print(f"{'workload':18s} {'metric':12s} {'unit':5s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        done = [r for r in runs[w] if r["result"]]
        attempted = sum(r["result"]["attempted"] for r in done)
        failed = sum(r["result"]["failed"] for r in done) + len(runs[w]) - len(done)
        entry = {"fail_frac": failed / max(attempted, 1), "metrics": {},
                 "runs": runs[w], "traced_run": traced.get(w)}
        for m in spec["end_to_end"]:
            if not done:
                ok = False
                break
            s = summarize(done, m["name"])
            entry["metrics"][m["name"]] = s
            flag = ""
            if s["spread"] > m["bound"]:
                flag, ok = " SPREAD>BOUND", False
            print(f"{w:18s} {m['name']:12s} {m['unit']:5s} {s['median']:10.4f} "
                  f"{s['q1']:10.4f} {s['q3']:10.4f} {s['spread']:7.3f} "
                  f"{m['bound']:6.2f}{flag}")
        print(f"{w:18s} {'fail_frac':12s} {'ratio':5s} {entry['fail_frac']:10.4f}")
        ok = ok and failed == 0
        report["workloads"][w] = entry
    if args.save:
        args.save.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
