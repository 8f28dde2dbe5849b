"""Benchmark of the `shocklab run` pipeline: profile -> evolve -> norms -> fits.

Run one workload from the repository root:

    python3 bench/run_bench.py --workload decay-2d --seed 1 --seconds 30 --trace 0

One unit of work is one `shocklab run` of bench/workloads/<workload>.json in
a fresh interpreter (bench/child.py).  Runs go one at a time, closed loop,
until --seconds have passed, and every run's outputs are checked.  The last
line on stdout is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics (medians over the
runs), with set-up-only runs between the full ones to add set-up samples;
--trace 1 gives the per-layer metrics of traced runs, interleaved with
untraced ones that measure the tracing overhead.  A summary with fail_frac
goes to stderr; raw samples and spans go to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from child import HOOKS, STEP_HOOK  # bench/ is the script's directory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
WORKLOADS = ("decay-2d", "nonzero-3d", "decay-1d-quartic")

# The whole invocation must end within 180 s; stop starting runs before.
HARD_LIMIT_S = 170.0
MIN_UNTRACED = 3
MIN_TRACED = 2
# Set-up-only runs started after each full untraced run.  Set-up is a
# fifth to two fifths of a full run, and its samples spread more, so it
# gets more of them.
SETUP_PER_FULL = 2
# Non-zero-mode decay rate: the torus spectral gap 4 pi^2, within the
# tolerance tier-1 uses for the same fit.
SPECTRAL_GAP = 4.0 * math.pi ** 2
GAP_REL_TOL = 0.05

STEP = ".".join(STEP_HOOK)
HOOK_NAMES = [f"{module}.{name}" for module, name in HOOKS]
NORM_FNS = ("grid.lp_norm", "grid.integrate", "grid.gradient")
# Counts that must repeat exactly for one source tree, workload and seed.
EXACT_COUNTS = ("solver.steps", "solver.dt", "profile.solve_profile_calls",
                "grid.lp_norm_calls", "grid.snapshot_bytes",
                "experiment.bytes_written", "profile.text_bytes")


def median(values):
    return statistics.median(values) if values else float("nan")


def source_digest() -> str:
    """Hash of the package sources: counts are compared only within one."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "shocklab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Child:
    """Spawns bench/child.py and reaps it with its resource usage."""

    def __init__(self, workload: str, seed: int):
        self.dir = WORK / workload
        self.out = self.dir / "out"
        self.record = self.dir / "record.json"
        self.log = self.dir / "child.log"
        tmp = WORK / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, TMPDIR=str(tmp))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # Relative paths keep config-echo.json, and so the byte counts,
        # independent of where the checkout lives.
        self.config = os.path.relpath(BENCH / "workloads" / f"{workload}.json", ROOT)
        self.seed = seed

    def _spawn(self, argv, timeout: float):
        """Run argv to completion; (exit code, spawn ns, exit ns, rusage)."""
        with open(self.log, "wb") as log:
            actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
            t_spawn = time.monotonic_ns()
            pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(pidfd)
        t_exit = time.monotonic_ns()
        return os.waitstatus_to_exitcode(status), t_spawn, t_exit, usage

    def warm_up(self, timeout: float) -> int:
        """Import once so bytecode compilation is not timed."""
        code, *_ = self._spawn([sys.executable, "-c", "import shocklab.cli"], timeout)
        return code

    def run(self, mode: str, timeout: float) -> dict:
        """One run of bench/child.py in ``mode``: plain, setup or trace."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.record.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(self.record),
                mode, "--", "run", "--config", self.config,
                "--out", os.path.relpath(self.out, ROOT), "--seed", str(self.seed),
                "--quiet"]
        code, t_spawn, t_exit, usage = self._spawn(argv, timeout)
        sample = {"mode": mode, "exit_code": code,
                  "wall_s": (t_exit - t_spawn) * 1e-9,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        try:
            rec = json.loads(self.record.read_text())
        except (OSError, ValueError):
            rec = {}
        if rec.get("first_step_ns"):
            sample["setup_s"] = (rec["first_step_ns"] - t_spawn) * 1e-9
        if rec.get("run_end_ns"):
            sample["run_s"] = (rec["run_end_ns"] - t_spawn) * 1e-9
        sample["not_measured"] = rec.get("not_measured", [])
        sample["record"] = rec
        sample["spawn_ns"] = t_spawn
        return sample

    def log_tail(self, lines: int = 5) -> str:
        try:
            return "\n".join(self.log.read_text().splitlines()[-lines:])
        except OSError:
            return ""


def output_sizes(out: Path) -> dict:
    total = snapshots = 0
    for path in out.rglob("*"):
        if path.is_file():
            size = path.stat().st_size
            total += size
            if path.parent.name == "snapshots":
                snapshots += size
    profile = out / "profile.txt"
    return {"experiment.bytes_written": total, "grid.snapshot_bytes": snapshots,
            "profile.text_bytes": profile.stat().st_size if profile.exists() else 0}


def check_outputs(cfg: dict, out: Path) -> list[str]:
    """The workload's correctness checks on one run's artifacts."""
    problems = []
    st = cfg["stepper"]
    n_rows = round(st["t_final"] / st["dt_out"]) + 1
    try:
        with open(out / "norms.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        values = [[float(v) for v in row.values()] for row in table]
    except (OSError, ValueError) as exc:
        return [f"norms.csv unreadable: {exc}"]
    if len(values) != n_rows:
        problems.append(f"norms.csv has {len(values)} rows, expected {n_rows}")
    if not all(math.isfinite(v) for row in values for v in row):
        problems.append("norms.csv holds non-finite values")
    try:
        rates = json.loads((out / "rates.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"rates.json unreadable: {exc}"]
    if not table:
        return problems
    if cfg["perturbation"]["kind"] == "random-nonzero-mode":
        rate = rates.get("fit_nzmode_L2", {}).get("exponent")
        if rate is None or abs(rate / SPECTRAL_GAP - 1.0) > GAP_REL_TOL:
            problems.append(f"non-zero-mode rate {rate} is not 4 pi^2 within "
                            f"{GAP_REL_TOL:.0%}")
    else:
        first, last = float(table[0]["pert_L2"]), float(table[-1]["pert_L2"])
        if not last < first:
            problems.append(f"pert_L2 did not decay: {first:g} -> {last:g}")
    if cfg.get("snapshots"):
        found = len(list((out / "snapshots").glob("field-*.txt")))
        if found != n_rows:
            problems.append(f"{found} snapshot files, expected {n_rows}")
    return problems


def layer_metrics(sample: dict) -> dict:
    """Per-layer numbers of one traced run, derived from its spans."""
    rec = sample["record"]
    incl, self_ns, calls, errors = (defaultdict(int) for _ in range(4))
    step_ns = []
    spans = rec.get("spans", [])
    for name, start, end, parent, raised in spans:
        dur = end - start
        incl[name] += dur
        self_ns[name] += dur
        calls[name] += 1
        errors[name] += int(raised)
        if parent >= 0:
            self_ns[spans[parent][0]] -= dur
        if name == STEP:
            step_ns.append(dur)
    steps = calls[STEP]
    cells = rec.get("cells", 0)
    top = "experiment.run_experiment"
    roots_ns = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    process_start_ns = spans[0][1] - sample["spawn_ns"] if spans else 0
    m = {
        "solver.steps": (steps, "count"),
        "solver.dt": (rec.get("dt", 0.0), "model_time"),
        "solver.stepping_s": (incl[STEP] * 1e-9, "s"),
        "solver.step_ms": (median(step_ns) * 1e-6 if step_ns else 0.0, "ms"),
        "solver.ns_per_cell_step": (
            incl[STEP] / (steps * cells) if steps and cells else 0.0, "ns"),
        "solver.rhs_us": (rec.get("rhs_ns", 0.0) * 1e-3, "us"),
        "solver.rhs_ns_per_cell": (
            rec.get("rhs_ns", 0.0) / cells if cells else 0.0, "ns"),
        "profile.solve_profile_calls": (calls["profile.solve_profile"], "count"),
        "profile.solve_profile_s": (incl["profile.solve_profile"] * 1e-9, "s"),
        "profile.eval_profile_calls": (calls["profile.eval_profile"], "count"),
        "profile.eval_profile_s": (incl["profile.eval_profile"] * 1e-9, "s"),
        "profile.profile_to_text_s": (incl["profile.profile_to_text"] * 1e-9, "s"),
        "modes.shift_normalize_s": (incl["modes.shift_normalize"] * 1e-9, "s"),
        "config.parse_config_s": (incl["config.parse_config"] * 1e-9, "s"),
        "grid.save_field_text_calls": (calls["grid.save_field_text"], "count"),
        "grid.save_field_text_s": (incl["grid.save_field_text"] * 1e-9, "s"),
        "experiment.norms_to_csv_s": (incl["experiment.norms_to_csv"] * 1e-9, "s"),
        "grid.lp_norm_calls": (calls["grid.lp_norm"], "count"),
        "grid.norms_s": (sum(incl[n] for n in NORM_FNS) * 1e-9, "s"),
        "modes.antiderivative_s": (incl["modes.antiderivative"] * 1e-9, "s"),
        "experiment.analyze_record_s": (incl["experiment.analyze_record"] * 1e-9, "s"),
        "analysis.reports_to_json_s": (incl["analysis.reports_to_json"] * 1e-9, "s"),
        "trace.process_start_s": (process_start_ns * 1e-9, "s"),
        "trace.unaccounted_s": (
            sample.get("run_s", 0.0) - (process_start_ns + roots_ns) * 1e-9, "s"),
        "trace.coverage_frac": (
            1.0 - self_ns[top] / incl[top] if incl[top] else 0.0, "ratio"),
    }
    for name, unit in (("grid.snapshot_bytes", "B"), ("experiment.bytes_written", "B"),
                       ("profile.text_bytes", "B")):
        m[name] = (sample["counts"][name], unit)
    for hook in HOOK_NAMES:
        m[f"{hook}.self_s"] = (self_ns[hook] * 1e-9, "s")
        m[f"{hook}.errors"] = (errors[hook], "count")
    return m


def check_counts(samples: list[dict], path: Path) -> None:
    """Flag every run whose exact counts differ from the first run that had them.

    The reference persists in ``path`` across invocations on one source tree.
    """
    reference = json.loads(path.read_text()) if path.exists() else {}
    for s in samples:
        for key, value in sorted(s["counts"].items()):
            expected = reference.setdefault(key, value)
            if value != expected:
                s["problems"].append(f"{key} = {value!r}, an earlier run gave "
                                     f"{expected!r} (nondeterminism)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reference, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.monotonic()
    if not (SRC / "shocklab" / "cli.py").is_file():
        print(f"no shocklab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    cfg = json.loads((BENCH / "workloads" / f"{args.workload}.json").read_text())
    child = Child(args.workload, args.seed)
    child.dir.mkdir(parents=True, exist_ok=True)

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - t_start)

    if child.warm_up(remaining()) != 0:
        print("cannot import shocklab:\n" + child.log_tail(), file=sys.stderr)
        return 1

    # Start another run while it is expected to end less than half a run
    # past --seconds, so a run's measuring time stays close to --seconds.
    samples = []
    t_measure = time.monotonic()
    while True:
        n = {m: sum(s["mode"] == m for s in samples) for m in ("plain", "setup", "trace")}
        if args.trace:
            mode = "trace" if n["trace"] < n["plain"] else "plain"
            enough = n["trace"] >= MIN_TRACED and n["plain"] >= 1
        else:
            mode = "setup" if n["setup"] < SETUP_PER_FULL * n["plain"] else "plain"
            enough = n["plain"] >= MIN_UNTRACED
        same = [s["wall_s"] for s in samples if s["mode"] == mode]
        typical = median(same or [s["wall_s"] for s in samples] or [0.0])
        if enough and time.monotonic() - t_measure + 0.5 * typical >= args.seconds:
            break
        if samples and remaining() < 2.0 * max(s["wall_s"] for s in samples):
            break
        s = child.run(mode, remaining())
        s["problems"] = [] if s["exit_code"] == 0 else [
            f"exit code {s['exit_code']}: {child.log_tail()}"]
        s["counts"] = {}
        if mode != "setup":
            if s["exit_code"] == 0:
                s["problems"] += check_outputs(cfg, child.out)
            s["counts"] = output_sizes(child.out)
        if mode == "trace" and s["exit_code"] == 0:
            s["layers"] = layer_metrics(s)
            s["counts"].update({k: s["layers"][k][0] for k in EXACT_COUNTS})
        samples.append(s)
    shutil.rmtree(child.out, ignore_errors=True)

    key = f"{args.workload}-seed{args.seed}-{source_digest()}"
    check_counts([s for s in samples if not s["problems"]],
                 WORK / "counts" / f"{key}.json")
    ok = [s for s in samples if not s["problems"]]
    failed = len(samples) - len(ok)
    for s in samples:
        for problem in s["problems"]:
            print(f"run failed: {problem}", file=sys.stderr)
    not_measured = sorted({n for s in samples for n in s["not_measured"]})
    for name in not_measured:
        print(f"layer not measured: {name} (hook missing)", file=sys.stderr)

    plain = [s for s in ok if s["mode"] == "plain"]
    with_setup = [s for s in ok if s["mode"] != "trace"]
    traced = [s for s in ok if s["mode"] == "trace"]
    if not plain or (args.trace and not traced):
        print("no successful run to report", file=sys.stderr)
        return 1
    if args.trace:
        names = traced[0]["layers"]
        metrics = {n: {"value": median([s["layers"][n][0] for s in traced]),
                       "unit": names[n][1]} for n in names}
        # Each traced run follows an untraced one; pairing them keeps slow
        # phases of the machine out of the difference as far as possible.
        pairs = [t["run_s"] - u["run_s"] for u, t in zip(samples, samples[1:])
                 if t["mode"] == "trace" and not t["problems"] and not u["problems"]]
        metrics["trace.overhead_s"] = {"value": median(pairs), "unit": "s"}
    else:
        if any("setup_s" not in s for s in with_setup):
            print("setup_s not measured: the step hook never fired", file=sys.stderr)
            return 1
        metrics = {
            "wall_s": {"value": median([s["wall_s"] for s in plain]), "unit": "s"},
            "setup_s": {"value": median([s["setup_s"] for s in with_setup]),
                        "unit": "s"},
            "peak_rss_mb": {"value": median([s["peak_rss_mb"] for s in plain]),
                            "unit": "MB"},
        }

    fail_frac = failed / len(samples)
    n_setup = sum(s["mode"] == "setup" for s in samples)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(samples)} runs "
          f"({len(traced)} traced, {n_setup} set-up only), {failed} failed, "
          f"fail_frac {fail_frac:.3f} ratio", file=sys.stderr)
    for name, group in (("wall_s", plain), ("setup_s", with_setup),
                        ("peak_rss_mb", plain)):
        vals = [s[name] for s in group if name in s]
        if vals:
            print(f"  {name:12s} median {median(vals):10.4f}  min {min(vals):10.4f}  "
                  f"max {max(vals):10.4f}  n={len(vals)}", file=sys.stderr)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "raised"],
             "runs": [s["record"].get("spans", []) for s in traced]}))
    for s in samples:
        del s["record"]
        if "layers" in s:
            s["layers"] = {n: v for n, (v, _) in s["layers"].items()}
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "fail_frac": fail_frac, "metrics": metrics,
         "samples": samples}, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
