"""One `shocklab run` in a fresh interpreter, timed from outside the package.

    python3 bench/child.py RECORD_JSON MODE -- <shocklab cli arguments>

The parent (run_bench.py) notes the spawn time and reaps the process.  This
script adds the timestamps only the child can take and writes them to
RECORD_JSON.  It never edits the package: it replaces functions in the
imported ``shocklab.*`` namespaces before calling ``shocklab.cli.main``.

MODE plain: one one-shot hook on the solver's step function stamps the start
of the first time step and then removes itself, so stepping runs unwrapped.

MODE setup: the same stamp, after which the process writes RECORD_JSON and
exits with code 0 without stepping.  It is a set-up sample that costs only
the set-up time.

MODE trace: every function in HOOKS is wrapped by a span recorder.  Spans are
kept in memory and written to RECORD_JSON when the run has ended, followed
by a micro-benchmark of the public RHS on the run's initial field.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

# (module, function) hook points, all public functions of shocklab modules.
# A name missing from the package is reported as "layer not measured".
HOOKS = (
    ("config", "parse_config"),
    ("config", "emit_config"),
    ("experiment", "run_experiment"),
    ("profile", "solve_profile"),
    ("profile", "eval_profile"),
    ("profile", "profile_to_text"),
    ("profile", "verify_profile_bounds"),
    ("solver", "run_simulation"),
    ("solver", "build_perturbation"),
    ("solver", "cfl_dt"),
    ("solver", "advance"),
    ("modes", "shift_normalize"),
    ("modes", "antiderivative"),
    ("grid", "lp_norm"),
    ("grid", "integrate"),
    ("grid", "gradient"),
    ("grid", "save_field_text"),
    ("experiment", "norms_to_csv"),
    ("experiment", "analyze_record"),
    ("analysis", "reports_to_json"),
)
# The step function: its first call marks the end of set-up.
STEP_HOOK = ("solver", "advance")
# Public RHS, micro-benchmarked on the field of the first step.
RHS_HOOK = ("solver", "rhs")
RHS_WARMUP_CALLS = 5
RHS_MIN_CALLS = 30
RHS_MIN_SECONDS = 0.3
MODES = ("plain", "setup", "trace")


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "shocklab" or name.startswith("shocklab."))]


def _lookup(module: str, name: str):
    fn = getattr(sys.modules.get(f"shocklab.{module}"), name, None)
    return fn if callable(fn) else None


def _replace(orig, new) -> list:
    """Point every shocklab namespace that holds ``orig`` at ``new``."""
    patched = []
    for mod in _namespaces():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                patched.append((mod, attr))
    return patched


class Tracer:
    """Span recorder: [name, start_ns, end_ns, parent index, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.first_call: dict[str, inspect.BoundArguments] = {}

    def wrap(self, name: str, fn):
        spans, stack, first = self.spans, self._stack, self.first_call
        signature = inspect.signature(fn)
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name not in first:
                first[name] = signature.bind(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def _write(record: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


def _install_first_step_stamp(record: dict, exit_to: str | None) -> bool:
    """Stamp the first step; with ``exit_to``, write the record there and exit."""
    orig = _lookup(*STEP_HOOK)
    if orig is None:
        return False
    patched = []

    @functools.wraps(orig)
    def stamp(*args, **kwargs):
        record["first_step_ns"] = time.monotonic_ns()
        if exit_to is not None:
            _write(record, exit_to)
            os._exit(0)
        for mod, attr in patched:
            setattr(mod, attr, orig)
        return orig(*args, **kwargs)

    patched.extend(_replace(orig, stamp))
    return True


def _rhs_microbench(tracer: Tracer, record: dict) -> None:
    """Median time of the public RHS on the field the first step received."""
    rhs = _lookup(*RHS_HOOK)
    step = tracer.first_call.get(".".join(STEP_HOOK))
    if rhs is None or step is None:
        return
    args = step.arguments
    if not {"fld", "shock", "flux"} <= args.keys():
        record["not_measured"].append(".".join(RHS_HOOK))
        return
    fld, shock, flux = args["fld"], args["shock"], args["flux"]
    llf = args.get("llf", False)
    for _ in range(RHS_WARMUP_CALLS):
        rhs(fld, shock, flux, llf)
    times = []
    t_end = time.monotonic() + RHS_MIN_SECONDS
    while len(times) < RHS_MIN_CALLS or time.monotonic() < t_end:
        t0 = time.perf_counter_ns()
        rhs(fld, shock, flux, llf)
        times.append(time.perf_counter_ns() - t0)
    record["rhs_ns"] = statistics.median(times)
    record["cells"] = int(fld.values.size)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    record_path, mode, cli_args = argv[0], argv[1], argv[3:]
    if mode not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    import shocklab.cli  # imports every shocklab module

    record: dict = {"first_step_ns": None, "not_measured": []}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        for module, name in HOOKS + (RHS_HOOK,):
            if _lookup(module, name) is None:
                record["not_measured"].append(f"{module}.{name}")
        for module, name in HOOKS:
            orig = _lookup(module, name)
            if orig is not None:
                _replace(orig, tracer.wrap(f"{module}.{name}", orig))
    elif not _install_first_step_stamp(
            record, record_path if mode == "setup" else None):
        record["not_measured"].append(".".join(STEP_HOOK))

    code = shocklab.cli.main(cli_args)
    record["run_end_ns"] = time.monotonic_ns()
    if tracer is not None:
        step_name = ".".join(STEP_HOOK)
        record["spans"] = tracer.spans
        if step_name in tracer.first_call:
            record["dt"] = float(tracer.first_call[step_name].arguments["dt"])
            record["first_step_ns"] = next(
                s[1] for s in tracer.spans if s[0] == step_name)
        if code == 0:
            _rhs_microbench(tracer, record)
    _write(record, record_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
