"""Every command's work, artifacts and exit code; `cli` only dispatches here.

`build_problem` makes the `solver.Problem` of a config, which simulate and
run evolve.  `run_profile`, `run_simulate` and `run_experiment` first
delete every `ARTIFACTS` file in the config's output directory and echo
the config to config-echo.json, so the directory holds only what that
command computed: profile writes profile.txt and profile-tails.json;
simulate norms.csv (one column per recorded norm) and, with ``snapshots``,
snapshots/field-*.txt; run what simulate writes plus rates.json: the
`analysis.analyze_record` of the norms in the config's fit window, and the
profile tails.  This module holds the commands and their files only; what
rates.json checks is decided by the run's record in `analysis`.
`check_area` writes no file and prints its report as JSON.
Every file goes through `_atomic_write`, a temp-then-rename, so readers
never see partial files.  The t = 0 snapshot is written in-process; the
later ones by one forked worker process (`_SnapshotWriter`), which writes
them while the run keeps stepping.  Every snapshot write has ended, and a
failed one has raised, before the command returns.
A failed command keeps its output up to the failure: no norms.csv after a
failed set-up, the norms.csv rows and snapshots before a failed step or
monitor.

Exit codes: 0 success; 1 an unusable CSV or violated lemma hypotheses
(a constant that is not finite included) in check-area, and a bad config
or an unusable output directory, in `cli` before any work starts; 2 a
failed profile solve or simulation, a perturbation that underflows on the
grid included; 3 a mass drift beyond its allowance, a failed analysis (a
run that ends inside the transient t < 1, profile tails too short to fit),
or a tail check or area inequality that does not pass.  A check the run's
data cannot carry is a skipped record in rates.json, not an exit 3.
Each failure but a check that does not pass logs one error line, under the
prefix the function's docstring names.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import tempfile
from collections import deque

import numpy as np

from .analysis import (NormSeries, analyze_record, report_to_dict, reports_to_json,
                       verify_area_inequality)
from .config import ExperimentConfig, build_flux, emit_config, validate_config
from .errors import (ConfigValidationError, HypothesisViolatedError, MassDriftError,
                     ShockLabError)
from .flux import ShockData
from .grid import ChannelGrid, Field, save_field_text
from .profile import ShockProfile, profile_to_text, solve_profile, verify_profile_bounds
from .solver import PROFILE_PAD, Problem, build_perturbation, simulate

log = logging.getLogger("shocklab")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_ANALYSIS = 3

# every file a command writes in cfg.out_dir besides config-echo.json
ARTIFACTS = ("norms.csv", "rates.json", "profile.txt", "profile-tails.json",
             "snapshots/field-*.txt")
# Step of the RK4 march that solves the profile ODE.
PROFILE_STEP = 1e-3


def _solve_profile(cfg: ExperimentConfig) -> ShockProfile:
    """The config's profile on half_length + PROFILE_PAD, at PROFILE_STEP."""
    shock = ShockData(build_flux(cfg), cfg.u_minus, cfg.u_plus)
    return solve_profile(shock, cfg.grid.half_length + PROFILE_PAD, PROFILE_STEP)


def build_problem(cfg: ExperimentConfig) -> Problem:
    """The `solver.Problem` of ``cfg``, after `validate_config`; N' = 1 in 1-d."""
    validate_config(cfg)
    g, st, pert = cfg.grid, cfg.stepper, cfg.perturbation
    grid = ChannelGrid(dimension=cfg.dimension, half_length=g.half_length, n1=g.n1,
                       nprime=g.nprime if cfg.dimension > 1 else 1)
    return Problem(profile=_solve_profile(cfg), grid=grid,
                   perturbation=build_perturbation(grid, pert.kind, pert.amplitude,
                                                   pert.width, pert.seed),
                   t_final=st.t_final, dt_out=st.dt_out, cfl_safety=st.cfl_safety,
                   llf=st.llf, p_list=tuple(cfg.p_list))


def _atomic_write(path, writer) -> None:
    """Write via a temp file in the same directory, made if missing, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    # the mode a plain open() gives, 0666 less the umask, not mkstemp's 0600
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def norms_to_csv(norms: NormSeries, path) -> None:
    """CSV with a header row and 17-significant-digit decimals."""
    names = sorted(norms.channels)

    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write("t," + ",".join(names) + "\n")
            for k, t in enumerate(norms.times):
                row = [f"{t:.16e}"] + [f"{norms.channels[n][k]:.16e}" for n in names]
                fh.write(",".join(row) + "\n")

    _atomic_write(path, write)


def _prepare_out_dir(cfg: ExperimentConfig) -> None:
    """Delete every `ARTIFACTS` file in cfg.out_dir, then echo the config there.

    A directory that cannot be used raises ConfigValidationError on out_dir.
    """
    try:
        for pattern in ARTIFACTS:
            for path in glob.glob(os.path.join(glob.escape(cfg.out_dir), pattern)):
                os.unlink(path)
        _atomic_write(os.path.join(cfg.out_dir, "config-echo.json"),
                      lambda tmp: emit_config(cfg, tmp))
    except OSError as exc:
        raise ConfigValidationError(
            [("out_dir", f"cannot use {cfg.out_dir} as the output directory: "
                         f"{exc.strerror}")]) from exc


def run_profile(cfg: ExperimentConfig) -> int:
    """The profile command: profile.txt and profile-tails.json in cfg.out_dir.

    2 with one `profile failed:` line when the solve fails, 3 with one
    `analysis failed:` line when the tails cannot be fitted and 3 when the
    tail check does not pass.
    """
    _prepare_out_dir(cfg)
    try:
        prof = _solve_profile(cfg)
    except ShockLabError as exc:
        log.error("profile failed: %s", exc)
        return EXIT_SIMULATION
    _atomic_write(os.path.join(cfg.out_dir, "profile.txt"),
                  lambda tmp: profile_to_text(prof, tmp))
    try:
        report = verify_profile_bounds(prof)
    except ShockLabError as exc:
        log.error("analysis failed: %s", exc)
        return EXIT_ANALYSIS
    _atomic_write(os.path.join(cfg.out_dir, "profile-tails.json"),
                  lambda tmp: reports_to_json({"profile_tails": report}, tmp))
    log.info("tail rates %.6g / %.6g, smallest K %.6g",
             report.rate_left, report.rate_right, report.k_smallest)
    return EXIT_OK if report.passed else EXIT_ANALYSIS


def _write_snapshot(path, fld: Field) -> None:
    """One snapshot file; a module-level function, so a worker can run it."""
    _atomic_write(path, lambda tmp: save_field_text(fld, tmp))


class _SnapshotWriter:
    """Writes snapshot k of a run as field-k.txt in ``directory``.

    Snapshot 0 is written in-process.  Later ones go to one forked worker,
    so that their writes overlap stepping on a second core.  One suffices:
    `grid.format_e17` formats a nonzero-3d snapshot in ~5 ms, against
    ~25 ms of stepping per output, and two workers measured no faster.
    The worker starts at snapshot 1, after the first step: a process that
    ends during set-up leaves no worker behind.  At most two writes are in
    flight, one running and one queued, which bounds the fields held for
    them; `close` waits for every write and re-raises the first that
    failed.  The worker is forked, not spawned: a spawned one would import
    numpy and the package again.  The pool forks it before it starts its
    own threads, and the worker calls no BLAS, whose idle threads are not
    copied.
    """

    # writes in flight before `write` waits for the oldest
    IN_FLIGHT = 2

    def __init__(self, directory):
        self.directory, self.pool, self.pending = directory, None, deque()

    def write(self, k: int, fld: Field) -> None:
        path = os.path.join(self.directory, f"field-{k:05d}.txt")
        if k == 0:
            _write_snapshot(path, fld)
            return
        if self.pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self.pool = ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork"))
        self.pending.append(self.pool.submit(_write_snapshot, path, fld))
        if len(self.pending) > self.IN_FLIGHT:
            self.pending.popleft().result()

    def close(self) -> None:
        try:
            while self.pending:
                self.pending.popleft().result()
        finally:
            if self.pool is not None:
                self.pool.shutdown()


def run_simulate(cfg: ExperimentConfig) -> int:
    """The simulate command: norms.csv and the snapshots, no analysis."""
    _prepare_out_dir(cfg)
    return stream_to_dir(cfg)[0]


def stream_to_dir(cfg: ExperimentConfig
                  ) -> tuple[int, Problem | None, NormSeries | None]:
    """Build the `build_problem` of ``cfg`` and write its `simulate` stream
    into cfg.out_dir as it comes; (exit code, problem, norms).

    A mass drift beyond its allowance gives 3 and one `mass conservation
    failed:` line, any other failure, a failed profile solve included, 2
    and one `simulation failed:` line.
    """
    rows, code, problem = [], EXIT_OK, None
    snapshots = _SnapshotWriter(os.path.join(cfg.out_dir, "snapshots"))
    try:
        problem = build_problem(cfg)
        meta, stream = simulate(problem)
        for k, (fld, row) in enumerate(stream):
            if cfg.snapshots:
                snapshots.write(k, fld)
            rows.append((fld.time, row))
    except MassDriftError as exc:
        log.error("mass conservation failed: %s", exc)
        code = EXIT_ANALYSIS
    except ShockLabError as exc:
        log.error("simulation failed: %s", exc)
        code = EXIT_SIMULATION
    finally:
        snapshots.close()
    if not rows:
        return code, problem, None
    norms = NormSeries.from_rows(rows, meta)
    norms_to_csv(norms, os.path.join(cfg.out_dir, "norms.csv"))
    return code, problem, norms


def run_experiment(cfg: ExperimentConfig) -> int:
    """The run command: profile, simulate and analyze into cfg.out_dir.

    Exit code 0 means the simulation finished with no blow-up, boundary
    leak or mass drift beyond its allowance and the analysis succeeded; 2
    flags a failed profile solve or simulation, 3 a mass drift beyond its
    allowance (both as `stream_to_dir`) or an analysis failure (one
    `analysis failed:` line).
    """
    _prepare_out_dir(cfg)
    code, problem, norms = stream_to_dir(cfg)
    if code != EXIT_OK:
        return code

    try:
        reports = analyze_record(norms, cfg.fit_window)
        reports["profile_tails"] = verify_profile_bounds(problem.profile)
        _atomic_write(os.path.join(cfg.out_dir, "rates.json"),
                      lambda tmp: reports_to_json(reports, tmp))
    except ShockLabError as exc:
        log.error("analysis failed: %s", exc)
        return EXIT_ANALYSIS

    for label, rep in reports.items():
        log.info("%s: %s", label, rep)
    return EXIT_OK


def check_area(csv_path, c0: float, c1: float, alpha: float, beta: float,
               gamma: float, t_min: float, skip_rows: int) -> int:
    """The check-area command: the area inequality on the first two (t, f)
    columns of a CSV, its report printed as JSON.

    1 with one error line for an unreadable CSV, samples that are not
    finite, whose times do not increase or that all lie before t_min, or
    parameters that violate the lemma hypotheses, 3 when the inequality or
    a sampled hypothesis check fails.
    """
    try:
        data = np.loadtxt(csv_path, delimiter=",", comments="#", skiprows=skip_rows)
    except (OSError, ValueError) as exc:
        log.error("cannot read %s: %s", csv_path, exc)
        return EXIT_CONFIG
    if data.ndim != 2 or data.shape[1] < 2:
        log.error("expected (t, f) columns in %s", csv_path)
        return EXIT_CONFIG
    try:
        report = verify_area_inequality(data[:, :2], c0, c1, alpha, beta, gamma, t_min)
    except HypothesisViolatedError as exc:
        log.error("parameters violate the lemma hypotheses: %s", exc)
        return EXIT_CONFIG
    except ValueError as exc:
        log.error("unusable samples in %s: %s", csv_path, exc)
        return EXIT_CONFIG
    print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    return EXIT_OK if report.passed and not report.hypothesis_violations else EXIT_ANALYSIS
