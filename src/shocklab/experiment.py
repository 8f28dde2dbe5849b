"""Every command's work, artifacts and exit code; `cli` only dispatches here.

`build_problem` makes the `solver.Problem` of a config, which simulate and
run evolve.  `run_profile`, `run_simulate` and `run_experiment` first check
the config with `validate_config`, which runs nowhere else, and log its
warning: a bad config raises ConfigValidationError before any file is
touched, whether the command came from `cli` or from Python.  Then they
delete every `ARTIFACTS` file, and every temporary file a write cut short
left (`LEFTOVERS`), in the config's output directory and echo the config to
config-echo.json, so the directory holds only what that command computed:
profile writes profile.txt and profile-tails.json; simulate norms.csv (one
column per recorded norm) and, with ``snapshots``, snapshots/field-*.txt;
run what simulate writes plus rates.json: the `analysis.analyze_record` of
the norms in the config's fit window, and the profile tails.  This module
holds the commands and their files only; what rates.json checks is decided
by the run's record in `analysis`.  `check_area` writes no file and prints
its report as JSON.  The profile's march step, and so the rows of
profile.txt, follow the config's grid (`_solve_profile`).
Every file goes through `_atomic_write`, a temp-then-rename, so readers
never see partial files; snapshots after t = 0 through a forked writer
process (`_SnapshotWriter`), whose every write has ended, or raised,
before the command returns.
A failed command keeps its output up to the failure: no norms.csv after a
failed set-up, the norms.csv rows and snapshots before a failed step or
monitor.

Exit codes: 0 success; 1 an unusable CSV or violated lemma hypotheses (a
constant that is not finite included) in check-area, and a bad config or an
unusable output directory (ConfigValidationError) before any work starts;
2 a failed profile solve or simulation, a perturbation that underflows on
the grid included; 3 a mass drift beyond its allowance, a failed analysis
(a run that ends inside the transient t < 1, profile tails too short to
fit), or a tail check or area inequality that does not pass.  A check the
run's data cannot carry is a skipped record in rates.json, not an exit 3.
Each failure but a check that does not pass logs one error line, under the
prefix the function's docstring names.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import json
import logging
import os
import pickle
import tempfile
import warnings

import numpy as np

from .analysis import (NormSeries, analyze_record, report_to_dict, reports_to_json,
                       verify_area_inequality)
from .config import ExperimentConfig, build_flux, emit_config, validate_config
from .errors import (ArgumentError, ConfigValidationError, HypothesisViolatedError,
                     MassDriftError, ShockLabError)
from .flux import ShockData
from .grid import ChannelGrid, Field, save_field_text
from .profile import (MIN_HALF_STEPS, ShockProfile, profile_to_text, solve_profile,
                      verify_profile_bounds)
from .solver import Problem, build_perturbation, simulate

log = logging.getLogger("shocklab")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_ANALYSIS = 3

# every file a command writes in cfg.out_dir besides config-echo.json
ARTIFACTS = ("norms.csv", "rates.json", "profile.txt", "profile-tails.json",
             "snapshots/field-*.txt")
# what a write cut short leaves there, a killed snapshot writer's included:
# `_atomic_write`'s temporary files
LEFTOVERS = (".tmp-*~", "snapshots/.tmp-*~")
# Profile half-length beyond the box; `simulate` then takes shifts up to ~PROFILE_PAD - 1.
PROFILE_PAD = 4.0
# Steps of the RK4 march that solves the profile ODE per grid cell h1.
PROFILE_STEPS_PER_CELL = 8
# The march's step is also at most this fraction of the faster tail's decay
# length 1/lambda, lambda = max(f1'(u_minus) - s, s - f1'(u_plus)): each
# tail's fit window then holds ~100 samples and RK4, stable up to
# step * lambda = 2.78, keeps its margin.
PROFILE_STEP_PER_DECAY_LENGTH = 0.2
# The tail cap takes the step no finer than this, so a stiff shock's march
# stays within 2e3 (half_length + PROFILE_PAD) samples, and one too stiff
# for it fails as StepTooLargeError rather than marching for long.
PROFILE_MIN_TAIL_STEP = 1e-3


def _grid(cfg: ExperimentConfig) -> ChannelGrid:
    """The config's grid; N' = 1 in 1-d."""
    g = cfg.grid
    return ChannelGrid(dimension=cfg.dimension, half_length=g.half_length, n1=g.n1,
                       nprime=g.nprime if cfg.dimension > 1 else 1)


def _solve_profile(cfg: ExperimentConfig, grid: ChannelGrid) -> ShockProfile:
    """The config's profile on grid.half_length + PROFILE_PAD, marched at
    h1/8 (h1 / PROFILE_STEPS_PER_CELL) of ``grid``, capped at a hundredth
    of that half-length (`profile.MIN_HALF_STEPS`), the largest step
    `solve_profile` takes, and at max(0.2/lambda, 1e-3)
    (PROFILE_STEP_PER_DECAY_LENGTH, PROFILE_MIN_TAIL_STEP), where lambda
    is the faster tail's decay rate.  The half-length cap binds only below
    n1 = 26; the tail cap where lambda > 0.8 (n1 - 1)/half_length, which is
    27 on the benchmark's 1024-point grids and 3.4 at n1 = 64 and
    half_length 15.  Burgers and the quartic shock +-1 have lambda 1 and 4/3.

    The march's 2 * round(half_length/step) + 1 samples, the rows of
    profile.txt, so scale with n1, not with half_length, which the default
    box makes grow as 1/strength: where h1/8 binds, about
    8 n1 (1 + PROFILE_PAD/half_length), 9,277 on a 1024-point grid at
    half_length 30, also for `shocklab profile`, which steps no grid.  The
    run reads the profile only for the Newton seed and the phase condition
    of `discrete_wave`, which finds the scheme's own wave from either seed:
    against a step of 1e-3, the wave of the Burgers and the quartic shock
    +-1 on a 1024-point grid moves by at most 2.7e-13.
    """
    shock = ShockData(build_flux(cfg), cfg.u_minus, cfg.u_plus)
    half_length = grid.half_length + PROFILE_PAD
    step = min(grid.h1 / PROFILE_STEPS_PER_CELL, half_length / MIN_HALF_STEPS)
    df1, s = shock.flux.df1, shock.speed
    rate = max(df1(shock.u_minus) - s, s - df1(shock.u_plus))
    if rate > 0.0:  # else not Lax-admissible, which solve_profile reports
        step = min(step, max(PROFILE_STEP_PER_DECAY_LENGTH / rate, PROFILE_MIN_TAIL_STEP))
    return solve_profile(shock, half_length, step)


def build_problem(cfg: ExperimentConfig) -> Problem:
    """The `solver.Problem` of ``cfg``; N' = 1 in 1-d.  It does not run
    `validate_config`: the core's checks reject a broken rule, here or in
    `simulate`, mostly as ArgumentError (the perturbation's as perturbation.*)."""
    st, pert = cfg.stepper, cfg.perturbation
    grid = _grid(cfg)
    profile = _solve_profile(cfg, grid)
    try:
        perturbation = build_perturbation(grid, pert.kind, pert.amplitude, pert.width,
                                          pert.seed)
    except ArgumentError as exc:
        raise ArgumentError([("perturbation." + name, rule)
                             for name, rule in exc.issues]) from exc
    return Problem(profile=profile, grid=grid, perturbation=perturbation,
                   t_final=st.t_final, dt_out=st.dt_out, p_list=tuple(cfg.p_list))


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
    """Check ``cfg`` with `validate_config`, a command's one check, and log
    its warnings; then delete every `ARTIFACTS` and `LEFTOVERS` file in
    cfg.out_dir and echo the config there.

    A bad config raises ConfigValidationError before the directory is
    touched; a directory that cannot be used raises it on out_dir.
    """
    for warning in validate_config(cfg):
        log.warning("%s", warning)
    try:
        for pattern in ARTIFACTS + LEFTOVERS:
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
        prof = _solve_profile(cfg, _grid(cfg))
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
    """One snapshot file, in-process or in the writer process."""
    _atomic_write(path, lambda tmp: save_field_text(fld, tmp))


def _snapshot_worker(directory, grid, fields, failures) -> None:
    """The writer process: write the k-th snapshot on ``fields`` as field-k.txt,
    k = 1, 2, ...; return at the end of ``fields``, or once it has pickled the
    exception that stopped it, a failed write's or any other, to ``failures``."""
    try:
        for k in itertools.count(1):
            t, values = np.empty(1), np.empty(grid.shape)
            # a snapshot cut short ends the stream too: its sender died mid-send
            if fields.readinto(t) < 8 or fields.readinto(values) < values.nbytes:
                return
            fld = Field(grid=grid, values=values, time=float(t[0]))
            _write_snapshot(os.path.join(directory, f"field-{k:05d}.txt"), fld)
    except Exception as exc:
        pickle.dump(exc, failures)


class _SnapshotWriter:
    """Writes snapshot k of a run as field-k.txt in ``directory``.

    Snapshot 0 is written in-process; later ones by one writer process,
    whose writes overlap stepping on a second core.  One suffices:
    `grid.format_e17` formats a nonzero-3d snapshot in ~3-6 ms, against
    ~14-22 ms of stepping per output, and two measured no faster.  The
    writer is `os.fork`ed, so it imports nothing again, at snapshot 1: a
    process that ends during set-up leaves none.  The stepping process
    starts no thread, and the writer calls no BLAS, whose idle threads a
    fork does not copy.  A failed `os.pipe` or `os.fork` closes the ends
    already made and raises.  Each snapshot crosses an `os.pipe` as the 8
    raw bytes of its time, then those of its values, through buffered files
    that complete partial reads and writes.  A failed write, or any other
    exception in the writer, is sent pickled on a second pipe and ends the
    writer; the next `write`, which finds the pipe broken, or else `close`
    waits for the writer and raises that exception, or ChildProcessError if
    it sent none and ended early or with an exit status other than 0.
    """

    def __init__(self, directory):
        self.directory, self.pid = directory, None

    def write(self, k: int, fld: Field) -> None:
        if k == 0:
            _write_snapshot(os.path.join(self.directory, "field-00000.txt"), fld)
            return
        if self.pid is None:
            self._start(fld.grid)
        try:
            self.fields.write(np.float64(fld.time))
            # a reduced run's fields are read-only broadcasts of a column
            self.fields.write(np.ascontiguousarray(fld.values))
            self.fields.flush()
        except BrokenPipeError:
            raise self._end(early=True) from None

    def _start(self, grid: ChannelGrid) -> None:
        ends = []
        try:
            ends += os.pipe()
            ends += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in ends:
                os.close(fd)
            raise
        worker_fields, fields, failures, worker_failures = ends
        if pid == 0:
            try:
                # a copy of the parent's end would keep ``fields`` from ending
                os.close(fields)
                os.close(failures)
                with open(worker_fields, "rb") as f, open(worker_failures, "wb") as e:
                    _snapshot_worker(self.directory, grid, f, e)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(worker_fields)
        os.close(worker_failures)
        self.pid, self.fields, self.failures = pid, open(fields, "wb"), open(failures, "rb")

    def _end(self, early: bool) -> Exception | None:
        """Close the pipe to the writer and wait for it: the exception it sent,
        or ChildProcessError if none and it ended ``early`` or not with 0."""
        pid, self.pid = self.pid, None
        with contextlib.suppress(BrokenPipeError):  # a snapshot the writer left unread
            self.fields.close()
        try:
            with self.failures:  # read before the wait: the writer's send may wait on it
                sent = self.failures.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if sent:
            return pickle.loads(sent)
        if early or code:
            return ChildProcessError(f"the snapshot writer ended with exit code "
                                     f"{code} before writing every snapshot")
        return None

    def close(self) -> None:
        if self.pid is not None and (error := self._end(early=False)) is not None:
            raise error


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

    2 or 3 when the simulation fails, as `stream_to_dir`, and 3 with one
    `analysis failed:` line when the analysis does.
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

    1 with one error line for an unreadable CSV or one with no data rows,
    samples that are not finite, whose times do not increase or that all
    lie before t_min, or parameters that violate the lemma hypotheses, 3
    when the inequality or a sampled hypothesis check fails.
    """
    try:
        with warnings.catch_warnings():
            # reported below, as no data rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # one row or one column stays 2-d, so each is told apart below
            data = np.loadtxt(csv_path, delimiter=",", comments="#", skiprows=skip_rows,
                              ndmin=2)
    except (OSError, ValueError) as exc:
        log.error("cannot read %s: %s", csv_path, exc)
        return EXIT_CONFIG
    if data.size == 0:
        log.error("no data rows in %s", csv_path)
        return EXIT_CONFIG
    if data.shape[1] < 2:
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
