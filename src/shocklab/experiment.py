"""Full pipeline: profile, simulate, analyze, and write artifacts.

Each command first deletes every `ARTIFACTS` file in the config's output
directory and echoes its config to config-echo.json, so the directory holds
only what that command computed: `profile` writes profile.txt and
profile-tails.json; `simulate` norms.csv (one column per recorded norm) and,
with ``snapshots``, snapshots/field-*.txt; `run` what `simulate` writes plus
rates.json (fits, bound-check reports, profile tails).  Every file goes
through `_atomic_write`, a temp-then-rename, so readers never see partial
files.  A failed command keeps its output up to the failure: no norms.csv
after a failed set-up, the norms.csv rows and snapshots before a failed step
or monitor.
"""

from __future__ import annotations

import glob
import logging
import os
import tempfile

from .analysis import (NormSeries, fit_algebraic_rate, fit_exponential_rate,
                       gn_ratio_monitor, reports_to_json, theorem_bound_check)
from .config import ExperimentConfig, emit_config
from .errors import (MassDriftError, NonPositiveValueError, ShockLabError,
                     TooFewSamplesError)
from .grid import save_field_text
from .profile import ShockProfile, verify_profile_bounds
from .solver import simulate, solve_config_profile

log = logging.getLogger("shocklab")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_ANALYSIS = 3

# every file a command writes in cfg.out_dir besides config-echo.json
ARTIFACTS = ("norms.csv", "rates.json", "profile.txt", "profile-tails.json",
             "snapshots/field-*.txt")


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


def default_fit_window(cfg: ExperimentConfig) -> tuple[float, float]:
    """Last half of the run, never starting inside the initial transient t < 1."""
    t_final = cfg.stepper.t_final
    if t_final <= 1.0:
        raise TooFewSamplesError(
            f"t_final {t_final:g} leaves no samples after the transient t < 1; run longer")
    return (max(1.0, 0.5 * t_final), t_final)


def analyze_record(cfg: ExperimentConfig, norms: NormSeries) -> dict:
    """All rate fits and bound checks for one simulation's norm series."""
    window = cfg.fit_window or default_fit_window(cfg)
    reports: dict = {}
    for p in cfg.p_list:
        name = f"Phi_L{p:g}"
        try:
            reports[f"fit_{name}"] = fit_algebraic_rate(norms, name, window)
        except (TooFewSamplesError, NonPositiveValueError) as exc:
            log.warning("skipping %s fit: %s", name, exc)
        if p > 2.0:
            reports[f"bound_phi_L{p:g}"] = theorem_bound_check(norms, p, "phi-Lp")
            reports[f"bound_pert_L2_p{p:g}"] = theorem_bound_check(norms, p, "pert-L2")
            reports[f"bound_pert_Linf_p{p:g}"] = theorem_bound_check(norms, p, "pert-Linf")
            try:
                reports[f"gn_ratio_p{p:g}"] = gn_ratio_monitor(norms, p)
            except ShockLabError as exc:
                log.warning("skipping G-N monitor at p=%g: %s", p, exc)
    if cfg.dimension >= 2:
        try:
            reports["fit_nzmode_L2"] = fit_exponential_rate(norms, "nzmode_L2", window)
        except (TooFewSamplesError, NonPositiveValueError) as exc:
            log.warning("skipping non-zero-mode fit: %s", exc)
    return reports


def prepare_out_dir(cfg: ExperimentConfig) -> None:
    """Delete every `ARTIFACTS` file in cfg.out_dir, then echo the config there."""
    for pattern in ARTIFACTS:
        for path in glob.glob(os.path.join(glob.escape(cfg.out_dir), pattern)):
            os.unlink(path)
    _atomic_write(os.path.join(cfg.out_dir, "config-echo.json"),
                  lambda tmp: emit_config(cfg, tmp))


def stream_to_dir(cfg: ExperimentConfig,
                  prof: ShockProfile | None = None) -> tuple[int, NormSeries | None]:
    """Write the `simulate` stream into cfg.out_dir as it comes; (exit code, norms).

    A mass drift beyond its allowance gives 3 and one `mass conservation
    failed:` line, any other failure 2 and one `simulation failed:` line.
    """
    rows, code, snap_dir = [], EXIT_OK, os.path.join(cfg.out_dir, "snapshots")
    try:
        meta, stream = simulate(cfg, prof)
        for k, (fld, row) in enumerate(stream):
            if cfg.snapshots:
                _atomic_write(os.path.join(snap_dir, f"field-{k:05d}.txt"),
                              lambda tmp: save_field_text(fld, tmp))
            rows.append((fld.time, row))
    except MassDriftError as exc:
        log.error("mass conservation failed: %s", exc)
        code = EXIT_ANALYSIS
    except ShockLabError as exc:
        log.error("simulation failed: %s", exc)
        code = EXIT_SIMULATION
    if not rows:
        return code, None
    norms = NormSeries.from_rows(rows, meta)
    norms_to_csv(norms, os.path.join(cfg.out_dir, "norms.csv"))
    return code, norms


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the full pipeline, write artifacts into cfg.out_dir, return the exit code.

    Exit code 0 means the simulation finished with no blow-up, boundary
    leak or mass drift beyond its allowance and the analysis succeeded; 2
    flags a failed profile solve or simulation, 3 a mass drift beyond its
    allowance or an analysis failure, each with one error line in the log.
    (Config errors are raised before any work starts and map to exit code
    1 in the CLI.)
    """
    prepare_out_dir(cfg)
    try:
        prof = solve_config_profile(cfg)
    except ShockLabError as exc:
        log.error("simulation failed: %s", exc)
        return EXIT_SIMULATION
    code, norms = stream_to_dir(cfg, prof)
    if code != EXIT_OK:
        return code

    try:
        reports = analyze_record(cfg, norms)
        reports["profile_tails"] = verify_profile_bounds(prof)
        _atomic_write(os.path.join(cfg.out_dir, "rates.json"),
                      lambda tmp: reports_to_json(reports, tmp))
    except ShockLabError as exc:
        log.error("analysis failed: %s", exc)
        return EXIT_ANALYSIS

    for label, rep in reports.items():
        log.info("%s: %s", label, rep)
    return EXIT_OK
