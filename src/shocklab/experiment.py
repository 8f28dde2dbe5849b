"""Full pipeline: profile, simulate, analyze, and write artifacts.

Artifacts land in the config's output directory: norms.csv (one column per
recorded norm), rates.json (fits and bound-check reports), profile.txt,
config-echo.json, and optional field snapshots.  File writes go through a
temp-then-rename so readers never see partial files.
"""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass, field

from .analysis import (NormSeries, fit_algebraic_rate, fit_exponential_rate,
                       gn_ratio_monitor, reports_to_json, theorem_bound_check)
from .config import ExperimentConfig, build_flux, emit_config
from .errors import (BlowupError, BoundaryLeakError, ShockLabError,
                     TooFewSamplesError, NonPositiveValueError)
from .flux import make_shock
from .grid import save_field_text
from .profile import profile_to_text, solve_profile, verify_profile_bounds
from .solver import PROFILE_PAD, SimulationRecord, run_simulation

log = logging.getLogger("shocklab")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_ANALYSIS = 3

# Permitted mass drift grows linearly in time: |drift| <= this * (1 + t).
MASS_DRIFT_RATE = 1e-8


def _atomic_write(path, writer) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
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
    return (max(1.0, 0.5 * t_final), t_final)


def analyze_record(cfg: ExperimentConfig, record: SimulationRecord) -> dict:
    """All rate fits and bound checks for one simulation record."""
    norms = record.norms
    window = cfg.fit_window or default_fit_window(cfg)
    t_start = max(1.0, float(norms.times[0]))
    reports: dict = {}
    for p in cfg.p_list:
        name = f"Phi_L{p:g}"
        try:
            reports[f"fit_{name}"] = fit_algebraic_rate(norms, name, window)
        except (TooFewSamplesError, NonPositiveValueError) as exc:
            log.warning("skipping %s fit: %s", name, exc)
        if p > 2.0:
            reports[f"bound_phi_L{p:g}"] = theorem_bound_check(
                norms, p, "phi-Lp", t_start=t_start)
            reports[f"bound_pert_L2_p{p:g}"] = theorem_bound_check(
                norms, p, "pert-L2", t_start=t_start)
            reports[f"bound_pert_Linf_p{p:g}"] = theorem_bound_check(
                norms, p, "pert-Linf", t_start=t_start)
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


@dataclass
class ExperimentResult:
    exit_code: int
    record: SimulationRecord | None = None
    reports: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def run_experiment(cfg: ExperimentConfig, quiet: bool = False) -> ExperimentResult:
    """Run the full pipeline and write artifacts into cfg.out_dir.

    Exit code 0 means the simulation finished with no blow-up or boundary
    leak and the conservation monitor stayed within tolerance; 2 flags a
    simulation failure, 3 an analysis failure.  (Config errors are raised
    before any work starts and map to exit code 1 in the CLI.)
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "config-echo.json"),
                  lambda tmp: emit_config(cfg, tmp))

    flux = build_flux(cfg)
    shock = make_shock(flux, cfg.u_minus, cfg.u_plus)
    prof = solve_profile(shock, cfg.grid.half_length + PROFILE_PAD, cfg.profile_step)
    _atomic_write(os.path.join(cfg.out_dir, "profile.txt"),
                  lambda tmp: profile_to_text(prof, tmp))

    result = ExperimentResult(exit_code=EXIT_OK)
    try:
        record = run_simulation(cfg, prof)
    except (BlowupError, BoundaryLeakError) as exc:
        log.error("simulation failed: %s", exc)
        result.exit_code = EXIT_SIMULATION
        result.failures.append(str(exc))
        return result
    result.record = record
    norms_to_csv(record.norms, os.path.join(cfg.out_dir, "norms.csv"))

    if cfg.snapshots:
        snap_dir = os.path.join(cfg.out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        for k, fld in enumerate(record.snapshots):
            save_field_text(fld, os.path.join(snap_dir, f"field-{k:05d}.txt"))

    try:
        reports = analyze_record(cfg, record)
        reports["profile_tails"] = verify_profile_bounds(prof)
        result.reports = reports
        reports_to_json(reports, os.path.join(cfg.out_dir, "rates.json"))
    except ShockLabError as exc:
        log.error("analysis failed: %s", exc)
        result.exit_code = EXIT_ANALYSIS
        result.failures.append(str(exc))
        return result

    drift = record.norms.channels["mass_drift"]
    allowed = MASS_DRIFT_RATE * (1.0 + record.norms.times)
    if bool((drift > allowed).any()):
        result.failures.append("mass conservation drift exceeded tolerance")
        result.exit_code = EXIT_ANALYSIS

    if not quiet:
        for label, rep in result.reports.items():
            log.info("%s: %s", label, rep)
    return result
