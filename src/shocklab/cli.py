"""Command-line entry point.

Subcommands:
  profile     construct the traveling-wave profile and its tail report
  simulate    evolve the perturbed shock, writing norms.csv only
  run         full pipeline: profile -> simulate -> analyze
  check-area  area-inequality verifier on an external (t, f) CSV
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .analysis import report_to_dict, reports_to_json, verify_area_inequality
from .config import parse_config
from .errors import (ConfigParseError, ConfigValidationError,
                     HypothesisViolatedError, ShockLabError)
from .experiment import (EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK, EXIT_SIMULATION,
                         norms_to_csv, run_experiment, _atomic_write)
from .flux import make_shock
from .profile import profile_to_text, solve_profile, verify_profile_bounds
from .solver import PROFILE_PAD, run_simulation
from .config import build_flux, emit_config

log = logging.getLogger("shocklab")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the perturbation seed")
    parser.add_argument("--quiet", action="store_true", help="suppress info logging")


def _load(args):
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.perturbation.seed = args.seed
    return cfg


def _cmd_profile(args) -> int:
    cfg = _load(args)
    flux = build_flux(cfg)
    shock = make_shock(flux, cfg.u_minus, cfg.u_plus)
    prof = solve_profile(shock, cfg.grid.half_length + PROFILE_PAD, cfg.profile_step)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "profile.txt"),
                  lambda tmp: profile_to_text(prof, tmp))
    report = verify_profile_bounds(prof)
    reports_to_json({"profile_tails": report},
                    os.path.join(cfg.out_dir, "profile-tails.json"))
    log.info("tail rates %.6g / %.6g, smallest K %.6g",
             report.rate_left, report.rate_right, report.k_smallest)
    return EXIT_OK if report.passed else EXIT_ANALYSIS


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "config-echo.json"),
                  lambda tmp: emit_config(cfg, tmp))
    try:
        record = run_simulation(cfg)
    except ShockLabError as exc:
        log.error("simulation failed: %s", exc)
        return EXIT_SIMULATION
    norms_to_csv(record.norms, os.path.join(cfg.out_dir, "norms.csv"))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, quiet=args.quiet)
    return result.exit_code


def _cmd_check_area(args) -> int:
    data = np.loadtxt(args.csv, delimiter=",", comments="#", skiprows=args.skip_rows)
    if data.ndim != 2 or data.shape[1] < 2:
        log.error("expected a CSV with (t, f) columns")
        return EXIT_CONFIG
    try:
        report = verify_area_inequality(data[:, :2], args.c0, args.c1, args.alpha,
                                        args.beta, args.gamma, args.t_min)
    except HypothesisViolatedError as exc:
        log.error("parameters violate the lemma hypotheses: %s", exc)
        return EXIT_CONFIG
    print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    return EXIT_OK if report.passed and not report.hypothesis_violations else EXIT_ANALYSIS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shocklab",
        description="Planar viscous shock laboratory for scalar conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (("profile", _cmd_profile, "traveling-wave profile only"),
                          ("simulate", _cmd_simulate, "time evolution, no analysis"),
                          ("run", _cmd_run, "full pipeline with analysis")):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("check-area", help="area-inequality verifier on a CSV")
    p.add_argument("--csv", required=True, help="CSV of (t, f) samples")
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--t-min", dest="t_min", type=float, default=1.0)
    p.add_argument("--skip-rows", dest="skip_rows", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_check_area)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s")
    try:
        return args.fn(args)
    except (ConfigParseError, ConfigValidationError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
