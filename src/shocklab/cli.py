"""Command-line entry point.

Subcommands; the first three delete every artifact any of them writes in the
output directory, then echo the config there (config-echo.json):
  profile     traveling-wave profile and its tail report: profile.txt and
              profile-tails.json
  simulate    evolve the perturbed shock: norms.csv and, with ``snapshots``,
              snapshots/field-*.txt; exit 3 on mass drift
  run         full pipeline, profile -> simulate -> analyze: what simulate
              writes plus rates.json
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
from .config import parse_config, validate_config
from .errors import (ConfigParseError, ConfigValidationError,
                     HypothesisViolatedError, ShockLabError)
from .experiment import (EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK, EXIT_SIMULATION,
                         prepare_out_dir, run_experiment, stream_to_dir, _atomic_write)
from .profile import profile_to_text, verify_profile_bounds
from .solver import solve_config_profile

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
    validate_config(cfg)  # again, for the overrides; parse_config logged its warnings
    return cfg


def _cmd_profile(args) -> int:
    cfg = _load(args)
    prepare_out_dir(cfg)
    try:
        prof = solve_config_profile(cfg)
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


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    prepare_out_dir(cfg)
    return stream_to_dir(cfg)[0]


def _cmd_run(args) -> int:
    return run_experiment(_load(args))


def _cmd_check_area(args) -> int:
    try:
        data = np.loadtxt(args.csv, delimiter=",", comments="#", skiprows=args.skip_rows)
    except (OSError, ValueError) as exc:
        log.error("cannot read %s: %s", args.csv, exc)
        return EXIT_CONFIG
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
