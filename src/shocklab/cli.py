"""Command-line entry point: parses the arguments and dispatches to `experiment`.

Subcommands profile, simulate, run and check-area; `experiment` documents
what each writes and its exit codes.  A config that does not parse or
validate, or an output directory that cannot be used, exits 1 with one
error line, before any work starts.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import experiment
from .config import parse_config
from .errors import ConfigParseError, ConfigValidationError

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shocklab",
        description="Planar viscous shock laboratory for scalar conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command, doc in (
            ("profile", experiment.run_profile, "traveling-wave profile only"),
            ("simulate", experiment.run_simulate, "time evolution, no analysis"),
            ("run", experiment.run_experiment, "full pipeline with analysis")):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(fn=lambda args, command=command: command(_load(args)))

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
    p.set_defaults(fn=lambda args: experiment.check_area(
        args.csv, args.c0, args.c1, args.alpha, args.beta, args.gamma,
        args.t_min, args.skip_rows))

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s")
    try:
        return args.fn(args)
    except (ConfigParseError, ConfigValidationError) as exc:
        log.error("%s", exc)
        return experiment.EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
