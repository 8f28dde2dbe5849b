"""Numerical laboratory for planar viscous shock waves on a periodic channel.

Builds Lax-admissible shocks of strictly convex scalar conservation laws,
integrates their viscous traveling-wave profiles, evolves perturbations on
R x T^(n-1) with a conservative method-of-lines scheme, and measures the
decay of the perturbation through mode decomposition, anti-derivatives,
and rate fits.
"""

from .analysis import (NormSeries, RateFit, analyze_record, area_bound,
                       fit_algebraic_rate, fit_exponential_rate, gn_ratio_monitor,
                       theorem_bound_check, verify_area_inequality)
from .config import (ExperimentConfig, GridSpec, PerturbationSpec, StepperSpec,
                     build_flux, emit_config, parse_config)
from .errors import ShockLabError
from .experiment import build_problem, run_experiment
from .flux import (FluxSpec, ShockData, burgers_flux, convex_quartic_flux,
                   polynomial_flux)
from .grid import ChannelGrid, Field, gradient, integrate, lp_norm
from .modes import antiderivative, nonzero_mode, shift_normalize, zero_mode
from .profile import (ShockProfile, TailReport, eval_profile, solve_profile,
                      verify_profile_bounds)
from .solver import (Problem, advance, advective_dt, build_perturbation,
                     cfl_dt, discrete_wave, nonzero_mode_dt, rhs,
                     run_1d_reference, run_simulation, simulate)

__version__ = "0.1.0"

__all__ = [
    "ChannelGrid", "ExperimentConfig", "Field", "FluxSpec", "GridSpec",
    "NormSeries", "PerturbationSpec", "Problem", "RateFit", "ShockData",
    "ShockLabError", "ShockProfile", "StepperSpec", "TailReport", "advance",
    "advective_dt", "analyze_record", "antiderivative", "area_bound", "build_flux",
    "build_perturbation", "build_problem", "burgers_flux", "cfl_dt",
    "convex_quartic_flux", "discrete_wave", "emit_config", "eval_profile",
    "fit_algebraic_rate", "fit_exponential_rate", "gn_ratio_monitor",
    "gradient", "integrate", "lp_norm", "nonzero_mode", "nonzero_mode_dt",
    "parse_config", "polynomial_flux", "rhs", "run_1d_reference",
    "run_experiment", "run_simulation", "shift_normalize", "simulate",
    "solve_profile", "theorem_bound_check", "verify_area_inequality",
    "verify_profile_bounds", "zero_mode",
]
