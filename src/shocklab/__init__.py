"""Numerical laboratory for planar viscous shock waves on a periodic channel.

Builds Lax-admissible shocks of strictly convex scalar conservation laws,
integrates their viscous traveling-wave profiles, evolves perturbations on
R x T^(n-1) with a conservative method-of-lines scheme, and measures the
decay of the perturbation through mode decomposition, anti-derivatives,
and rate fits.
"""

from .analysis import (NormSeries, RateFit, area_bound, fit_algebraic_rate,
                       fit_exponential_rate, gn_ratio_monitor,
                       theorem_bound_check, verify_area_inequality)
from .config import (ExperimentConfig, GridSpec, PerturbationSpec, StepperSpec,
                     build_flux, emit_config, parse_config)
from .errors import ShockLabError
from .experiment import run_experiment
from .flux import (FluxSpec, ShockData, burgers_flux, check_convexity,
                   convex_quartic_flux, h_function, make_shock, polynomial_flux,
                   shock_speed, weight_bounds, weight_w)
from .grid import (ChannelGrid, Field, gradient, h1_seminorm, integrate,
                   lp_norm)
from .modes import antiderivative, nonzero_mode, shift_normalize, zero_mode
from .profile import (ShockProfile, TailReport, burgers_profile, eval_profile,
                      solve_profile, verify_profile_bounds)
from .solver import (SimulationRecord, advance, advective_dt, build_perturbation,
                     cfl_dt, discrete_wave, nonzero_mode_dt, rhs,
                     run_1d_reference, run_simulation, simulate)

__version__ = "0.1.0"

__all__ = [
    "ChannelGrid", "ExperimentConfig", "Field", "FluxSpec", "GridSpec",
    "NormSeries", "PerturbationSpec", "RateFit",
    "ShockData", "ShockLabError", "ShockProfile", "SimulationRecord",
    "StepperSpec", "TailReport", "advance", "advective_dt", "antiderivative",
    "area_bound", "build_flux", "build_perturbation", "burgers_flux",
    "burgers_profile", "cfl_dt", "check_convexity",
    "convex_quartic_flux", "discrete_wave", "emit_config", "eval_profile",
    "fit_algebraic_rate", "fit_exponential_rate", "gn_ratio_monitor",
    "gradient", "h1_seminorm", "h_function", "integrate", "lp_norm",
    "make_shock", "nonzero_mode", "nonzero_mode_dt", "parse_config",
    "polynomial_flux", "rhs", "run_1d_reference", "run_experiment",
    "run_simulation", "shift_normalize", "shock_speed", "simulate", "solve_profile",
    "theorem_bound_check", "verify_area_inequality", "verify_profile_bounds",
    "weight_bounds", "weight_w", "zero_mode",
]
