"""Viscous shock profile: ODE integration, closed-form oracle, tail checks.

The profile solves the first integral of the traveling-wave equation,

    U'(xi) = f1(U) - s U - (f1(u_plus) - s u_plus),

whose right-hand side is the scalar h(U) of the flux module.  Both end
states are degenerate fixed points, so integration starts from the
midpoint anchor U(0) = (u_minus + u_plus)/2 and marches outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .errors import (NotAdmissibleError, OutOfRangeError, StepTooLargeError,
                     TailTooShortError, WrongFluxError)
from .flux import ShockData

# Default clamp distance, as a fraction of the shock strength.
CLAMP_TOL_FRACTION = 1e-14
# Tail fitting starts where |U - u_pm| drops below strength/10 and stops
# where the clamp floor would contaminate the log-linear fit.
TAIL_ONSET_FRACTION = 0.1
TAIL_FLOOR_FRACTION = 1e-10
MIN_TAIL_SAMPLES = 20


@dataclass(frozen=True)
class ShockProfile:
    """Sampled traveling wave U on a uniform xi grid.

    ``du`` holds U' recomputed from the ODE right-hand side at the sampled
    values, so the samples satisfy the first integral exactly.
    """

    shock: ShockData
    xi: np.ndarray
    u: np.ndarray
    du: np.ndarray
    step: float

    @property
    def _spline(self) -> CubicHermiteSpline:
        # Built on each use, not cached: its coefficients are several times
        # the size of the samples and would live as long as the profile.
        return CubicHermiteSpline(self.xi, self.u, self.du)

    @property
    def half_length(self) -> float:
        return float(self.xi[-1])


def _ode_rhs(shock: ShockData):
    """First-integral right-hand side as a plain-float callable."""
    f1 = shock.flux.f1
    s = shock.speed
    anchor = f1(shock.u_plus) - s * shock.u_plus

    def g(u):
        return f1(u) - s * u - anchor

    return g


def solve_profile(shock: ShockData, half_length: float, step: float,
                  clamp_tol: float | None = None) -> ShockProfile:
    """Integrate the profile ODE with classical RK4 from the midpoint anchor.

    Marches forward to +half_length and backward to -half_length on a
    uniform grid of spacing ``step``.  Values are clamped into the open
    interval between the end states once they come within ``clamp_tol``
    of an end state (default 1e-14 * strength), which stops finite
    arithmetic from overshooting the fixed points.

    Raises NotAdmissibleError for a non-Lax shock and StepTooLargeError
    if the march ever loses monotonicity or escapes the state interval.
    """
    if not shock.admissible:
        raise NotAdmissibleError("profile exists only for Lax-admissible shocks")
    if half_length <= 0.0:
        raise ValueError("half_length must be positive")
    if not 0.0 < step <= half_length / 100.0:
        raise ValueError("need 0 < step <= half_length/100")
    if clamp_tol is None:
        clamp_tol = CLAMP_TOL_FRACTION * shock.strength

    g = _ode_rhs(shock)
    n_half = int(round(half_length / step))
    u_hi = shock.u_minus        # left state, top of the decreasing profile
    u_lo = shock.u_plus
    lo_clamp = u_lo + clamp_tol
    hi_clamp = u_hi - clamp_tol

    def rk4_step(u, h):
        k1 = g(u)
        k2 = g(u + 0.5 * h * k1)
        k3 = g(u + 0.5 * h * k2)
        k4 = g(u + h * k3)
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def march(h):
        u = 0.5 * (shock.u_minus + shock.u_plus)
        out = [u]
        for _ in range(n_half):
            un = rk4_step(u, h)
            if h > 0.0:
                if un > u:
                    raise StepTooLargeError("monotonicity lost on the forward march")
                if un < u_lo - 10.0 * clamp_tol:
                    raise StepTooLargeError("overshoot past u_plus; reduce step")
                un = max(un, lo_clamp)
            else:
                if un < u:
                    raise StepTooLargeError("monotonicity lost on the backward march")
                if un > u_hi + 10.0 * clamp_tol:
                    raise StepTooLargeError("overshoot past u_minus; reduce step")
                un = min(un, hi_clamp)
            out.append(un)
            u = un
        return out

    fwd = march(step)
    bwd = march(-step)
    u_samples = np.array(bwd[::-1] + fwd[1:], dtype=float)
    xi = step * np.arange(-n_half, n_half + 1, dtype=float)
    du = np.asarray(g(u_samples), dtype=float)
    return ShockProfile(shock=shock, xi=xi, u=u_samples, du=du, step=step)


def burgers_profile(shock: ShockData, xi):
    """Closed-form Burgers profile, the oracle for solve_profile.

    U(xi) = s - (d/2) tanh(d xi / 4) and U'(xi) = -(d^2/8) sech^2(d xi / 4)
    with d the shock strength.  Accepts scalars or arrays.
    """
    if shock.flux.name != "burgers":
        raise WrongFluxError(f"closed form is for burgers, not {shock.flux.name!r}")
    d = shock.strength
    arg = d * np.asarray(xi, dtype=float) / 4.0
    u = shock.speed - (d / 2.0) * np.tanh(arg)
    du = -(d * d / 8.0) / np.cosh(arg) ** 2
    if np.ndim(xi) == 0:
        return float(u), float(du)
    return u, du


def eval_profile(profile: ShockProfile, xi, extend: bool = False):
    """Evaluate (U, U') at xi by piecewise-cubic Hermite interpolation.

    The interpolant uses the exact ODE slopes at the nodes and U' is
    recomputed from the ODE right-hand side at the interpolated value, so
    the first integral is preserved exactly.  Outside the sampled range,
    ``extend`` returns the end states with zero slope; otherwise the call
    raises OutOfRangeError.
    """
    xi_arr = np.asarray(xi, dtype=float)
    lo, hi = profile.xi[0], profile.xi[-1]
    below = xi_arr < lo
    above = xi_arr > hi
    outside = below | above
    if np.any(outside) and not extend:
        raise OutOfRangeError(f"xi outside sampled range [{lo}, {hi}]")

    shock = profile.shock
    u = profile._spline(np.clip(xi_arr, lo, hi))
    # Hermite interpolation of monotone data can overshoot only at round-off
    # level here; clip to the closed state interval to keep h(U) one-signed.
    span_lo, span_hi = shock.u_span
    u = np.clip(u, span_lo, span_hi)
    g = _ode_rhs(shock)
    du = g(u)
    if extend:
        u = np.where(below, shock.u_minus, np.where(above, shock.u_plus, u))
        du = np.where(outside, 0.0, du)
    if np.ndim(xi) == 0:
        return float(u), float(du)
    return u, du


@dataclass(frozen=True)
class TailReport:
    """Fitted tail rates of log|U'| and the pointwise |U''| <= K |U'| check."""

    rate_left: float
    rate_right: float
    residual_left: float
    residual_right: float
    onset_left: float
    onset_right: float
    n_left: int
    n_right: int
    k_smallest: float
    rate_per_strength_left: float
    rate_per_strength_right: float
    passed: bool


def _fit_tail(abs_xi, log_du):
    slope, intercept = np.polyfit(abs_xi, log_du, 1)
    resid = log_du - (slope * abs_xi + intercept)
    return -float(slope), float(np.sqrt(np.mean(resid ** 2)))


def verify_profile_bounds(profile: ShockProfile) -> TailReport:
    """Fit exponential tail rates of |U'| and report the smallest K.

    Each tail is fitted on the window where |U - u_pm| lies between
    1e-10 * strength (above the clamp floor) and strength/10 (inside the
    genuinely exponential regime).  K is the sampled maximum of
    |U''| / |U'| = |f1'(U) - s|.
    """
    shock = profile.shock
    d = shock.strength
    if (abs(profile.u[-1] - shock.u_plus) > 1e-6 * d
            or abs(profile.u[0] - shock.u_minus) > 1e-6 * d):
        raise TailTooShortError("profile tails do not reach the end states")

    dist_plus = np.abs(profile.u - shock.u_plus)
    dist_minus = np.abs(profile.u - shock.u_minus)
    onset = TAIL_ONSET_FRACTION * d
    floor = TAIL_FLOOR_FRACTION * d

    right = (profile.xi > 0) & (dist_plus < onset) & (dist_plus > floor)
    left = (profile.xi < 0) & (dist_minus < onset) & (dist_minus > floor)
    if right.sum() < MIN_TAIL_SAMPLES or left.sum() < MIN_TAIL_SAMPLES:
        raise TailTooShortError(
            f"tail windows hold {int(left.sum())}/{int(right.sum())} samples; "
            f"need at least {MIN_TAIL_SAMPLES}")

    rate_r, resid_r = _fit_tail(profile.xi[right], np.log(np.abs(profile.du[right])))
    rate_l, resid_l = _fit_tail(-profile.xi[left], np.log(np.abs(profile.du[left])))
    onset_r = float(profile.xi[right][0])
    onset_l = float(-profile.xi[left][-1])

    k_smallest = float(np.max(np.abs(shock.flux.df1(profile.u) - shock.speed)))
    passed = rate_l > 0.0 and rate_r > 0.0 and max(resid_l, resid_r) < 0.1
    return TailReport(rate_left=rate_l, rate_right=rate_r,
                      residual_left=resid_l, residual_right=resid_r,
                      onset_left=onset_l, onset_right=onset_r,
                      n_left=int(left.sum()), n_right=int(right.sum()),
                      k_smallest=k_smallest,
                      rate_per_strength_left=rate_l / d,
                      rate_per_strength_right=rate_r / d,
                      passed=passed)


def profile_to_text(profile: ShockProfile, path) -> None:
    """Two-column (xi, U) text export for external plotting."""
    data = np.column_stack([profile.xi, profile.u])
    np.savetxt(path, data, fmt="%.17e", header="xi U")
