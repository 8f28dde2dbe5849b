"""Viscous shock profile: ODE integration, evaluation, tail checks.

The profile solves the first integral of the traveling-wave equation,

    U'(xi) = f1(U) - s U - (f1(u_plus) - s u_plus),

whose right-hand side vanishes at both end states (by Rankine-Hugoniot)
and is negative between them for a convex flux.  Both end states are
degenerate fixed points, so integration starts from the midpoint anchor
U(0) = (u_minus + u_plus)/2 and marches outward, one RK4 march at step
+h and -h.  A march ends early at its first fixed point, a step that
leaves U unchanged: every later step is the same step.  The caller picks h,
at most half_length / MIN_HALF_STEPS; the commands' rule for it, and so the
rows of profile.txt, is `experiment._solve_profile`'s.

`eval_profile`, the one reader, evaluates the cubic Hermite interpolant of
the samples and their ODE slopes in numpy, with the operation order of
scipy's ``CubicHermiteSpline`` (a ``PPoly``), so its values are bit for
bit those of that spline without importing ``scipy.interpolate``.  Outside
the solved range it extends U by the end states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import log_linear_fit
from .errors import NotAdmissibleError, StepTooLargeError, TailTooShortError
from .flux import ShockData
from .grid import save_text_e17

# Clamp distance, as a fraction of the shock strength.
CLAMP_TOL_FRACTION = 1e-14
# Tail fitting starts where |U - u_pm| drops below strength/10 and stops
# where the clamp floor would contaminate the log-linear fit.
TAIL_ONSET_FRACTION = 0.1
TAIL_FLOOR_FRACTION = 1e-10
MIN_TAIL_SAMPLES = 20
# Each march takes at least this many steps: step <= half_length / MIN_HALF_STEPS.
MIN_HALF_STEPS = 100.0


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


def _ode_rhs(shock: ShockData):
    """First-integral right-hand side as a plain-float callable."""
    f1 = shock.flux.f1
    s = shock.speed
    anchor = f1(shock.u_plus) - s * shock.u_plus

    def g(u):
        return f1(u) - s * u - anchor

    return g


def solve_profile(shock: ShockData, half_length: float, step: float) -> ShockProfile:
    """Integrate the profile ODE with classical RK4 from the midpoint anchor.

    Marches forward to +half_length and backward to -half_length on a
    uniform grid of spacing ``step``.  Values are clamped into the open
    interval between the end states once they come within
    CLAMP_TOL_FRACTION * strength of an end state, which stops finite
    arithmetic from overshooting the fixed points.

    Raises NotAdmissibleError for a non-Lax shock and StepTooLargeError
    if the march ever loses monotonicity or escapes the state interval.
    """
    if not shock.admissible:
        raise NotAdmissibleError("profile exists only for Lax-admissible shocks")
    if half_length <= 0.0:
        raise ValueError("half_length must be positive")
    if not 0.0 < step <= half_length / MIN_HALF_STEPS:
        raise ValueError(f"need 0 < step <= half_length/{MIN_HALF_STEPS:g}")

    g = _ode_rhs(shock)
    f1 = shock.flux.f1
    s = shock.speed
    anchor = f1(shock.u_plus) - s * shock.u_plus
    n_half = int(round(half_length / step))
    clamp_tol = CLAMP_TOL_FRACTION * shock.strength
    lo_clamp = shock.u_plus + clamp_tol
    hi_clamp = shock.u_minus - clamp_tol
    lo_limit = shock.u_plus - 10.0 * clamp_tol
    hi_limit = shock.u_minus + 10.0 * clamp_tol

    def march(h):
        # g inlined, same operations in the same order
        half_h = 0.5 * h
        sixth_h = h / 6.0
        u = 0.5 * (shock.u_minus + shock.u_plus)
        out = [u]
        for _ in range(n_half):
            k1 = f1(u) - s * u - anchor
            v = u + half_h * k1
            k2 = f1(v) - s * v - anchor
            v = u + half_h * k2
            k3 = f1(v) - s * v - anchor
            v = u + h * k3
            k4 = f1(v) - s * v - anchor
            un = u + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (un - u) * h > 0.0:
                raise StepTooLargeError("monotonicity lost on the march; reduce step")
            if not lo_limit <= un <= hi_limit:
                raise StepTooLargeError("overshoot past an end state; reduce step")
            un = min(max(un, lo_clamp), hi_clamp)
            if un == u:
                # a fixed point of the step map: every later sample is u
                out.extend([u] * (n_half + 1 - len(out)))
                break
            out.append(un)
            u = un
        return out

    fwd = march(step)
    bwd = march(-step)
    u_samples = np.array(bwd[::-1] + fwd[1:], dtype=float)
    xi = step * np.arange(-n_half, n_half + 1, dtype=float)
    du = np.asarray(g(u_samples), dtype=float)
    return ShockProfile(shock=shock, xi=xi, u=u_samples, du=du)


def _hermite(x, y, dydx, xq):
    """Cubic Hermite interpolant of (x, y, dydx) at xq, inside [x[0], x[-1]].

    The operations and their order are those of scipy's
    ``CubicHermiteSpline(x, y, dydx)(xq)``: the same coefficient formulas,
    computed only on the intervals that xq falls in, and ``PPoly``'s sum
    in increasing powers of s = xq - x[k].  Keep that order: a Horner
    form differs in the last bits, and the Newton seed of
    ``solver.discrete_wave`` carries such bits into the non-zero mode.
    """
    k = np.clip(np.searchsorted(x, xq, "right") - 1, 0, x.size - 2)
    x_k = x[k]
    y_k = y[k]
    d_k = dydx[k]
    dx = x[k + 1] - x_k
    slope = (y[k + 1] - y_k) / dx
    t = (d_k + dydx[k + 1] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - d_k) / dx - t
    s = xq - x_k
    ss = s * s
    return y_k + d_k * s + c1 * ss + c0 * (ss * s)


def eval_profile(profile: ShockProfile, xi):
    """Evaluate (U, U') at the array xi by piecewise-cubic Hermite interpolation.

    The interpolant uses the exact ODE slopes at the nodes and is bit for
    bit scipy's ``CubicHermiteSpline`` on the samples (see `_hermite`).
    U' is recomputed from the ODE right-hand side at the interpolated
    value, so the first integral is preserved exactly.  Outside the
    sampled range U is the end state on that side and U' is zero.
    """
    xi = np.asarray(xi, dtype=float)
    lo, hi = profile.xi[0], profile.xi[-1]
    shock = profile.shock
    u = _hermite(profile.xi, profile.u, profile.du, np.clip(xi, lo, hi))
    # Hermite interpolation of monotone data can overshoot only at round-off
    # level here; clip to the closed state interval to keep h(U) one-signed.
    span_lo, span_hi = shock.u_span
    u = np.clip(u, span_lo, span_hi)
    g = _ode_rhs(shock)
    du = g(u)
    below = xi < lo
    above = xi > hi
    u = np.where(below, shock.u_minus, np.where(above, shock.u_plus, u))
    du = np.where(below | above, 0.0, du)
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

    slope_r, _, resid_r = log_linear_fit(profile.xi[right],
                                         np.log(np.abs(profile.du[right])))
    slope_l, _, resid_l = log_linear_fit(-profile.xi[left],
                                         np.log(np.abs(profile.du[left])))
    rate_r, rate_l = -float(slope_r), -float(slope_l)
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
    """Two-column (xi, U) text export for external plotting, in the bytes of
    ``np.savetxt(..., fmt="%.17e", header="xi U")`` (`grid.save_text_e17`)."""
    save_text_e17(path, np.column_stack([profile.xi, profile.u]), "xi U")
