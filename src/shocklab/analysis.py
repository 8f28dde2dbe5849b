"""Decay-rate fitting, the area inequality, and normalized bound checks.

The decay statements under test carry unknown constants, so the checks are
formulated as normalized-ratio boundedness: multiply the measured norm by
the candidate rate and ask whether the late-time sup stays within a small
slack of the early-time sup.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (BadExponentError, BadKindError, HypothesisViolatedError,
                     MissingChannelError, NonPositiveValueError,
                     TooFewSamplesError, ZeroDenominatorError)

MIN_FIT_SAMPLES = 10
# Slack factor on late-window vs early-window sups in theorem_bound_check;
# absorbs discretization drift.
CONSISTENCY_SLACK = 1.05
# Relative slack on the sampled hypothesis checks of the area inequality.
HYPOTHESIS_SLACK = 0.01


@dataclass
class NormSeries:
    """Named nonnegative time series sharing one strictly increasing time axis."""

    times: np.ndarray
    channels: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        self.channels = {k: np.asarray(v, dtype=float) for k, v in self.channels.items()}
        for name, vals in self.channels.items():
            if vals.shape != self.times.shape:
                raise ValueError(f"channel {name!r} length mismatch")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"channel {name!r} has non-finite values")
            if np.any(vals < 0.0):
                raise ValueError(f"channel {name!r} has negative values")

    @classmethod
    def from_rows(cls, rows, meta: dict) -> NormSeries:
        """Series of (t, {channel: value}) pairs given in time order."""
        return cls(np.array([t for t, _ in rows]),
                   {k: np.array([r[k] for _, r in rows]) for k in rows[0][1]}, meta)

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise MissingChannelError(
                f"channel {name!r} not recorded (have {sorted(self.channels)})")
        return self.channels[name]

    def window_mask(self, window: tuple[float, float] | None) -> np.ndarray:
        if window is None:
            return np.ones_like(self.times, dtype=bool)
        t_a, t_b = window
        if not t_a < t_b:
            raise ValueError("fit window must satisfy t_a < t_b")
        return (self.times >= t_a) & (self.times <= t_b)


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay law fitted in log space.

    For kind "algebraic" the model is value = prefactor * (1+t)**rate, so a
    negative rate means decay.  For kind "exponential" the model is
    value = prefactor * exp(-rate * t), so a positive rate means decay.
    ``residual`` is the root-mean-square log-space misfit.
    """

    kind: str
    rate: float
    prefactor: float
    window: tuple[float, float]
    residual: float
    n_samples: int


def _windowed_positive(series: NormSeries, name: str,
                       window: tuple[float, float] | None):
    mask = series.window_mask(window)
    t = series.times[mask]
    v = series.channel(name)[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise TooFewSamplesError(f"{t.size} samples in window; need {MIN_FIT_SAMPLES}")
    if np.any(v <= 0.0):
        raise NonPositiveValueError(
            f"channel {name!r} has non-positive values in the fit window")
    return t, v


def _fit_log_linear(series: NormSeries, name: str,
                    window: tuple[float, float] | None, kind: str) -> RateFit:
    """Least squares of log(value) against log(1+t) or t, by kind."""
    t, v = _windowed_positive(series, name, window)
    x = np.log1p(t) if kind == "algebraic" else t
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(kind=kind, rate=float(slope if kind == "algebraic" else -slope),
                   prefactor=float(np.exp(intercept)),
                   window=(float(t[0]), float(t[-1])),
                   residual=resid, n_samples=int(t.size))


def fit_algebraic_rate(series: NormSeries, name: str,
                       window: tuple[float, float] | None = None) -> RateFit:
    """Fit log(value) against log(1+t); the slope is the algebraic exponent."""
    return _fit_log_linear(series, name, window, "algebraic")


def fit_exponential_rate(series: NormSeries, name: str,
                         window: tuple[float, float] | None = None) -> RateFit:
    """Fit log(value) against t; the decay rate is minus the slope."""
    return _fit_log_linear(series, name, window, "exponential")


def _check_area_params(c0, c1, alpha, beta, gamma, t):
    issues = []
    if not c0 > 0.0:
        issues.append("C0 must be positive")
    if not c1 > 0.0:
        issues.append("C1 must be positive")
    if not 0.0 <= beta < alpha:
        issues.append("need 0 <= beta < alpha")
    # The bound is stated for alpha + beta < 2; the boundary case is the
    # alpha = 2, beta = 0 endpoint of the second clause, kept admissible.
    if alpha + beta > 2.0:
        issues.append("need alpha + beta <= 2")
    if gamma < 0.0:
        issues.append("gamma must be nonnegative")
    if t < 0.0:
        issues.append("t must be nonnegative")
    if issues:
        raise HypothesisViolatedError("; ".join(issues))


def area_bound(c0: float, c1: float, alpha: float, beta: float,
               gamma: float, t: float) -> float:
    """Pointwise decay bound 2 sqrt(C0 C1) (1+t)^((beta-alpha)/2) ln^(gamma/2)(1+t).

    Valid for a Lipschitz f >= 0 whose derivative is bounded by
    C0 (1+t)^-alpha and whose running integral is bounded by
    C1 (1+t)^beta ln^gamma(1+t).
    """
    _check_area_params(c0, c1, alpha, beta, gamma, t)
    value = 2.0 * math.sqrt(c0 * c1) * (1.0 + t) ** ((beta - alpha) / 2.0)
    if gamma != 0.0:
        value *= math.log1p(t) ** (gamma / 2.0)
    return value


@dataclass(frozen=True)
class AreaReport:
    """Outcome of checking sampled data against the area-inequality bound."""

    passed: bool
    worst_margin: float
    n_checked: int
    hypothesis_violations: tuple[str, ...]


def verify_area_inequality(samples, c0: float, c1: float, alpha: float,
                           beta: float, gamma: float, t_min: float) -> AreaReport:
    """Check f(t_k) <= area_bound(t_k) for all samples with t_k >= t_min.

    ``samples`` is an (N, 2) array-like of (t, f) pairs with increasing t.
    The two hypotheses (forward difference quotients against the derivative
    bound, cumulative trapezoid against the integral bound) are checked
    with 1% slack for sampling error; violations are reported, not raised.
    ``worst_margin`` is max(f - bound) over the checked samples, so a
    negative margin means the bound holds with room to spare.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("samples must be an (N, 2) array of (t, f) pairs, N >= 2")
    _check_area_params(c0, c1, alpha, beta, gamma, max(t_min, 0.0))
    t = arr[:, 0]
    f = arr[:, 1]
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("sample times must be strictly increasing")

    violations = []
    quotients = np.diff(f) / np.diff(t)
    deriv_bound = c0 * (1.0 + t[:-1]) ** (-alpha)
    bad = quotients > deriv_bound * (1.0 + HYPOTHESIS_SLACK)
    if np.any(bad):
        k = int(np.argmax(bad))
        violations.append(
            f"derivative bound fails first at t={t[k]:g}: "
            f"quotient {quotients[k]:g} > {deriv_bound[k]:g}")

    running = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (f[:-1] + f[1:]))))
    log_term = np.log1p(t) ** gamma if gamma != 0.0 else 1.0
    int_bound = c1 * (1.0 + t) ** beta * log_term
    bad = running > int_bound * (1.0 + HYPOTHESIS_SLACK)
    if np.any(bad):
        k = int(np.argmax(bad))
        violations.append(
            f"integral bound fails first at t={t[k]:g}: "
            f"integral {running[k]:g} > {int_bound[k]:g}")

    check = t >= t_min
    margins = np.array([f[k] - area_bound(c0, c1, alpha, beta, gamma, t[k])
                        for k in np.flatnonzero(check)])
    worst = float(margins.max()) if margins.size else float("-inf")
    return AreaReport(passed=bool(margins.size == 0 or worst <= 0.0),
                      worst_margin=worst, n_checked=int(check.sum()),
                      hypothesis_violations=tuple(violations))


# Bound-check kinds mapped to (channel resolver, exponent in (1+t)^theta).
def _theta_phi_lp(p):
    return (p - 2.0) / (4.0 * p)


def _theta_pert_l2(p):
    return (p - 2.0) / (8.0 * p)


def _theta_pert_linf(p):
    return (p - 2.0) * (2.0 * p + 1.0) / (4.0 * p * (3.0 * p + 2.0))


_ALGEBRAIC_KINDS = {
    "phi-Lp": (lambda p: f"Phi_L{p:g}", _theta_phi_lp),
    "pert-L2": (lambda p: "pert_L2", _theta_pert_l2),
    "pert-Linf": (lambda p: "pert_Linf", _theta_pert_linf),
}


@dataclass(frozen=True)
class BoundReport:
    """Normalized-ratio boundedness verdict for one decay statement."""

    kind: str
    channel: str
    p: float
    theta: float          # algebraic exponent, or fitted rate for nonzero-exp
    sup_ratio: float
    t_at_sup: float
    early_sup: float
    late_sup: float
    consistent: bool


def theorem_bound_check(series: NormSeries, p: float, kind: str,
                        t_start: float = 1.0) -> BoundReport:
    """Check a decay statement by normalized-ratio boundedness.

    Forms r(t) = value(t) * (1+t)^theta with the candidate exponent for the
    kind, or value(t) * exp(c_fit t) for kind "nonzero-exp" with c_fit the
    fitted exponential rate.  The statement is consistent when the sup of r
    over the late window [T/2, T] does not exceed the sup over the early
    window [t_start, T/2] by more than the slack factor.
    """
    if kind == "nonzero-exp":
        name = "nzmode_L2"
        v = series.channel(name)
        fit = fit_exponential_rate(series, name, window=(t_start, float(series.times[-1])))
        rate = fit.rate
        r = v * np.exp(rate * series.times)
        theta = rate
    elif kind in _ALGEBRAIC_KINDS:
        if not p > 2.0:
            raise BadExponentError(f"algebraic kinds need p > 2, got {p}")
        channel_name, theta_fn = _ALGEBRAIC_KINDS[kind]
        name = channel_name(p)
        v = series.channel(name)
        theta = theta_fn(p)
        r = v * (1.0 + series.times) ** theta
    else:
        raise BadKindError(f"unknown kind {kind!r}")

    t = series.times
    t_end = float(t[-1])
    t_mid = 0.5 * t_end
    early = (t >= t_start) & (t <= t_mid)
    late = (t >= t_mid) & (t <= t_end)
    if not np.any(early) or not np.any(late):
        raise TooFewSamplesError("early/late windows are empty; run longer")
    k_sup = int(np.argmax(r))
    early_sup = float(np.max(r[early]))
    late_sup = float(np.max(r[late]))
    return BoundReport(kind=kind, channel=name, p=float(p), theta=float(theta),
                       sup_ratio=float(r[k_sup]), t_at_sup=float(t[k_sup]),
                       early_sup=early_sup, late_sup=late_sup,
                       consistent=bool(late_sup <= CONSISTENCY_SLACK * early_sup))


@dataclass(frozen=True)
class GNReport:
    """Interpolation-inequality ratio monitor summary."""

    p: float
    max_ratio: float
    t_at_max: float
    n_samples: int


def gn_ratio_monitor(series: NormSeries, p: float) -> GNReport:
    """Max over t of |zero mode|_inf^2 / (|d1 zero|_2^a |Phi|_p^b).

    The exponents a = 4(p+1)/(3p+2) and b = 2p/(3p+2) sum against the
    squared numerator to total homogeneity zero, so the ratio is invariant
    under amplitude scaling.  A finite, refinement-stable maximum is the
    check; the inequality's constant is unknown.
    """
    zinf = series.channel("zmode_Linf")
    dz = series.channel("dzmode_L2")
    phi = series.channel(f"Phi_L{p:g}")
    a = 4.0 * (p + 1.0) / (3.0 * p + 2.0)
    b = 2.0 * p / (3.0 * p + 2.0)
    denom = dz ** a * phi ** b
    if np.any(denom == 0.0):
        raise ZeroDenominatorError("ratio denominator vanishes at some sample")
    ratio = zinf ** 2 / denom
    k = int(np.argmax(ratio))
    return GNReport(p=float(p), max_ratio=float(ratio[k]),
                    t_at_max=float(series.times[k]), n_samples=int(ratio.size))


def report_to_dict(report) -> dict:
    """Flatten a report dataclass to the JSON layout used in rates.json."""
    raw = asdict(report)
    out = {
        "kind": raw.get("kind"),
        "exponent": raw.get("theta", raw.get("rate")),
        "prefactor": raw.get("prefactor"),
        "window": list(raw["window"]) if raw.get("window") is not None else None,
        "residual": raw.get("residual"),
        "verdict": None,
        "worst_margin": raw.get("worst_margin"),
    }
    if "consistent" in raw:
        out["verdict"] = "consistent" if raw["consistent"] else "inconsistent"
    elif "passed" in raw:
        out["verdict"] = "pass" if raw["passed"] else "fail"
    extras = {k: v for k, v in raw.items()
              if k not in ("kind", "theta", "rate", "prefactor", "window",
                           "residual", "consistent", "passed", "worst_margin")}
    for key, val in extras.items():
        if isinstance(val, tuple):
            val = list(val)
        out[key] = val
    return out


def reports_to_json(reports: dict, path=None) -> str:
    """Serialize a {label: report} mapping; write to ``path`` when given."""
    payload = {label: report_to_dict(rep) for label, rep in reports.items()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
