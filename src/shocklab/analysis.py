"""Decay-rate fitting, the area inequality, normalized bound checks, and
`analyze_record`, which makes every check of one run from its norm series.

The decay statements under test carry unknown constants, so the checks are
formulated as normalized-ratio boundedness: multiply the measured norm by
the candidate rate and ask whether the late-time sup stays within a small
slack of the early-time sup.  A check its data cannot carry raises
TooFewSamplesError, NonPositiveValueError, ZeroDenominatorError or
RoundOffError, which `analyze_record` records as a `Skipped`.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (ArgumentError, BadExponentError, BadKindError, HypothesisViolatedError,
                     MissingChannelError, NonPositiveValueError, RoundOffError,
                     TooFewSamplesError, ZeroDenominatorError)

MIN_FIT_SAMPLES = 10
# Round-off as a fraction of the shock strength: no check is made on samples
# that all lie at or below it, and the leak monitor ignores end values below it.
ROUNDOFF_FRACTION = 1e-12
# Slack factor on late-window vs early-window sups in theorem_bound_check;
# absorbs discretization drift.
CONSISTENCY_SLACK = 1.05
# End of the initial transient, before which no bound window or default fit window starts.
TRANSIENT_END = 1.0
# Relative slack on the sampled hypothesis checks of the area inequality.
HYPOTHESIS_SLACK = 0.01
# Relative slack on output times k * dt_out, for their round-off: within it
# t_final/dt_out is whole (0.7/0.0125 is 55.99999999999999), `solver.simulate`
# labels an output t_final, and a time lies on a fit window's end.
OUTPUT_TIME_REL_TOL = 1e-9

log = logging.getLogger("shocklab")


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
        """The samples in ``window`` (all when None), ends within OUTPUT_TIME_REL_TOL."""
        if window is None:
            return np.ones_like(self.times, dtype=bool)
        t_a, t_b = window
        slack = OUTPUT_TIME_REL_TOL * max(abs(t_a), abs(t_b))
        return (self.times >= t_a - slack) & (self.times <= t_b + slack)


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


@dataclass(frozen=True)
class Skipped:
    """A check of ``channel`` that was not made, and why."""

    kind: str
    channel: str
    reason: str


def _check_above_roundoff(series: NormSeries, what: str, *values) -> None:
    """RoundOffError when all ``values`` are <= ROUNDOFF_FRACTION * strength (or 0)."""
    floor = ROUNDOFF_FRACTION * series.meta.get("strength", 0.0)
    if all(np.all(v <= floor) for v in values):
        raise RoundOffError(f"every sample of {what} is at or below the "
                            f"round-off floor {floor:.3g}")


def log_linear_fit(x, y):
    """Least-squares line y ~ slope * x + intercept; (slope, intercept, rms misfit).

    Closed form on centred sums, with dx = x - mean(x) and dy = y - mean(y):
    slope = sum(dx dy) / sum(dx**2), intercept = mean(y) - slope * mean(x).
    It needs at least two distinct x.  Both callers give more: a rate fit
    has at least MIN_FIT_SAMPLES strictly increasing times, a profile tail
    fit at least `profile.MIN_TAIL_SAMPLES` samples of increasing xi.  Plain
    numpy, no LAPACK: ``np.polyfit``'s first call pages in ~1.3 MB of
    OpenBLAS code and buffers, which would set the peak RSS of a 1-d run.
    """
    x_mean, y_mean = np.mean(x), np.mean(y)
    dx = x - x_mean
    slope = np.sum(dx * (y - y_mean)) / np.sum(dx * dx)
    intercept = y_mean - slope * x_mean
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return slope, intercept, rms


def fit_window_issues(window, t_final: float) -> list[tuple[str, str]]:
    """``window`` with its broken rule, if any: None, or 0 <= t_a < t_b <= t_final."""
    if window is None or len(window) == 2 and 0.0 <= window[0] < window[1] <= t_final:
        return []
    return [("window", "must be a pair 0 <= t_a < t_b <= t_final")]


def _fit_log_linear(series: NormSeries, name: str,
                    window: tuple[float, float] | None, kind: str) -> RateFit:
    """Least squares of log(value) against log(1+t) or t, by kind, in a checked window."""
    if issues := fit_window_issues(window, float(series.times[-1])):
        raise ArgumentError(issues)
    mask = series.window_mask(window)
    t = series.times[mask]
    v = series.channel(name)[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise TooFewSamplesError(f"{t.size} samples in window; need {MIN_FIT_SAMPLES}")
    if np.any(v <= 0.0):
        raise NonPositiveValueError(
            f"channel {name!r} has non-positive values in the fit window")
    _check_above_roundoff(series, f"channel {name!r} in the fit window", v)
    slope, intercept, resid = log_linear_fit(np.log1p(t) if kind == "algebraic" else t,
                                             np.log(v))
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
    if not all(map(math.isfinite, (c0, c1, alpha, beta, gamma))):
        issues.append("C0, C1, alpha, beta and gamma must be finite")
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
    negative margin means the bound holds with room to spare.  Samples
    none of which has t >= t_min (or a NaN t_min) raise ValueError.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("samples must be an (N, 2) array of (t, f) pairs, N >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    _check_area_params(c0, c1, alpha, beta, gamma, max(t_min, 0.0))
    t = arr[:, 0]
    f = arr[:, 1]
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("sample times must be strictly increasing")
    check = t >= t_min
    if not np.any(check):
        raise ValueError(f"no sample at t >= t_min = {t_min:g}")

    quotients = np.diff(f) / np.diff(t)
    running = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (f[:-1] + f[1:]))))
    log_term = np.log1p(t) ** gamma if gamma != 0.0 else 1.0
    violations = []
    for what, name, value, bound in (
            ("derivative", "quotient", quotients, c0 * (1.0 + t[:-1]) ** (-alpha)),
            ("integral", "integral", running, c1 * (1.0 + t) ** beta * log_term)):
        bad = value > bound * (1.0 + HYPOTHESIS_SLACK)
        if np.any(bad):
            k = int(np.argmax(bad))
            violations.append(f"{what} bound fails first at t={t[k]:g}: "
                              f"{name} {value[k]:g} > {bound[k]:g}")

    margins = np.array([f[k] - area_bound(c0, c1, alpha, beta, gamma, t[k])
                        for k in np.flatnonzero(check)])
    worst = float(margins.max())
    return AreaReport(passed=worst <= 0.0,
                      worst_margin=worst, n_checked=int(check.sum()),
                      hypothesis_violations=tuple(violations))


# Each bound kind's rates.json label and channel, both formatted with p, and
# its exponent theta(p) in (1+t)^theta.
_BOUND_KINDS = {
    "phi-Lp": ("bound_phi_L{p:g}", "Phi_L{p:g}", lambda p: (p - 2.0) / (4.0 * p)),
    "pert-L2": ("bound_pert_L2_p{p:g}", "pert_L2", lambda p: (p - 2.0) / (8.0 * p)),
    "pert-Linf": ("bound_pert_Linf_p{p:g}", "pert_Linf",
                  lambda p: (p - 2.0) * (2.0 * p + 1.0) / (4.0 * p * (3.0 * p + 2.0))),
}


def _has_bounds(p: float) -> bool:
    """The bound statements and the G-N monitor are made for p > 2 only."""
    return p > 2.0


@dataclass(frozen=True)
class BoundReport:
    """Normalized-ratio boundedness verdict for one decay statement."""

    kind: str
    channel: str
    p: float
    theta: float          # algebraic exponent of the kind
    sup_ratio: float
    t_at_sup: float
    early_sup: float
    late_sup: float
    consistent: bool


def theorem_bound_check(series: NormSeries, p: float, kind: str) -> BoundReport:
    """Check a decay statement by normalized-ratio boundedness.

    Forms r(t) = value(t) * (1+t)^theta with the candidate exponent for the
    kind.  The statement is consistent when the sup of r over the late
    window [T/2, T] does not exceed the sup over the early window
    [TRANSIENT_END, T/2] by more than the slack factor.
    """
    if kind not in _BOUND_KINDS:
        raise BadKindError(f"unknown kind {kind!r}")
    if not _has_bounds(p):
        raise BadExponentError(f"algebraic kinds need p > 2, got {p}")
    _, channel, theta_of = _BOUND_KINDS[kind]
    name = channel.format(p=p)
    theta = theta_of(p)
    values = series.channel(name)
    r = values * (1.0 + series.times) ** theta

    t = series.times
    t_end = float(t[-1])
    t_mid = 0.5 * t_end
    early = series.window_mask((TRANSIENT_END, t_mid))
    late = series.window_mask((t_mid, t_end))
    if t_mid < TRANSIENT_END or not np.any(early):
        raise TooFewSamplesError("early/late windows are empty; run longer")
    _check_above_roundoff(series, f"channel {name!r} in the early/late windows",
                          values[early | late])
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
    under amplitude scaling.  The monitor reports the maximum and passes no
    verdict: the inequality's constant is unknown.
    """
    zinf = series.channel("zmode_Linf")
    dz = series.channel("dzmode_L2")
    phi = series.channel(f"Phi_L{p:g}")
    a = 4.0 * (p + 1.0) / (3.0 * p + 2.0)
    b = 2.0 * p / (3.0 * p + 2.0)
    # round-off first: a run at round-off can hit an exact zero too
    _check_above_roundoff(series, f"zmode_Linf, dzmode_L2 and Phi_L{p:g}", zinf, dz, phi)
    denom = dz ** a * phi ** b
    if np.any(denom == 0.0):
        raise ZeroDenominatorError("ratio denominator vanishes at some sample")
    ratio = zinf ** 2 / denom
    k = int(np.argmax(ratio))
    return GNReport(p=float(p), max_ratio=float(ratio[k]),
                    t_at_max=float(series.times[k]), n_samples=int(ratio.size))


def _made_or_skipped(kind: str, channel: str, check, *args):
    """``check(*args)``, or a `Skipped` with the reason when the data cannot carry it."""
    try:
        return check(*args)
    except (TooFewSamplesError, NonPositiveValueError, ZeroDenominatorError,
            RoundOffError) as exc:
        log.warning("skipping %s check of %s: %s", kind, channel, exc)
        return Skipped(kind=kind, channel=channel, reason=str(exc))


def analyze_record(series: NormSeries,
                   window: tuple[float, float] | None = None) -> dict:
    """Every rate fit, bound check and G-N monitor of one run's norm series.

    The p values and the dimension come from ``series.meta``.  The fits
    use ``window`` (checked by `fit_window_issues`), by default the last
    half of the run from TRANSIENT_END on; a run that ends before it raises
    TooFewSamplesError.  Each check goes through `_made_or_skipped`, so
    one the data cannot carry is recorded as a `Skipped` with its reason
    under its own label.
    """
    if window is None:
        t_end = float(series.times[-1])
        if t_end <= TRANSIENT_END:
            raise TooFewSamplesError(f"t_final {t_end:g} leaves no samples after the "
                                     f"transient t < {TRANSIENT_END:g}; run longer")
        window = (max(TRANSIENT_END, 0.5 * t_end), t_end)
    reports: dict = {}
    for p in series.meta["p_list"]:
        name = f"Phi_L{p:g}"
        reports[f"fit_{name}"] = _made_or_skipped("algebraic", name, fit_algebraic_rate,
                                                  series, name, window)
        if _has_bounds(p):
            for kind, (label, channel, _) in _BOUND_KINDS.items():
                reports[label.format(p=p)] = _made_or_skipped(
                    kind, channel.format(p=p), theorem_bound_check, series, p, kind)
            reports[f"gn_ratio_p{p:g}"] = _made_or_skipped("gn-ratio", name,
                                                           gn_ratio_monitor, series, p)
    if series.meta["dimension"] >= 2:
        reports["fit_nzmode_L2"] = _made_or_skipped("exponential", "nzmode_L2",
                                                    fit_exponential_rate, series,
                                                    "nzmode_L2", window)
    return reports


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
    elif "reason" in raw:
        out["verdict"] = "skipped"
    for key, val in raw.items():
        if key not in ("kind", "theta", "rate", "prefactor", "window", "residual",
                       "consistent", "passed", "worst_margin"):
            out[key] = list(val) if isinstance(val, tuple) else val
    return out


def reports_to_json(reports: dict, path=None) -> str:
    """Serialize a {label: report} mapping; write to ``path`` when given."""
    payload = {label: report_to_dict(rep) for label, rep in reports.items()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
