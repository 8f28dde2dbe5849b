"""Flux functions, shock data, entropy admissibility, and the h/w scalar pair.

The longitudinal flux f1 is strictly convex; with a convex flux the entropy
condition f1'(u_minus) > s > f1'(u_plus) forces u_minus > u_plus, so the
profile is monotone decreasing.  All formulas below use that orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EqualStatesError, OutOfRangeError

ScalarFn = Callable[[float], float]

# Relative tolerance on the Rankine-Hugoniot residual of a stored shock.
RH_TOL = 1e-12


@dataclass(frozen=True)
class FluxSpec:
    """Flux vector f = (f_1, ..., f_n) with first and second derivatives.

    Each direction carries an evaluator triple (f_i, f_i', f_i'').  The
    evaluators must accept floats and numpy arrays alike.  ``c0`` is the
    declared convexity floor for f_1; ``check_convexity`` measures the
    actual minimum of f_1'' so callers can compare the two.  ``u_lo`` and
    ``u_hi`` delimit the validity range of the evaluators.
    """

    name: str
    dimension: int
    evaluators: tuple[tuple[ScalarFn, ScalarFn, ScalarFn], ...]
    c0: float
    u_lo: float
    u_hi: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1..3, got {self.dimension}")
        if len(self.evaluators) != self.dimension:
            raise ValueError("need one evaluator triple per direction")
        if not self.c0 > 0.0:
            raise ValueError("declared convexity floor c0 must be positive")
        if not self.u_lo < self.u_hi:
            raise ValueError("validity range is empty")

    def f(self, i: int, u):
        """Evaluate f_i (0-based direction index)."""
        return self.evaluators[i][0](u)

    def df(self, i: int, u):
        return self.evaluators[i][1](u)

    def ddf(self, i: int, u):
        return self.evaluators[i][2](u)

    # f_1 shortcuts; the longitudinal flux does all the shock work.
    def f1(self, u):
        return self.evaluators[0][0](u)

    def df1(self, u):
        return self.evaluators[0][1](u)

    def ddf1(self, u):
        return self.evaluators[0][2](u)


def _repeat_triple(triple, dimension):
    return tuple(triple for _ in range(dimension))


def burgers_flux(dimension: int = 1, u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """f_i(u) = u^2/2 in every direction; f1'' = 1."""
    triple = (lambda u: 0.5 * u * u, lambda u: u, lambda u: u * 0.0 + 1.0)
    return FluxSpec("burgers", dimension, _repeat_triple(triple, dimension), 1.0, u_lo, u_hi)


def convex_quartic_flux(dimension: int = 1, u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """f_i(u) = u^2/2 + u^4/12; f1'' = 1 + u^2 >= 1."""
    triple = (
        lambda u: 0.5 * u * u + u ** 4 / 12.0,
        lambda u: u + u ** 3 / 3.0,
        lambda u: 1.0 + u * u,
    )
    return FluxSpec("convex-quartic", dimension, _repeat_triple(triple, dimension), 1.0, u_lo, u_hi)


def polynomial_flux(coefficients: Sequence[float], dimension: int = 1,
                    c0: float | None = None, name: str = "poly",
                    u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """Flux from ascending polynomial coefficients: f(u) = sum c_k u^k.

    When ``c0`` is omitted it is taken as the sampled minimum of f'' over
    the validity range; a non-convex polynomial then needs an explicit
    (declared) floor before it can be wrapped in a FluxSpec.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    ddcoeffs = np.polynomial.polynomial.polyder(coeffs, 2)
    polyval = np.polynomial.polynomial.polyval

    def f(u, c=coeffs):
        return polyval(u, c)

    def df(u, c=dcoeffs):
        return polyval(u, c)

    def ddf(u, c=ddcoeffs):
        return polyval(u, c)

    if c0 is None:
        samples = np.linspace(u_lo, u_hi, 201)
        c0 = float(np.min(ddf(samples)))
        if c0 <= 0.0:
            raise ValueError(
                "polynomial is not convex on the validity range; "
                "pass an explicit c0 to declare a floor anyway")
    return FluxSpec(name, dimension, _repeat_triple((f, df, ddf), dimension),
                    float(c0), u_lo, u_hi)


@dataclass(frozen=True)
class ShockData:
    """End states, speed, and strength of a single shock.

    ``speed`` satisfies the Rankine-Hugoniot relation
    -s(u_plus - u_minus) + f1(u_plus) - f1(u_minus) = 0; the constructor
    rejects data violating it beyond round-off.
    """

    flux: FluxSpec
    u_minus: float
    u_plus: float
    speed: float
    strength: float
    admissible: bool

    def __post_init__(self):
        if self.u_minus == self.u_plus:
            raise EqualStatesError("end states coincide")
        if not self.strength > 0.0:
            raise ValueError("shock strength must be positive")
        resid = abs(-self.speed * (self.u_plus - self.u_minus)
                    + self.flux.f1(self.u_plus) - self.flux.f1(self.u_minus))
        if resid > RH_TOL * max(1.0, abs(self.flux.f1(self.u_minus))):
            raise ValueError(f"Rankine-Hugoniot residual too large: {resid:g}")

    @property
    def u_span(self) -> tuple[float, float]:
        """Closed interval between the end states, (low, high)."""
        return (min(self.u_minus, self.u_plus), max(self.u_minus, self.u_plus))


def shock_speed(flux: FluxSpec, u_minus: float, u_plus: float) -> float:
    """Rankine-Hugoniot speed s = [f1] / [u]."""
    if u_minus == u_plus:
        raise EqualStatesError(f"u_minus == u_plus == {u_minus}")
    return (flux.f1(u_plus) - flux.f1(u_minus)) / (u_plus - u_minus)


def make_shock(flux: FluxSpec, u_minus: float, u_plus: float) -> ShockData:
    """Assemble a ShockData with RH speed and the Lax admissibility flag.

    The flag is the Lax entropy condition f1'(u_minus) > s > f1'(u_plus).
    """
    s = shock_speed(flux, u_minus, u_plus)
    admissible = (flux.df1(u_minus) - s > 0.0) and (flux.df1(u_plus) - s < 0.0)
    return ShockData(flux=flux, u_minus=float(u_minus), u_plus=float(u_plus),
                     speed=float(s), strength=abs(u_minus - u_plus),
                     admissible=admissible)


def h_function(shock: ShockData, u: float) -> float:
    """h(u) = f1(u) - f1(u_plus) - s (u - u_plus).

    Vanishes at both end states; negative between them for a convex flux
    in the admissible orientation.  The two endpoint-anchored forms agree
    because of the Rankine-Hugoniot relation, which is asserted.
    """
    lo, hi = shock.u_span
    if not lo <= u <= hi:
        raise OutOfRangeError(f"u={u} outside [{lo}, {hi}]")
    f1 = shock.flux.f1
    s = shock.speed
    h_plus = f1(u) - f1(shock.u_plus) - s * (u - shock.u_plus)
    h_minus = f1(u) - f1(shock.u_minus) - s * (u - shock.u_minus)
    assert abs(h_plus - h_minus) <= 1e-10 * max(1.0, abs(f1(shock.u_minus)))
    return h_plus


# Within this fraction of the strength of an end state, weight_w switches
# to the limit formula to avoid the 0/0 cancellation.
_W_ENDPOINT_BAND = 1e-9


def weight_w(shock: ShockData, u: float) -> float:
    """Positive weight making h(u) w(u) an exact quadratic in u.

    Defined so that h(u) w(u) = (u - u_minus)(u - u_plus); both factors are
    negative strictly between the end states of an admissible shock, so
    w > 0 there.  At the end states the limit w(u_pm) =
    (u_pm - u_mp) / (f1'(u_pm) - s) applies (positive under admissibility;
    the absolute value guards the orientation).  The product's second
    u-derivative is the constant 2, of sign opposite to U'.
    """
    lo, hi = shock.u_span
    if not lo <= u <= hi:
        raise OutOfRangeError(f"u={u} outside [{lo}, {hi}]")
    band = _W_ENDPOINT_BAND * shock.strength
    s = shock.speed
    if abs(u - shock.u_plus) <= band:
        return abs((shock.u_plus - shock.u_minus) / (shock.flux.df1(shock.u_plus) - s))
    if abs(u - shock.u_minus) <= band:
        return abs((shock.u_minus - shock.u_plus) / (shock.flux.df1(shock.u_minus) - s))
    return (u - shock.u_minus) * (u - shock.u_plus) / h_function(shock, u)


def weight_bounds(shock: ShockData, samples: int = 1001) -> tuple[float, float]:
    """Empirical (min, max) of w over the shock interval.

    The theory only promises finite two-sided bounds C^-1 < w < C without
    quantifying C; this reports what the bounds actually are.
    """
    lo, hi = shock.u_span
    us = np.linspace(lo, hi, samples)
    ws = np.array([weight_w(shock, float(u)) for u in us])
    return float(ws.min()), float(ws.max())


def check_convexity(flux: FluxSpec, samples: int) -> float:
    """Minimum of f1'' over uniform samples of the validity range.

    The caller compares the result against the declared floor flux.c0.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    us = np.linspace(flux.u_lo, flux.u_hi, samples)
    return float(np.min(flux.ddf1(us)))
