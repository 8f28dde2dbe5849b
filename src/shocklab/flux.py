"""Flux functions, shock data and entropy admissibility.

One scalar flux f1 serves every direction of the channel.  It is strictly
convex; with a convex flux the entropy condition f1'(u_minus) > s >
f1'(u_plus) forces u_minus > u_plus, so the profile is monotone
decreasing.  All formulas below use that orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EqualStatesError

ScalarFn = Callable[[float], float]

# Relative tolerance on the Rankine-Hugoniot residual of a stored shock.
RH_TOL = 1e-12


@dataclass(frozen=True)
class FluxSpec:
    """Scalar flux f with its first and second derivatives.

    One flux serves every direction: the law is u_t + sum_i d_i f(u) = Lap u,
    so f is also the strictly convex longitudinal flux f_1 that does all the
    shock work.  Distinct transverse fluxes f_i would need their own config
    format and workload.  The evaluators must accept floats and numpy arrays
    alike.  ``u_lo`` and ``u_hi`` delimit the validity range of the
    evaluators.
    """

    name: str
    f1: ScalarFn
    df1: ScalarFn
    ddf1: ScalarFn
    u_lo: float
    u_hi: float

    def __post_init__(self):
        if not self.u_lo < self.u_hi:
            raise ValueError("validity range is empty")


def burgers_flux(*, u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """f(u) = u^2/2; f'' = 1."""
    return FluxSpec("burgers", lambda u: 0.5 * u * u, lambda u: u,
                    lambda u: u * 0.0 + 1.0, u_lo, u_hi)


def convex_quartic_flux(*, u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """f(u) = u^2/2 + u^4/12; f'' = 1 + u^2 >= 1."""
    return FluxSpec("convex-quartic",
                    lambda u: 0.5 * u * u + u ** 4 / 12.0,
                    lambda u: u + u ** 3 / 3.0,
                    lambda u: 1.0 + u * u, u_lo, u_hi)


def polynomial_flux(coefficients: Sequence[float], *, name: str = "poly",
                    u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """Flux from ascending polynomial coefficients: f(u) = sum c_k u^k.

    f'' must be positive at 201 uniform samples of the validity range; a
    NaN coefficient fails that test too.
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

    if not np.min(ddf(np.linspace(u_lo, u_hi, 201))) > 0.0:
        raise ValueError("polynomial is not convex on the validity range")
    return FluxSpec(name, f, df, ddf, u_lo, u_hi)


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
