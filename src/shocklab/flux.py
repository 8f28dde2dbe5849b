"""Fluxes and the shock they carry.

One scalar flux f1 serves every direction of the channel.  It is strictly
convex; with a convex flux the entropy condition f1'(u_minus) > s >
f1'(u_plus) forces u_minus > u_plus, so the profile is monotone
decreasing.  All formulas below use that orientation.

A shock is its flux and its two end states, (flux, u_minus, u_plus);
its speed, strength and admissibility are derived from those three.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import EqualStatesError

ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class FluxSpec:
    """Scalar flux f with its derivative, valid on [u_lo, u_hi].

    One flux serves every direction: the law is u_t + sum_i d_i f(u) = Lap u,
    so f is also the strictly convex longitudinal flux f_1 that does all the
    shock work.  Distinct transverse fluxes f_i would need their own config
    format and workload.  The evaluators must accept floats and numpy arrays
    alike.  ``u_lo`` and ``u_hi`` delimit the validity range of the
    evaluators.
    """

    f1: ScalarFn
    df1: ScalarFn
    u_lo: float
    u_hi: float

    def __post_init__(self):
        if not self.u_lo < self.u_hi:
            raise ValueError("validity range is empty")


def burgers_flux(*, u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """f(u) = u^2/2; f'' = 1."""
    return FluxSpec(lambda u: 0.5 * u * u, lambda u: u, u_lo, u_hi)


def convex_quartic_flux(*, u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """f(u) = u^2/2 + u^4/12; f'' = 1 + u^2 >= 1."""
    return FluxSpec(lambda u: 0.5 * u * u + u ** 4 / 12.0,
                    lambda u: u + u ** 3 / 3.0, u_lo, u_hi)


def polynomial_flux(coefficients: Sequence[float], *,
                    u_lo: float = -4.0, u_hi: float = 4.0) -> FluxSpec:
    """Flux from ascending polynomial coefficients: f(u) = sum c_k u^k.

    Anything but a non-empty sequence of real numbers (numpy's are; bools
    are not) raises ValueError, and so does an f'' that is not positive at
    201 uniform samples of the validity range, as with a NaN coefficient.
    """
    try:
        values = list(coefficients)
    except TypeError:  # not a sequence
        values = []
    if not values or any(isinstance(c, bool) or not isinstance(c, numbers.Real)
                         for c in values):
        raise ValueError("coefficients must be a non-empty sequence of real numbers")
    coeffs = np.array(values, dtype=float)
    polynomial = np.polynomial.polynomial
    ddf = polynomial.polyval(np.linspace(u_lo, u_hi, 201), polynomial.polyder(coeffs, 2))
    if not np.min(ddf) > 0.0:
        raise ValueError("polynomial is not convex on the validity range")
    return FluxSpec(_horner(coeffs), _horner(polynomial.polyder(coeffs)), u_lo, u_hi)


def _horner(coeffs: np.ndarray) -> ScalarFn:
    """sum c_k u^k by `polyval`'s own recurrence over Python floats: the same
    values bit for bit, at a fifth of its cost per scalar call."""
    top, rest = float(coeffs[-1]), coeffs[-2::-1].tolist()

    def evaluate(u):
        acc = top + u * 0
        for c in rest:
            acc = c + acc * u
        return acc

    return evaluate


def shock_issues(u_minus: float, u_plus: float) -> list[tuple[str, str]]:
    """Each end state of `ShockData` that breaks its rule, with the rule."""
    issues = [(name, "must be finite") for name, u in
              (("u_minus", u_minus), ("u_plus", u_plus)) if not math.isfinite(u)]
    if not issues and u_minus == u_plus:
        issues.append(("u_plus", "end states must differ (degenerate shock)"))
    return issues


@dataclass(frozen=True)
class ShockData:
    """A shock of ``flux`` joining ``u_minus`` (left) to ``u_plus`` (right).

    The flux and the two end states are the whole shock; the Rankine-Hugoniot
    speed, the strength and the Lax admissibility flag derive from them, so
    no shock holds a speed that disagrees with its states.  End states that
    break a rule of `shock_issues` raise EqualStatesError.
    """

    flux: FluxSpec
    u_minus: float
    u_plus: float

    def __post_init__(self):
        if issues := shock_issues(self.u_minus, self.u_plus):
            raise EqualStatesError(issues)

    @cached_property
    def speed(self) -> float:
        """Rankine-Hugoniot speed s = [f1] / [u]."""
        f1 = self.flux.f1
        return float((f1(self.u_plus) - f1(self.u_minus)) / (self.u_plus - self.u_minus))

    @property
    def strength(self) -> float:
        return abs(self.u_minus - self.u_plus)

    @property
    def admissible(self) -> bool:
        """The Lax entropy condition f1'(u_minus) > s > f1'(u_plus)."""
        df1, s = self.flux.df1, self.speed
        return bool(df1(self.u_minus) - s > 0.0 and df1(self.u_plus) - s < 0.0)

    @property
    def u_span(self) -> tuple[float, float]:
        """Closed interval between the end states, (low, high)."""
        return (min(self.u_minus, self.u_plus), max(self.u_minus, self.u_plus))
