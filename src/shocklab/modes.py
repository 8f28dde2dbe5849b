"""Zero/non-zero mode projections, anti-derivative, shift normalization.

The zero mode of a field is its transverse average over the unit torus;
the non-zero mode is the mean-free remainder.  The anti-derivative of the
zero-mode perturbation is its cumulative x1 integral from the left end;
the shift is its mass over u_plus - u_minus.  All take arrays and a grid.
"""

from __future__ import annotations

import numpy as np

from .flux import ShockData
from .grid import ChannelGrid, integrate


def zero_mode(values: np.ndarray) -> np.ndarray:
    """Transverse average at each x1 (a copy for a 1-d array)."""
    if values.ndim == 1:
        return values.copy()
    return values.mean(axis=tuple(range(1, values.ndim)))


def nonzero_mode(values: np.ndarray) -> np.ndarray:
    """Values minus their broadcast zero mode; transverse average vanishes."""
    zm = zero_mode(values)
    return values - zm.reshape(zm.shape + (1,) * (values.ndim - 1))


def antiderivative(zero_pert: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Phi(x1) = integral of the zero-mode perturbation from -L to x1.

    Cumulative trapezoid from the left end; Phi[-1] is the residual total
    mass, which vanishes (to quadrature error) once the background has been
    shift-normalized.
    """
    v = np.asarray(zero_pert, dtype=float)
    if v.shape != (grid.n1,):
        raise ValueError(f"zero mode must have shape ({grid.n1},)")
    steps = 0.5 * grid.h1 * (v[:-1] + v[1:])
    return np.concatenate(([0.0], np.cumsum(steps)))


def shift_normalize(pert: np.ndarray, shock: ShockData, grid: ChannelGrid) -> float:
    """Shift a of the background profile that zeroes the perturbation mass.

    ``pert`` is u0 - U, the initial field less the unshifted profile of
    ``shock``, and a = M / (u_plus - u_minus) with M its total mass; the
    translation identity int(U(x+a) - U(x)) dx = a (u_plus - u_minus) then
    makes the anti-derivative of u0 - U(.+a) vanish at both ends.
    The caller re-bases the background by evaluating the profile at xi + a.
    """
    return integrate(pert, grid) / (shock.u_plus - shock.u_minus)
