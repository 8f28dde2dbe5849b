"""Zero/non-zero mode projections, anti-derivative, shift normalization.

The zero mode of a field is its transverse average over the unit torus;
the non-zero mode is the mean-free remainder.  The anti-derivative of the
zero-mode perturbation is the cumulative x1 integral from the left end,
built in the moving frame where the boundary is quiescent.
"""

from __future__ import annotations

import numpy as np

from .flux import ShockData
from .grid import ChannelGrid, Field, integrate
from .profile import ShockProfile, eval_profile


def zero_mode(fld: Field) -> np.ndarray:
    """Transverse average at each x1 (identity for a 1-d field)."""
    if fld.values.ndim == 1:
        return fld.values.copy()
    axes = tuple(range(1, fld.values.ndim))
    return fld.values.mean(axis=axes)


def nonzero_mode(fld: Field) -> Field:
    """Field minus its broadcast zero mode; transverse average vanishes."""
    zm = zero_mode(fld)
    shape = (fld.grid.n1,) + (1,) * (fld.values.ndim - 1)
    return Field(grid=fld.grid, values=fld.values - zm.reshape(shape),
                 time=fld.time, frame=fld.frame)


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


def shift_normalize(u0: Field, profile: ShockProfile, shock: ShockData) -> float:
    """Shift a of the background profile that zeroes the perturbation mass.

    a = M / (u_plus - u_minus) with M the total mass of u0 - U; the
    translation identity int(U(x+a) - U(x)) dx = a (u_plus - u_minus)
    then makes the anti-derivative of u0 - U(.+a) vanish at both ends.
    The caller re-bases the background by evaluating the profile at xi + a.
    """
    bg, _ = eval_profile(profile, u0.grid.x1, extend=True)
    shape = (u0.grid.n1,) + (1,) * (u0.values.ndim - 1)
    mass = integrate(u0.values - bg.reshape(shape), u0.grid)
    return mass / (shock.u_plus - shock.u_minus)
