"""Channel geometry, field storage, and quadrature-based norms.

The channel is [-L, L] x T^(n-1) with the transverse torus of unit length
and unit total measure.  Quadrature is trapezoidal in x1 (half-weights at
the ends) and the uniform periodic rule in the transverse directions,
whose weights sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadExponentError

# smallest normal double: a sum of |f|^p below it has lost its precision
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ChannelGrid:
    """Discrete channel: n in 1..3, x1 in [-L, L], unit transverse torus."""

    dimension: int
    half_length: float
    n1: int
    nprime: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1..3, got {self.dimension}")
        if self.half_length <= 0.0:
            raise ValueError("half_length must be positive")
        if self.n1 < 16:
            raise ValueError("need at least 16 longitudinal points")
        if self.dimension >= 2 and self.nprime < 4:
            raise ValueError("need at least 4 transverse points")

    @property
    def h1(self) -> float:
        return 2.0 * self.half_length / (self.n1 - 1)

    @property
    def hprime(self) -> float:
        return 1.0 / self.nprime

    @cached_property
    def x1(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n1)

    @cached_property
    def xprime(self) -> np.ndarray:
        return np.arange(self.nprime) * self.hprime

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n1,) + (self.nprime,) * (self.dimension - 1)

    @cached_property
    def w1(self) -> np.ndarray:
        """Trapezoid weights along x1; sums to 2 L."""
        w = np.full(self.n1, self.h1)
        w[0] = w[-1] = 0.5 * self.h1
        return w

    @cached_property
    def weights(self) -> np.ndarray:
        """Full quadrature weights, shaped like a field.

        Transverse weights are 1/N' each, so a transverse slice carries
        unit measure and the total measure is 2 L.
        """
        w = self.w1.copy()
        for _ in range(self.dimension - 1):
            w = w[..., None] * np.full(self.nprime, self.hprime)
        return w


@dataclass
class Field:
    """Solution values on a channel grid at one instant.

    x1 is the shock-attached coordinate xi = x1 - s t.
    """

    grid: ChannelGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def _weights(arr: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Quadrature weights for a grid-shaped array or an x1 slice."""
    if arr.shape == grid.shape:
        return grid.weights
    if arr.shape == (grid.n1,):
        return grid.w1
    raise ValueError(f"array shape {arr.shape} fits neither the grid nor an x1 slice")


def lp_norm(arr: np.ndarray, p, grid: ChannelGrid) -> float:
    """L^p norm by trapezoid-in-x1, uniform-in-x' quadrature; p=inf is max|.|.

    ``arr`` is grid-shaped or a 1-d x1 slice.  The sum of |arr|^p is taken
    directly; only when it underflows to zero or a subnormal, or overflows,
    while max|arr| is positive and finite, is the norm recomputed as
    max|arr| times the norm of arr / max|arr|.
    """
    if not p >= 1.0:
        raise BadExponentError(f"need p >= 1, got {p}")
    w = _weights(arr, grid)
    mag = np.abs(arr)
    if np.isinf(p):
        return float(np.max(mag))
    with np.errstate(over="ignore"):
        total = np.sum(w * mag ** p)
    if not _TINY <= total < np.inf:
        peak = np.max(mag)
        if 0.0 < peak < np.inf:
            return float(peak * np.sum(w * (mag / peak) ** p) ** (1.0 / p))
    return float(total ** (1.0 / p))


def integrate(arr: np.ndarray, grid: ChannelGrid) -> float:
    """Signed full-domain quadrature with the same weights as lp_norm."""
    return float(np.sum(_weights(arr, grid) * arr))


def gradient(arr: np.ndarray, grid: ChannelGrid) -> list[np.ndarray]:
    """Central-difference gradient components, one array per axis of ``arr``.

    One-sided differences at the x1 boundaries, periodic wrap transversally.
    """
    out = []
    d1 = np.empty_like(arr)
    d1[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * grid.h1)
    d1[0] = (arr[1] - arr[0]) / grid.h1
    d1[-1] = (arr[-1] - arr[-2]) / grid.h1
    out.append(d1)
    for axis in range(1, arr.ndim):
        out.append((np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2.0 * grid.hprime))
    return out


def save_field_text(fld: Field, path) -> None:
    """Text snapshot: one header line, then the x1-by-x' matrix."""
    g = fld.grid
    header = (f"shocklab-field n={g.dimension} N1={g.n1} Nprime={g.nprime} "
              f"L={float(g.half_length)!r} t={float(fld.time)!r}")
    flat = fld.values.reshape(g.n1, -1)
    np.savetxt(path, flat, fmt="%.17e", header=header)


def load_field_text(path) -> Field:
    with open(path) as fh:
        header = fh.readline().lstrip("# ").split()
    meta = dict(item.split("=", 1) for item in header[1:])
    grid = ChannelGrid(dimension=int(meta["n"]), half_length=float(meta["L"]),
                       n1=int(meta["N1"]), nprime=int(meta["Nprime"]))
    values = np.loadtxt(path).reshape(grid.shape)
    return Field(grid=grid, values=values, time=float(meta["t"]))
