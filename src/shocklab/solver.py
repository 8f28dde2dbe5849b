"""Method-of-lines evolution of the viscous conservation law on the channel.

Space: conservative central differencing of interface fluxes, which adds
no numerical viscosity, and the second-order central Laplacian; periodic
transversally, Dirichlet in x1: the boundary rows keep their initial values
and the interior stencil reads them.
The scheme works in the frame moving with the shock: it folds the shock
speed into the longitudinal flux, g(u) = f1(u) - s u, which keeps the
differencing conservative and the background profile stationary.

Background: the perturbation is measured against the scheme's own
discrete traveling wave, found by Newton with a phase condition (the
freezing method of Beyn & Thuemmler, SIAM J. Appl. Dyn. Syst. 3, 2004),
so an unperturbed run stays at round-off.

Time: fourth-order exponential time differencing, ETDRK4 (Cox & Matthews,
J. Comput. Phys. 176, 2002).  The discrete Laplacian of the interior rows,
with the boundary rows held fixed, is diagonal in the DST-I basis along x1
times the real FFT over the torus, so its exponential is applied exactly
and diffusion sets no step limit.  Advection bounds the step; so does the
decay of a non-zero mode, which drives the zero mode through the flux at
twice the smallest transverse diffusion rate, a forcing the explicit
stages must resolve.  The phi-functions come from the contour integral of
Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005).

Libraries: numpy alone.  numpy 2 and scipy ship the same C++ pocketfft,
which transforms each line the same way whatever the memory layout and
multiplies by its scale factor 1/N, formed in long double, last.  Done the
same way here (`_dst1`, `_to_spectral`), the transforms equal scipy's
`dst`/`idst` type 1 and `rfftn`/`irfftn` bit for bit.  The Newton solve of
`discrete_wave` is `_dgtsv`, a port of reference LAPACK ``dgtsv``, which
scipy's `solve_banded` calls for a tridiagonal matrix, so its solutions
are scipy's bit for bit too.  A run calls no LAPACK: the rate and tail
fits are `analysis.log_linear_fit`'s closed form, and BLAS serves only
`discrete_wave`'s dot products.

A run is a `Problem`; `experiment.build_problem` makes the `Problem` of a
config, a layer this module does not import.  Transversally constant data
in n >= 2 step as their x1 column, at the step of the n-d run.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .analysis import OUTPUT_TIME_REL_TOL, ROUNDOFF_FRACTION, NormSeries
from .errors import (ArgumentError, BlowupError, BoundaryLeakError, MassDriftError,
                     OutOfRangeError, RangeExceededError, WaveNotConvergedError)
from .flux import FluxSpec, ShockData
from .grid import DIMENSIONS, ChannelGrid, Field, gradient, integrate, lp_norm
from .modes import antiderivative, shift_normalize, zero_mode
from .profile import ShockProfile, eval_profile

# Guard against division by a vanishing advective speed in the CFL bound.
CFL_EPS = 1e-30
# The safety factor a run's step takes on `advective_dt`.
ADVECTIVE_SAFETY = 0.8
# Perturbation magnitude at the domain ends above this fraction of its sup
# means the box is too small for the run.  End values below the absolute
# floor ROUNDOFF_FRACTION * strength are round-off and never trip it.
LEAK_FRACTION = 1e-4
# Permitted mass drift grows linearly in time: |drift| <= this * (1 + t).
MASS_DRIFT_RATE = 1e-8
# Contour points of the Kassam-Trefethen phi-function quadrature.
CONTOUR_POINTS = 32
# Newton for the discrete traveling wave: finite-difference step of the
# Jacobian and the update size that ends the iteration, both as fractions
# of the shock strength, and the iteration cap.
WAVE_FD_FRACTION = 1e-7
WAVE_TOL_FRACTION = 1e-12
WAVE_MAX_ITER = 10


def _rhs_values(u: np.ndarray, grid: ChannelGrid, shock: ShockData,
                flux: FluxSpec) -> np.ndarray:
    """Semi-discrete right-hand side on raw values; boundary rows are zero."""
    umin, umax = float(u.min()), float(u.max())
    if umin < flux.u_lo or umax > flux.u_hi:
        raise RangeExceededError(
            f"values [{umin:g}, {umax:g}] left the flux validity range "
            f"[{flux.u_lo:g}, {flux.u_hi:g}]")

    s = shock.speed
    h1 = grid.h1

    # One flux serves every direction, so f is evaluated once.  Each
    # temporary is freed at its last use, and results go into buffers that
    # already exist; every operation and operand order is that of the plain
    # stencil (fh[:-1] - fh[1:]) / h1 + (u[2:] - 2 u[1:-1] + u[:-2]) / h1^2,
    # then per torus axis - (f[+1] - f[-1]) / (2 h') + (u[+1] - 2 u + u[-1]) / h'^2.
    f = flux.f1(u)
    g = s * u
    np.subtract(f, g, out=g)
    fh = np.add(g[:-1], g[1:])
    np.multiply(0.5, fh, out=fh)
    out = np.zeros_like(u)
    diff = np.subtract(fh[:-1], fh[1:], out=out[1:-1])
    del fh
    diff /= h1
    lap = np.multiply(2.0, u[1:-1], out=g[1:-1])
    np.subtract(u[2:], lap, out=lap)
    lap += u[:-2]
    lap /= h1 * h1
    diff += lap
    del g, lap

    hp = grid.hprime
    for axis in range(1, u.ndim):
        diff = np.roll(f, -1, axis)
        np.subtract(diff, np.roll(f, 1, axis), out=diff)
        diff /= 2.0 * hp
        out -= diff
        lap = np.roll(u, -1, axis)
        np.subtract(lap, np.multiply(2.0, u, out=diff), out=lap)
        del diff
        lap += np.roll(u, 1, axis)
        lap /= hp * hp
        out += lap
        del lap

    out[0] = 0.0
    out[-1] = 0.0
    return out


def rhs(fld: Field, shock: ShockData, flux: FluxSpec, llf: bool = False) -> np.ndarray:
    """Right-hand side -sum_i d_i f(u) + s d_1 u + Lap u, s the shock speed.

    The boundary rows in x1 do not evolve and serve the interior stencil as
    Dirichlet data; transverse directions wrap periodically.
    The scheme has no Lax-Friedrichs flux.  ``llf`` remains only because
    ``bench/child.py``'s RHS microbenchmark passes it positionally: it must
    be false, and True raises ArgumentError.
    """
    if llf:
        raise ArgumentError([("llf", "must be false: the scheme has no Lax-Friedrichs flux")])
    return _rhs_values(fld.values, fld.grid, shock, flux)


def _min_spacing(grid: ChannelGrid) -> float:
    return grid.h1 if grid.dimension == 1 else min(grid.h1, grid.hprime)


def advective_dt(fld: Field, flux: FluxSpec, safety: float, speed: float = 0.0) -> float:
    """Advective step bound h/(max |f'| + |speed|) of `advance`.

    ``speed`` is added to the flux speeds; `_setup` passes the shock speed,
    the speed of the frame.  It is the only limit for transversally
    constant data; data with a non-zero mode are further bounded by
    `nonzero_mode_dt`.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    vmax = float(np.max(np.abs(flux.df1(fld.values))))
    return safety * _min_spacing(fld.grid) / (vmax + abs(speed) + CFL_EPS)


def _varies_transversally(v: np.ndarray) -> bool:
    """Whether some x1 row of ``v`` is not constant on the torus."""
    first = v[(slice(None),) + (slice(0, 1),) * (v.ndim - 1)]
    return v.ndim > 1 and not np.all(v == first)


def _transverse_eigenvalue(grid: ChannelGrid, q):
    """(2 sin(pi q/N')/h')^2, minus the transverse Laplacian's eigenvalue at
    wavenumber q.  numpy's array and scalar ``sin`` can differ in the last
    bit (N' = 103, q = 1 on x86-64, numpy 2.4): so can a scalar q and an array's."""
    return (2.0 * np.sin(np.pi * q / grid.nprime) / grid.hprime) ** 2


def nonzero_mode_dt(fld: Field) -> float:
    """Step bound 1/(2 lambda_1) for data that vary transversally, else inf.

    lambda_1 (`_transverse_eigenvalue` at q = 1) is the smallest non-zero
    transverse eigenvalue of the discrete Laplacian.  The flux feeds
    products of the non-zero mode into the zero mode, a forcing that decays
    at 2 lambda_1 and that ETDRK4 treats explicitly; a larger step leaves it
    unresolved.  Transversally constant data stay so and need no such bound.
    """
    if not _varies_transversally(fld.values):
        return math.inf
    return 1.0 / (2.0 * float(_transverse_eigenvalue(fld.grid, 1)))


def cfl_dt(fld: Field, flux: FluxSpec, safety: float, speed: float = 0.0) -> float:
    """Explicit step bound: diffusion h^2/(2n) against `advective_dt`.

    This is the limit of a fully explicit scheme such as classical RK4;
    `advance` treats diffusion exactly and needs only `advective_dt`.
    """
    h_min = _min_spacing(fld.grid)
    dt_adv = advective_dt(fld, flux, safety, speed)
    return min(safety * h_min * h_min / (2.0 * fld.grid.dimension), dt_adv)


def _laplacian_symbol(grid: ChannelGrid) -> np.ndarray:
    """Eigenvalues of the interior Laplacian in the DST-I x real-FFT basis.

    Interior rows 1..n1-2 see the boundary rows as Dirichlet data, so the
    x1 part is diagonalised by the DST-I; the torus axis of the real FFT
    keeps only the non-negative wavenumbers.  The layout is that of
    `_to_spectral`: in 3-d that axis comes before the full one.
    """
    j = np.arange(1, grid.n1 - 1)
    lam = -(2.0 * np.sin(np.pi * j / (2.0 * (grid.n1 - 1))) / grid.h1) ** 2
    if grid.dimension == 1:
        return lam
    half = _transverse_eigenvalue(grid, np.arange(grid.nprime // 2 + 1))
    if grid.dimension == 2:
        return lam[:, None] - half
    full = lam[:, None] - _transverse_eigenvalue(grid, np.arange(grid.nprime))
    return full[:, None, :] - half[:, None]


@functools.lru_cache(maxsize=4)
def _etdrk4_coefficients(grid: ChannelGrid, dt: float) -> tuple[np.ndarray, ...]:
    """Read-only (L, E2 - 1, Q, f1, 2 f2, f3) of ETDRK4 on the spectral grid.

    The phi-functions are means over a circle of radius one about L dt,
    which avoids the cancellation of their closed forms near zero.  The
    circle points are summed one at a time, so no array grows by the
    number of points.
    """
    lam = _laplacian_symbol(grid)
    z = lam * dt
    # Do not block or reorder these expressions: their bits depend on the
    # array size.  From 256 KiB of complex values (nonzero-3d's 20,400
    # entries) numpy evaluates ``er * (...)`` in place as ``(...) * er``, and
    # its complex multiply is not commutative to the bit (a * b != b * a in
    # about a third of random entries, x86-64, numpy 2.4).  In blocks of 32
    # x1 rows f1, f2 and f3 differ from the whole-array values in 3547, 1073
    # and 980 of those entries; writing ``np.multiply(tmp, er)`` makes blocks
    # agree on that grid but changes the bits of every grid below 256 KiB.
    q, f1, f2, f3 = (np.zeros_like(z) for _ in range(4))
    for k in range(CONTOUR_POINTS):
        r = z + np.exp(1j * np.pi * (k + 0.5) / CONTOUR_POINTS)
        er = np.exp(r)
        r3 = r * r * r
        q += ((np.exp(0.5 * r) - 1.0) / r).real
        f1 += ((-4.0 - r + er * (4.0 - 3.0 * r + r * r)) / r3).real
        f2 += ((2.0 + r + er * (r - 2.0)) / r3).real
        f3 += ((-4.0 - 3.0 * r - r * r + er * (4.0 - r)) / r3).real
    scale = dt / CONTOUR_POINTS
    coefs = (lam, np.expm1(0.5 * z), q * scale, f1 * scale,
             f2 * (2.0 * scale), f3 * scale)
    for c in coefs:
        c.flags.writeable = False
    return coefs


def _pocketfft_scale(n: int) -> float:
    """1/n as pocketfft forms its scale factors: in long double, then rounded."""
    return float(np.longdouble(1) / np.longdouble(n))


def _dst1(v: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times the DST-I of ``v`` along axis 0, as pocketfft's DST-I.

    That is minus the imaginary part of bins 1..N of the real FFT of the odd
    extension (0, v, 0, -v reversed) of length 2(N+1).  Negation is exact
    and rounding symmetric, so the product with -scale equals pocketfft's
    negated scaled bins.
    """
    n = v.shape[0]
    ext = np.empty((2 * n + 2,) + v.shape[1:])
    ext[0] = ext[n + 1] = 0.0
    ext[1:n + 1] = v
    np.negative(v[::-1], out=ext[n + 2:])
    spec = np.fft.rfft(ext, axis=0)
    del ext
    return np.multiply(spec.imag[1:n + 1], -scale)


def _to_spectral(v: np.ndarray) -> np.ndarray:
    """DST-I along x1, then the real FFT over the torus.

    The values are those of scipy's ``dst(type=1)`` then ``rfftn``.  In
    3-d the two transverse axes are stored swapped, so that the complex
    FFT, which follows the real one, runs along the contiguous last axis.
    """
    c = _dst1(v, 1.0)
    if v.ndim == 1:
        return c
    c = np.fft.rfft(c, axis=-1)
    if v.ndim == 2:
        return c
    c = np.ascontiguousarray(c.swapaxes(1, 2))
    return np.fft.fft(c, axis=-1)


def _from_spectral(c: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_to_spectral` for interior values of the given shape.

    ``c`` is left intact.  ``norm="forward"`` leaves numpy's inverse FFTs
    unscaled; the torus scale 1/N'^(n-1) multiplies the output of the real
    inverse FFT, where scipy's ``irfftn`` applies it.
    """
    if len(shape) > 1:
        if len(shape) == 3:
            c = np.fft.ifft(c, axis=-1, norm="forward")
            c = np.ascontiguousarray(c.swapaxes(1, 2))
        c = np.fft.irfft(c, n=shape[-1], axis=-1, norm="forward")
        c *= _pocketfft_scale(math.prod(shape[1:]))
    return _dst1(c, _pocketfft_scale(2 * shape[0] + 2))


def _blowup_guard(u: np.ndarray) -> tuple[float, float]:
    """Ten times the range of u about its midpoint."""
    mid = 0.5 * (float(u.max()) + float(u.min()))
    half = 0.5 * (float(u.max()) - float(u.min()))
    return (mid - 10.0 * half, mid + 10.0 * half)


def advance(fld: Field, dt: float, shock: ShockData, flux: FluxSpec,
            llf: bool = False, blowup_bounds: tuple[float, float] | None = None) -> Field:
    """One ETDRK4 step of the interior rows; the boundary rows do not change.

    The step works in increment form on the full right-hand side F of
    `rhs`, so diffusion is not split from it.  With hats for the spectral
    transform of interior rows, L the Laplacian symbol, E2 = exp(L dt/2)
    and Q, f1, f2, f3 the phi-function weights,

        da = Q F(u),   db = Q (F(u + da) - L da),
        dc = E2 da + Q (2 F(u + db) - F(u) - 2 L db),
        u += f1 F(u) + 2 f2 (F(u + da) + F(u + db)) + f3 F(u + dc)
             - L (2 f2 (da + db) + f3 dc).

    Diffusion is exact, so no diffusive limit applies: the step is bounded
    by `advective_dt` and, for data with a non-zero mode, by
    `nonzero_mode_dt`.  A zero step returns the input values unchanged.

    The step keeps no workspace: no stage buffer outlives its stage, each
    array is freed at its last use, and products go into buffers already
    dead, so a 512 x 8 x 8 step peaks at ~70 B of arrays per cell.  The
    operand order of each product is fixed as written: numpy's complex
    multiply is not commutative to the bit (see `_etdrk4_coefficients`), so
    reordering a product may change the step's bits.

    ``blowup_bounds`` are the (low, high) guard values; when omitted they
    are derived from the input field as ten times its range about its
    midpoint.  ``llf`` remains only because ``bench/child.py`` reads it
    from the first step's arguments: it must be false, and True raises
    ArgumentError, as in `rhs`.
    """
    if llf:
        raise ArgumentError([("llf", "must be false: the scheme has no Lax-Friedrichs flux")])
    grid = fld.grid
    u = fld.values
    lam, e2m1, q, f1, f2x2, f3 = _etdrk4_coefficients(grid, float(dt))

    def u_plus(d):
        """u plus the inverse transform of the spectral increment d, which is
        formed before the copy of u is made."""
        inc = _from_spectral(d, u[1:-1].shape)
        v = u.copy()
        v[1:-1] += inc
        return v

    def stage(d):
        """F(u + d) - L d for the spectral stage increment d."""
        v = u_plus(d)
        r = _rhs_values(v, grid, shock, flux)
        del v
        t = _to_spectral(r[1:-1])
        del r
        t -= lam * d
        return t

    # With t_a, t_b, t_c the stage values of F(u + d) - L d, the weights
    # read db = Q t_a, dc = (E2 - 1) da + 2 Q t_b (as Q F(u) = da) and
    # u += f1 F(u) + 2 f2 (t_a + t_b) + f3 t_c; the sum builds up in acc.
    acc = _to_spectral(_rhs_values(u, grid, shock, flux)[1:-1])
    da = q * acc
    acc *= f1
    t = stage(da)
    acc += f2x2 * t
    # db = Q t_a in t_a's buffer, dead once its term is in acc
    t = stage(np.multiply(q, t, out=t))
    acc += f2x2 * t
    t *= q
    t *= 2.0
    da *= e2m1
    da += t
    del t
    t = stage(da)
    del da
    acc += f3 * t
    del t
    un = u_plus(acc)

    lo, hi = _blowup_guard(u) if blowup_bounds is None else blowup_bounds
    if float(un.min()) < lo or float(un.max()) > hi:
        raise BlowupError(
            f"values [{un.min():g}, {un.max():g}] exceeded the guard [{lo:g}, {hi:g}]")
    return Field(grid=grid, values=un, time=fld.time + dt)


def _mode_coefficients(seed: int, axis: int, k: int) -> tuple[float, float]:
    """The cos and sin coefficients (a, b) of transverse mode k on ``axis``.

    Two standard normals by Box-Muller from a ``random.Random`` keyed by
    the string "seed/axis/k": each pair depends on (seed, axis, k) alone,
    not on how many modes are drawn before it, and ``random()`` is the
    stream Python keeps the same across versions.
    """
    rng = random.Random(f"{seed}/{axis}/{k}")
    u1, u2 = rng.random(), rng.random()
    # random() lies in [0, 1), so the logarithm's argument is positive
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    phi = 2.0 * math.pi * u2
    return r * math.cos(phi), r * math.sin(phi)


def _random_modes(grid: ChannelGrid, seed: int) -> np.ndarray:
    """The transverse factor of "random-nonzero-mode": modes 1 <= k <= N'/4
    of each transverse axis, with the coefficients `_mode_coefficients`."""
    kmax = max(1, grid.nprime // 4)
    trans = np.zeros(grid.shape[1:])
    for axis in range(grid.dimension - 1):
        coord = grid.xprime.reshape((-1,) + (1,) * (grid.dimension - 2 - axis))
        for k in range(1, kmax + 1):
            a, b = _mode_coefficients(seed, axis, k)
            trans = trans + a * np.cos(2.0 * np.pi * k * coord) \
                + b * np.sin(2.0 * np.pi * k * coord)
    return trans


# Each perturbation kind's least dimension n and its factor on the Gaussian
# envelope exp(-(x1/width)^2), of the grid, the column x1/width and the seed.
_PERTURBATION_FACTORS = {
    "none": (1, None),
    "gaussian-bump": (1, lambda grid, xi, seed: 1.0),
    "odd-bump": (1, lambda grid, xi, seed: xi),
    "random-nonzero-mode": (2, lambda grid, xi, seed: _random_modes(grid, seed)),
}
PERTURBATION_KINDS = tuple(_PERTURBATION_FACTORS)


def perturbation_issues(dimension, kind, amplitude, width, seed) -> list[tuple[str, str]]:
    """Each argument of `build_perturbation` that breaks its rule, with the
    rule; a grid ``dimension`` that `grid_issues` rejects is left to it."""
    issues = []
    if kind not in PERTURBATION_KINDS:
        issues.append(("kind", f"must be one of {PERTURBATION_KINDS}"))
    elif dimension in DIMENSIONS and dimension < _PERTURBATION_FACTORS[kind][0]:
        issues.append(("kind", f"{kind} needs a transverse direction"))
    if not 0.0 <= amplitude < math.inf:
        issues.append(("amplitude", "must be nonnegative and finite"))
    if not 0.0 < width < math.inf:
        issues.append(("width", "must be positive and finite"))
    if seed < 0:
        issues.append(("seed", "must be nonnegative"))
    return issues


def build_perturbation(grid: ChannelGrid, kind: str, amplitude: float, width: float,
                       seed: int) -> np.ndarray:
    """Initial perturbation, normalized so its max magnitude equals ``amplitude``.

    "none" is zero; every other kind of PERTURBATION_KINDS is a Gaussian
    envelope in x1 times its factor in _PERTURBATION_FACTORS.  "gaussian-bump"
    and "odd-bump" are transversally constant; the odd bump carries zero
    total mass.  "random-nonzero-mode" excites the resolved transverse
    Fourier modes 1 <= k <= N'/4 of each transverse axis, drawn by
    `_mode_coefficients` from ``seed``, so its transverse average vanishes
    identically.  Arguments that break a rule of `perturbation_issues` raise
    ArgumentError, and so does a ``width`` whose shape underflows at every
    grid point, as a bump narrower than the spacing can.
    """
    if issues := perturbation_issues(grid.dimension, kind, amplitude, width, seed):
        raise ArgumentError(issues)
    if kind == "none" or amplitude == 0.0:
        return np.zeros(grid.shape)

    xi = grid.x1.reshape(grid.column) / width
    envelope = np.exp(-(xi ** 2))
    pert = envelope * _PERTURBATION_FACTORS[kind][1](grid, xi, seed)
    pert = np.broadcast_to(pert, grid.shape)
    peak = float(np.max(np.abs(pert)))
    if peak == 0.0 or math.isinf(amplitude / peak):
        raise ArgumentError([("width", f"the {kind} of width {width:g} underflows "
                                       "at every grid point")])
    return pert * (amplitude / peak)


def _record_norms(u: np.ndarray, bg: np.ndarray, grid: ChannelGrid,
                  p_list, mass0: float) -> dict:
    """All per-output diagnostics of the perturbation phi = u - background.

    ``u`` is not written to.  phi's own norms are taken first; its buffer
    then holds the non-zero mode phi - zm, from the zero mode zm already
    taken, and the squared gradient components of the non-zero mode are
    summed into the first of them.  Each field-size temporary is freed at
    its last use, and every operation keeps the operand order of the plain
    expressions ``phi - zm``, ``sum(c * c for c in gradient(nz))`` and
    ``np.sqrt(...)``, so the record's bits are theirs.
    """
    phi = u - bg.reshape(grid.column)
    zm = zero_mode(phi)
    pert_l2, pert_linf = lp_norm(phi, 2.0, grid), lp_norm(phi, np.inf, grid)
    mass_drift = abs(integrate(phi, grid) - mass0)
    leak = float(max(np.max(np.abs(phi[:2])), np.max(np.abs(phi[-2:]))))
    nz = phi
    del phi
    nz -= zm.reshape(grid.column)
    anti = antiderivative(zm, grid)

    out = {
        "pert_L2": pert_l2,
        "pert_Linf": pert_linf,
        "zmode_L2": lp_norm(zm, 2.0, grid),
        "zmode_Linf": float(np.max(np.abs(zm))),
        "dzmode_L2": lp_norm(gradient(zm, grid)[0], 2.0, grid),
        "nzmode_L2": lp_norm(nz, 2.0, grid),
        "nzmode_Linf": lp_norm(nz, np.inf, grid),
        "mass_drift": mass_drift,
        "boundary_leak": leak,
    }
    grad = gradient(nz, grid)
    grad_nz = np.multiply(grad[0], grad[0], out=grad[0])
    for k in range(1, len(grad)):
        grad_nz += np.multiply(grad[k], grad[k], out=grad[k])
    del grad
    np.sqrt(grad_nz, out=grad_nz)
    for p in p_list:
        out[f"Phi_L{p:g}"] = lp_norm(anti, float(p), grid)
        out[f"nzmode_W1L{p:g}"] = (lp_norm(nz, float(p), grid)
                                   + lp_norm(grad_nz, float(p), grid))
    return out


def _dgtsv(dl: list, d: list, du: list, cols: list) -> list:
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``dl``, ``d``, ``du`` for each right-hand side in ``cols``.

    A port of reference LAPACK ``dgtsv``: Gaussian elimination with
    partial pivoting, whose row interchanges fill a second superdiagonal
    kept in ``dl``, then back substitution, one column after the other.
    The operations and their order are those of ``dgtsv``, on Python
    floats.  All lists are overwritten; the returned ``cols`` holds the
    solutions.  A zero pivot raises WaveNotConvergedError.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise WaveNotConvergedError(f"singular tridiagonal matrix: zero pivot "
                                            f"in row {i}")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in cols:
                b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in cols:
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise WaveNotConvergedError(f"singular tridiagonal matrix: zero pivot in "
                                    f"row {n - 1}")
    for b in cols:
        b[n - 1] = b[n - 1] / d[n - 1]
        if n > 1:
            b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return cols


def discrete_wave(grid: ChannelGrid, prof: ShockProfile, a: float) -> np.ndarray:
    """Discrete traveling wave U_h of the scheme at phase a.

    The shock and its flux are ``prof.shock``.

    Newton solves the interior rows of the 1-d right-hand side F(U_h) = 0,
    starting from the samples U(x1 + a) of the continuous profile, with
    the boundary rows held at those samples.  The discrete waves form a
    one-parameter family of translates, so the row at the steepest sample
    is replaced by the trapezoid phase condition int(U_h - U(. + a)) = 0.
    That row keeps a residual of the size of the flux imbalance between the
    boundary rows and the tails of the wave, exponentially small in L; all
    other rows vanish to round-off.
    The Jacobian is tridiagonal; it is taken by three finite-difference
    evaluations of F, one per column colour mod 3.  Each Newton update
    costs one banded solve with two right-hand sides: the matrix is the
    Jacobian with the phase row replaced by the identity row, which splits
    into two well-conditioned Dirichlet problems, and the phase row enters
    by the Sherman-Morrison formula.  A zero pivot of that solve raises
    WaveNotConvergedError.  Returns the n1 samples of U_h.
    """
    shock = prof.shock
    u, du = eval_profile(prof, grid.x1 + a)
    target = u.copy()
    w = grid.w1
    wi = w[1:-1]
    n = grid.n1 - 2
    m = int(np.argmax(np.abs(du[1:-1])))
    cols = np.arange(n) % 3
    step = WAVE_FD_FRACTION * shock.strength
    e_m = np.zeros(n)
    e_m[m] = 1.0

    def residual(v):
        return _rhs_values(v, grid, shock, shock.flux)[1:-1]

    for _ in range(WAVE_MAX_ITER):
        f = residual(u)
        diffs = np.empty((3, n))
        for c in range(3):
            v = u.copy()
            v[1:-1][cols == c] += step
            diffs[c] = (residual(v) - f) / step
        # the Jacobian's diagonals: row i of diffs[c] holds the entry of
        # column j with j = i - 1, i or i + 1 and j mod 3 = c
        sub = diffs[cols[:-1], np.arange(1, n)]
        diag = diffs[cols, np.arange(n)]
        sup = diffs[cols[1:], np.arange(n - 1)]
        # identity phase row; the slices are empty when m is an end row
        sub[m - 1:m] = 0.0
        diag[m] = 1.0
        sup[m:m + 1] = 0.0
        f[m] = 0.0
        y, z = map(np.array, _dgtsv(sub.tolist(), diag.tolist(), sup.tolist(),
                                    [(-f).tolist(), e_m.tolist()]))
        phase = float(w @ (u - target))
        update = y - z * ((wi @ y + phase) / (wi @ z))
        u[1:-1] += update
        if float(np.max(np.abs(update))) <= WAVE_TOL_FRACTION * shock.strength:
            return u
    raise WaveNotConvergedError(
        f"discrete traveling wave at phase {a:g}: Newton update still "
        f"{np.max(np.abs(update)):g} after {WAVE_MAX_ITER} iterations")


@dataclass(frozen=True, eq=False)
class Problem:
    """One run of `simulate`: the solved profile of the shock (``.shock``
    holds the flux), the grid, the initial perturbation on it, and outputs
    every ``dt_out`` up to ``t_final`` with Phi_Lp channels for ``p_list``.
    The profile must reach 1 + |a| beyond the grid's x1 range, where a is
    the run's shift (the guard in `_setup`), so that the shifted background
    stays inside it with a margin of 1.
    """

    profile: ShockProfile
    grid: ChannelGrid
    perturbation: np.ndarray
    t_final: float
    dt_out: float
    p_list: tuple[float, ...]


def whole_outputs(t_final: float, dt_out: float) -> list[tuple[str, str]]:
    """Each of ``t_final`` and ``dt_out`` that breaks its rule, with the rule:
    t_final is positive and finite, and dt_out divides it into one or more
    whole outputs, within OUTPUT_TIME_REL_TOL of t_final/dt_out."""
    finite = 0.0 < t_final < math.inf
    issues = [] if finite else [("t_final", "must be positive and finite")]
    n_out = t_final / dt_out if finite and 0.0 < dt_out <= t_final else 0.0
    if not n_out or abs(n_out - round(n_out)) > OUTPUT_TIME_REL_TOL * n_out:
        issues.append(("dt_out", "must divide t_final into one or more whole outputs"))
    return issues


def p_list_issues(p_list) -> list[tuple[str, str]]:
    """``p_list`` with the rule it breaks, if any: a non-empty list of finite
    exponents p >= 1, whose channels, named f"{p:g}", differ."""
    if not p_list or any(not 1.0 <= p < math.inf for p in p_list):
        return [("p_list", "must be a non-empty list of finite exponents >= 1")]
    seen = {}
    for p in p_list:
        if (name := f"{p:g}") in seen:
            return [("p_list", f"{seen[name]!r} and {p!r} share the channel {name}")]
        seen[name] = p
    return []


def _setup(problem: Problem) -> tuple[Field, np.ndarray, int, dict]:
    """The initial field, background, sub-steps per output and meta of a run.

    The initial field is the `discrete_wave` at phase 0 plus the
    perturbation, and the run measures against the `discrete_wave` at the
    phase a of `shift_normalize`; a profile short of `Problem`'s rule
    raises OutOfRangeError.  A perturbation not of the grid's shape, a
    schedule or exponents that break `whole_outputs` or `p_list_issues`
    raise one ArgumentError.  The step dt_out / n_sub is the largest such
    step within `advective_dt` (at ADVECTIVE_SAFETY) and `nonzero_mode_dt`
    of u0.
    The meta records the problem, dt, a, the initial mass and whether the
    run is ``reduced``: n >= 2 and the initial field transversally constant.
    """
    prof, grid = problem.profile, problem.grid
    shock = prof.shock
    issues = whole_outputs(problem.t_final, problem.dt_out) + p_list_issues(problem.p_list)
    if (shape := problem.perturbation.shape) != grid.shape:
        issues.append(("perturbation", f"shape {shape} does not match grid {grid.shape}"))
    if issues:
        raise ArgumentError(issues)

    u0 = discrete_wave(grid, prof, 0.0).reshape(grid.column) + problem.perturbation
    fld = Field(grid=grid, values=u0, time=0.0)
    u_profile, _ = eval_profile(prof, grid.x1)
    a = shift_normalize(u0 - u_profile.reshape(grid.column), shock, grid)
    reach = min(-grid.half_length - prof.xi[0], prof.xi[-1] - grid.half_length)
    if abs(a) > reach - 1.0:
        raise OutOfRangeError(f"shift {a:g} needs a profile reaching {1.0 + abs(a):g} "
                              f"beyond the grid's x1 range; it reaches {reach:g}")
    bg = discrete_wave(grid, prof, a)

    dt_bound = min(advective_dt(fld, shock.flux, ADVECTIVE_SAFETY, speed=shock.speed),
                   nonzero_mode_dt(fld))
    n_sub = max(1, math.ceil(problem.dt_out / dt_bound))
    meta = {"p_list": [float(p) for p in problem.p_list],
            "dimension": grid.dimension, "n1": grid.n1, "nprime": grid.nprime,
            "half_length": grid.half_length,
            "dt": problem.dt_out / n_sub, "shift": a,
            "mass_initial": integrate(u0 - bg.reshape(grid.column), grid),
            "u_minus": shock.u_minus, "u_plus": shock.u_plus,
            "speed": shock.speed, "strength": shock.strength,
            "reduced": grid.dimension > 1 and not _varies_transversally(u0)}
    return fld, bg, n_sub, meta


def simulate(problem: Problem) -> tuple[dict, Iterator[tuple[Field, dict]]]:
    """Set up ``problem`` now; return its meta and its lazy output stream.

    Set-up errors, such as a shift too large, raise at once; the initial
    field, background and step are those of `_setup`, so reruns are
    bit-identical.  The scheme keeps transversally constant data so, and
    with n >= 2 such data step as their x1 column on the n = 1 grid, at the
    step of the n-d run: the meta's ``reduced`` is then true and the
    yielded fields hold read-only broadcasts of the column.

    The stream computes each (field, norm row) at t = 0, dt_out, ...,
    t_final when asked and never modifies a yielded field.  An output whose
    monitor trips raises BoundaryLeakError (end values below
    ROUNDOFF_FRACTION of the shock strength do not count) or
    MassDriftError instead; a step may raise BlowupError.  `run_simulation`
    collects the stream into the run's `NormSeries`.
    """
    fld, bg, n_sub, meta = _setup(problem)
    return meta, _evolve(problem, fld, bg, n_sub, meta)


def run_simulation(problem: Problem) -> NormSeries:
    """The whole `simulate` stream of ``problem`` as one norm series; its meta
    is that of `simulate`, with the run's dt."""
    meta, stream = simulate(problem)
    return NormSeries.from_rows([(f.time, r) for f, r in stream], meta)


def _evolve(problem: Problem, fld: Field, bg: np.ndarray, n_sub: int,
            meta: dict) -> Iterator[tuple[Field, dict]]:
    """The time loop of `simulate` from `_setup`'s values, with the leak and
    mass-drift monitors."""
    shock, grid, p_list = problem.profile.shock, fld.grid, problem.p_list
    dt, mass0 = meta["dt"], meta["mass_initial"]
    n_out = int(round(problem.t_final / problem.dt_out))
    leak_floor = ROUNDOFF_FRACTION * shock.strength
    guard = _blowup_guard(fld.values)
    reduced = meta["reduced"]
    if reduced:
        fld = Field(grid=replace(grid, dimension=1, nprime=1),
                    values=fld.values.reshape(grid.n1, -1)[:, 0].copy())

    def output(state: Field, t: float) -> Field:
        values = np.broadcast_to(state.values.reshape(grid.column), grid.shape) \
            if reduced else state.values
        return Field(grid=grid, values=values, time=t)

    out = output(fld, 0.0)
    yield out, _record_norms(out.values, bg, grid, p_list, mass0)
    for k_out in range(1, n_out + 1):
        for _ in range(n_sub):
            fld = advance(fld, dt, shock, shock.flux, blowup_bounds=guard)
        # k * dt_out can overshoot t_final by an ulp; that output is labelled t_final
        t = k_out * problem.dt_out
        if math.isclose(t, problem.t_final, rel_tol=OUTPUT_TIME_REL_TOL):
            t = float(problem.t_final)
        out = output(fld, t)
        row = _record_norms(out.values, bg, grid, p_list, mass0)
        leak, sup = row["boundary_leak"], row["pert_Linf"]
        if leak > max(LEAK_FRACTION * sup, leak_floor):
            raise BoundaryLeakError(
                f"perturbation {leak:g} at the domain ends at t={t:g} exceeds "
                f"{LEAK_FRACTION:g} of its sup {sup:g}; enlarge half_length")
        drift, allowed = row["mass_drift"], MASS_DRIFT_RATE * (1.0 + t)
        if drift > allowed:
            raise MassDriftError(
                f"drift {drift:.3g} at t={t:g} is {drift / allowed:.3g} times "
                f"its allowance {allowed:.3g}")
        yield out, row
