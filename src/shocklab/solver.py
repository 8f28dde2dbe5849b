"""Method-of-lines evolution of the viscous conservation law on the channel.

Space: conservative central differencing of interface fluxes (optional
local Lax-Friedrichs dissipation), second-order central Laplacian,
periodic transversally, Dirichlet in x1: the boundary rows keep their
initial values and the interior stencil reads them.
The moving frame folds the shock speed into the longitudinal flux,
g(u) = f1(u) - s u, which keeps the differencing conservative and the
background profile stationary.

Background: in the moving frame the perturbation is measured against the
scheme's own discrete traveling wave, found by Newton with a phase
condition (the freezing method of Beyn & Thuemmler, SIAM J. Appl. Dyn.
Syst. 3, 2004), so an unperturbed run stays at round-off.  The lab frame
keeps the translated continuous profile and its O(h1^2) offset.

Time: fourth-order exponential time differencing, ETDRK4 (Cox & Matthews,
J. Comput. Phys. 176, 2002).  The discrete Laplacian of the interior rows,
with the boundary rows held fixed, is diagonal in the DST-I basis along x1
times the real FFT over the torus, so its exponential is applied exactly
and diffusion sets no step limit.  Advection bounds the step; so does the
decay of a non-zero mode, which drives the zero mode through the flux at
twice the smallest transverse diffusion rate, a forcing the explicit
stages must resolve.  The phi-functions come from the contour integral of
Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005).
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import dst, idst, irfftn, rfftn
from scipy.linalg import solve_banded

from .analysis import NormSeries
from .config import ExperimentConfig, build_flux, validate_config
from .errors import (BlowupError, BoundaryLeakError, MassDriftError,
                     NonzeroModePresentError, OutOfRangeError, RangeExceededError,
                     WaveNotConvergedError)
from .flux import FluxSpec, ShockData, make_shock
from .grid import ChannelGrid, Field, gradient, integrate, lp_norm
from .modes import antiderivative, nonzero_mode, shift_normalize, zero_mode
from .profile import ShockProfile, eval_profile, solve_profile

# Guard against division by a vanishing advective speed in the CFL bound.
CFL_EPS = 1e-30
# Perturbation magnitude at the domain ends above this fraction of its sup
# means the box is too small for the run.  End values below the absolute
# floor LEAK_FLOOR_FRACTION * strength are round-off and never trip it.
LEAK_FRACTION = 1e-4
LEAK_FLOOR_FRACTION = 1e-12
# Permitted mass drift grows linearly in time: |drift| <= this * (1 + t).
MASS_DRIFT_RATE = 1e-8
# Extra profile half-length beyond the box, so the shifted background stays
# inside the solved range.
PROFILE_PAD = 4.0
# Step of the RK4 march that solves the profile ODE.
PROFILE_STEP = 1e-3
# Contour points of the Kassam-Trefethen phi-function quadrature.
CONTOUR_POINTS = 32
# Newton for the discrete traveling wave: finite-difference step of the
# Jacobian and the update size that ends the iteration, both as fractions
# of the shock strength, and the iteration cap.
WAVE_FD_FRACTION = 1e-7
WAVE_TOL_FRACTION = 1e-12
WAVE_MAX_ITER = 10


@dataclass
class SimulationRecord:
    """Norm series of a whole simulation; its meta holds the run's dt."""

    norms: NormSeries


def _rhs_values(u: np.ndarray, grid: ChannelGrid, shock: ShockData,
                flux: FluxSpec, moving: bool, llf: bool) -> np.ndarray:
    """Semi-discrete right-hand side on raw values; boundary rows are zero."""
    umin, umax = float(u.min()), float(u.max())
    if umin < flux.u_lo or umax > flux.u_hi:
        raise RangeExceededError(
            f"values [{umin:g}, {umax:g}] left the flux validity range "
            f"[{flux.u_lo:g}, {flux.u_hi:g}]")

    s = shock.speed if moving else 0.0
    h1 = grid.h1

    # one flux serves every direction, so f and f' are evaluated once
    f = flux.f1(u)
    g_long = f - s * u if moving else f
    fh = 0.5 * (g_long[:-1] + g_long[1:])
    if llf:
        df = flux.df1(u)
        speeds = np.abs(df)
        speed_l = np.abs(df[:-1] - s)
        speed_r = np.abs(df[1:] - s)
        fh -= 0.5 * np.maximum(speed_l, speed_r) * (u[1:] - u[:-1])
    out = np.zeros_like(u)
    out[1:-1] = (fh[:-1] - fh[1:]) / h1 + (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h1 * h1)

    hp = grid.hprime
    for axis in range(1, u.ndim):
        if llf:
            sp = np.maximum(speeds, np.roll(speeds, -1, axis))
            fh_t = 0.5 * (f + np.roll(f, -1, axis)) \
                - 0.5 * sp * (np.roll(u, -1, axis) - u)
            out -= (fh_t - np.roll(fh_t, 1, axis)) / hp
        else:
            out -= (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * hp)
        out += (np.roll(u, -1, axis) - 2.0 * u + np.roll(u, 1, axis)) / (hp * hp)

    out[0] = 0.0
    out[-1] = 0.0
    return out


def rhs(fld: Field, shock: ShockData, flux: FluxSpec, llf: bool = False) -> np.ndarray:
    """Right-hand side -sum_i d_i f(u) + Lap u (+ s d_1 u in the moving frame).

    The boundary rows in x1 do not evolve and serve the interior stencil as
    Dirichlet data; transverse directions wrap periodically.
    """
    return _rhs_values(fld.values, fld.grid, shock, flux,
                       moving=(fld.frame == "moving"), llf=llf)


def _min_spacing(grid: ChannelGrid) -> float:
    return grid.h1 if grid.dimension == 1 else min(grid.h1, grid.hprime)


def advective_dt(fld: Field, flux: FluxSpec, grid: ChannelGrid, safety: float,
                 speed: float = 0.0) -> float:
    """Advective step bound h/(max |f'| + |speed|) of `advance`.

    ``speed`` is the frame speed added to the flux speeds (zero in the lab
    frame).  It is the only limit for transversally constant data; data
    with a non-zero mode are further bounded by `nonzero_mode_dt`.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    vmax = float(np.max(np.abs(flux.df1(fld.values))))
    return safety * _min_spacing(grid) / (vmax + abs(speed) + CFL_EPS)


def nonzero_mode_dt(fld: Field) -> float:
    """Step bound 1/(2 lambda_1) for data that vary transversally, else inf.

    lambda_1 = (2 sin(pi/N')/h')^2 is the smallest non-zero transverse
    eigenvalue of the discrete Laplacian.  The flux feeds products of the
    non-zero mode into the zero mode, a forcing that decays at 2 lambda_1
    and that ETDRK4 treats explicitly; a larger step leaves it unresolved.
    Transversally constant data stay so and need no such bound.
    """
    v = fld.values
    grid = fld.grid
    if v.ndim == 1 or np.all(v == v[(slice(None),) + (slice(0, 1),) * (v.ndim - 1)]):
        return math.inf
    lam1 = (2.0 * math.sin(math.pi / grid.nprime) / grid.hprime) ** 2
    return 1.0 / (2.0 * lam1)


def cfl_dt(fld: Field, flux: FluxSpec, grid: ChannelGrid, safety: float,
           speed: float = 0.0) -> float:
    """Explicit step bound: diffusion h^2/(2n) against `advective_dt`.

    This is the limit of a fully explicit scheme such as classical RK4;
    `advance` treats diffusion exactly and needs only `advective_dt`.
    """
    h_min = _min_spacing(grid)
    dt_adv = advective_dt(fld, flux, grid, safety, speed)
    return min(safety * h_min * h_min / (2.0 * grid.dimension), dt_adv)


def _laplacian_symbol(grid: ChannelGrid) -> np.ndarray:
    """Eigenvalues of the interior Laplacian in the DST-I x real-FFT basis.

    Interior rows 1..n1-2 see the boundary rows as Dirichlet data, so the
    x1 part is diagonalised by the DST-I; the last transverse axis keeps
    only the non-negative wavenumbers of the real FFT.
    """
    j = np.arange(1, grid.n1 - 1)
    lam = -(2.0 * np.sin(np.pi * j / (2.0 * (grid.n1 - 1))) / grid.h1) ** 2
    n_trans = grid.dimension - 1
    for axis in range(n_trans):
        q = np.arange(grid.nprime // 2 + 1 if axis == n_trans - 1 else grid.nprime)
        lam = lam[..., None] - (2.0 * np.sin(np.pi * q / grid.nprime)
                                / grid.hprime) ** 2
    return lam


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


def _to_spectral(v: np.ndarray) -> np.ndarray:
    """DST-I along x1, then the real FFT over the torus."""
    out = dst(v, type=1, axis=0)
    return out if v.ndim == 1 else rfftn(out, axes=tuple(range(1, v.ndim)))


def _from_spectral(c: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `_to_spectral` for interior values of the given shape.

    ``c`` is left intact.
    """
    if len(shape) == 1:
        return idst(c, type=1)
    c = irfftn(c, s=shape[1:], axes=tuple(range(1, len(shape))))
    return idst(c, type=1, axis=0, overwrite_x=True)


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

    ``blowup_bounds`` are the (low, high) guard values; when omitted they
    are derived from the input field as ten times its range about its
    midpoint.
    """
    grid = fld.grid
    moving = fld.frame == "moving"
    u = fld.values
    lam, e2m1, q, f1, f2x2, f3 = _etdrk4_coefficients(grid, float(dt))

    def spectral_rhs(v):
        return _to_spectral(_rhs_values(v, grid, shock, flux, moving, llf)[1:-1])

    def stage(d):
        """F(u + d) - L d for the spectral stage increment d."""
        v = u.copy()
        v[1:-1] += _from_spectral(d, v[1:-1].shape)
        t = spectral_rhs(v)
        t -= np.multiply(lam, d, out=work)
        return t

    # With t_a, t_b, t_c the stage values of F(u + d) - L d, the weights
    # read db = Q t_a, dc = (E2 - 1) da + 2 Q t_b (as Q F(u) = da) and
    # u += f1 F(u) + 2 f2 (t_a + t_b) + f3 t_c; the sum builds up in acc.
    acc = spectral_rhs(u)
    work = np.empty_like(acc)
    da = q * acc
    acc *= f1
    t = stage(da)
    acc += np.multiply(f2x2, t, out=work)
    t = stage(q * t)
    acc += np.multiply(f2x2, t, out=work)
    t *= q
    t *= 2.0
    da *= e2m1
    da += t
    t = stage(da)
    acc += np.multiply(f3, t, out=work)
    un = u.copy()
    un[1:-1] += _from_spectral(acc, un[1:-1].shape)

    lo, hi = _blowup_guard(u) if blowup_bounds is None else blowup_bounds
    if float(un.min()) < lo or float(un.max()) > hi:
        raise BlowupError(
            f"values [{un.min():g}, {un.max():g}] exceeded the guard [{lo:g}, {hi:g}]")
    return Field(grid=grid, values=un, time=fld.time + dt, frame=fld.frame)


def build_perturbation(cfg: ExperimentConfig, grid: ChannelGrid) -> np.ndarray:
    """Initial perturbation, normalized so its max magnitude equals the amplitude.

    "gaussian-bump" and "odd-bump" are transversally constant; the odd bump
    carries zero total mass.  "random-nonzero-mode" excites seeded resolved
    transverse Fourier modes (|k| <= N'/4) under a Gaussian envelope in x1,
    so its transverse average vanishes identically.
    """
    p = cfg.perturbation
    x1 = grid.x1
    if p.kind == "none" or p.amplitude == 0.0:
        return np.zeros(grid.shape)

    envelope = np.exp(-((x1 / p.width) ** 2))
    if p.kind == "gaussian-bump":
        prof = envelope
    elif p.kind == "odd-bump":
        prof = (x1 / p.width) * envelope
    elif p.kind == "random-nonzero-mode":
        if grid.dimension == 1:
            raise ValueError("random-nonzero-mode needs a transverse direction")
        rng = np.random.default_rng(p.seed)
        kmax = max(1, grid.nprime // 4)
        shape = grid.shape
        trans = np.zeros(shape[1:])
        for axis in range(grid.dimension - 1):
            coord = grid.xprime
            view = [None] * (grid.dimension - 1)
            view[axis] = slice(None)
            coord = coord[tuple(view)]
            for k in range(1, kmax + 1):
                a, b = rng.standard_normal(2)
                trans = trans + a * np.cos(2.0 * np.pi * k * coord) \
                    + b * np.sin(2.0 * np.pi * k * coord)
        out = envelope.reshape((grid.n1,) + (1,) * (grid.dimension - 1)) * trans
        peak = float(np.max(np.abs(out)))
        return out * (p.amplitude / peak)
    else:
        raise ValueError(f"unknown perturbation kind {p.kind!r}")

    prof = prof * (p.amplitude / float(np.max(np.abs(prof))))
    return np.broadcast_to(
        prof.reshape((grid.n1,) + (1,) * (grid.dimension - 1)), grid.shape).copy()


def _record_norms(u: np.ndarray, bg: np.ndarray, grid: ChannelGrid,
                  p_list, mass0: float) -> dict:
    """All per-output diagnostics of the perturbation u - background."""
    pert = Field(grid=grid, values=u - bg.reshape((grid.n1,) + (1,) * (u.ndim - 1)))
    phi = pert.values
    zm = zero_mode(pert)
    nz = nonzero_mode(pert).values
    anti = antiderivative(zm, grid)
    dzm = gradient(zm, grid)[0]

    out = {
        "pert_L2": lp_norm(phi, 2.0, grid),
        "pert_Linf": lp_norm(phi, np.inf, grid),
        "zmode_L2": lp_norm(zm, 2.0, grid),
        "zmode_Linf": float(np.max(np.abs(zm))),
        "dzmode_L2": lp_norm(dzm, 2.0, grid),
        "nzmode_L2": lp_norm(nz, 2.0, grid),
        "nzmode_Linf": lp_norm(nz, np.inf, grid),
        "mass_drift": abs(integrate(phi, grid) - mass0),
        "boundary_leak": float(max(np.max(np.abs(phi[:2])), np.max(np.abs(phi[-2:])))),
    }
    grad_nz = None
    for p in p_list:
        out[f"Phi_L{p:g}"] = lp_norm(anti, float(p), grid)
        if grad_nz is None:
            comps = gradient(nz, grid)
            grad_nz = np.sqrt(sum(c * c for c in comps))
        out[f"nzmode_W1L{p:g}"] = (lp_norm(nz, float(p), grid)
                                   + lp_norm(grad_nz, float(p), grid))
    return out


def discrete_wave(grid: ChannelGrid, shock: ShockData, flux: FluxSpec,
                  prof: ShockProfile, a: float, llf: bool = False) -> np.ndarray:
    """Discrete traveling wave U_h of the moving-frame scheme at phase a.

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
    by the Sherman-Morrison formula.  Returns the n1 samples of U_h.
    """
    u, du = eval_profile(prof, grid.x1 + a, extend=True)
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
        return _rhs_values(v, grid, shock, flux, True, llf)[1:-1]

    for _ in range(WAVE_MAX_ITER):
        f = residual(u)
        diffs = np.empty((3, n))
        for c in range(3):
            v = u.copy()
            v[1:-1][cols == c] += step
            diffs[c] = (residual(v) - f) / step
        # banded storage of the Jacobian: row i of diffs[c] holds the entry
        # of column j with j = i - 1, i or i + 1 and j mod 3 = c
        ab = np.zeros((3, n))
        ab[0, 1:] = diffs[cols[1:], np.arange(n - 1)]
        ab[1] = diffs[cols, np.arange(n)]
        ab[2, :-1] = diffs[cols[:-1], np.arange(1, n)]
        # identity phase row; the slices are empty when m is an end row
        ab[0, m + 1:m + 2] = 0.0
        ab[1, m] = 1.0
        ab[2, m - 1:m] = 0.0
        f[m] = 0.0
        y, z = solve_banded((1, 1), ab, np.column_stack((-f, e_m))).T
        phase = float(w @ (u - target))
        update = y - z * ((wi @ y + phase) / (wi @ z))
        u[1:-1] += update
        if float(np.max(np.abs(update))) <= WAVE_TOL_FRACTION * shock.strength:
            return u
    raise WaveNotConvergedError(
        f"discrete traveling wave at phase {a:g}: Newton update still "
        f"{np.max(np.abs(update)):g} after {WAVE_MAX_ITER} iterations")


def solve_config_profile(cfg: ExperimentConfig) -> ShockProfile:
    """Profile of the config's shock at PROFILE_STEP on half_length +
    PROFILE_PAD, so that a background shifted by up to PROFILE_PAD - 1 (the
    guard in `_setup`) stays inside the solved range."""
    shock = make_shock(build_flux(cfg), cfg.u_minus, cfg.u_plus)
    return solve_profile(shock, cfg.grid.half_length + PROFILE_PAD, PROFILE_STEP)


class _Setup(NamedTuple):
    """Everything a run builds before its first step."""

    shock: ShockData
    grid: ChannelGrid
    prof: ShockProfile
    u0: Field
    shift: float
    background: np.ndarray
    dt_bound: float
    mass0: float


def _setup(cfg: ExperimentConfig, prof: ShockProfile | None) -> _Setup:
    """Problem, initial field, shift a against the profile and background.

    The moving frame starts from the discrete wave at phase 0 and measures
    against the discrete wave at phase a; the lab frame uses the continuous
    profile for both.  ``dt_bound`` is min(`advective_dt`,
    `nonzero_mode_dt`) on the initial field; ``mass0`` is the initial mass.
    """
    validate_config(cfg)
    shock = make_shock(build_flux(cfg), cfg.u_minus, cfg.u_plus)
    grid = ChannelGrid(dimension=cfg.dimension, half_length=cfg.grid.half_length,
                       n1=cfg.grid.n1,
                       nprime=cfg.grid.nprime if cfg.dimension > 1 else 1)
    st = cfg.stepper
    if prof is None:
        prof = solve_config_profile(cfg)

    moving = st.frame == "moving"
    if moving:
        bg = discrete_wave(grid, shock, shock.flux, prof, 0.0, st.llf)
    else:
        bg, _ = eval_profile(prof, grid.x1)
    shape_tail = (1,) * (len(grid.shape) - 1)
    u0 = bg.reshape((grid.n1,) + shape_tail) + build_perturbation(cfg, grid)
    fld = Field(grid=grid, values=u0, time=0.0, frame=st.frame)
    a = shift_normalize(fld, prof, shock)
    if abs(a) > PROFILE_PAD - 1.0:
        raise OutOfRangeError(f"shift {a:g} too large for the solved profile range")
    if moving:
        bg = discrete_wave(grid, shock, shock.flux, prof, a, st.llf)
    else:
        bg = _lab_background(prof, grid, a, shock.speed, 0.0)

    dt_bound = min(advective_dt(fld, shock.flux, grid, st.cfl_safety, speed=shock.speed),
                   nonzero_mode_dt(fld))
    mass0 = integrate(u0 - bg.reshape((grid.n1,) + shape_tail), grid)
    return _Setup(shock, grid, prof, fld, a, bg, dt_bound, mass0)


def _lab_background(prof: ShockProfile, grid: ChannelGrid, a: float,
                    speed: float, t: float) -> np.ndarray:
    """Translated continuous profile U(x1 - s t + a) on the grid."""
    bg, _ = eval_profile(prof, grid.x1 - speed * t + a, extend=True)
    return bg


def simulate(cfg: ExperimentConfig, prof: ShockProfile | None = None
             ) -> tuple[dict, Iterator[tuple[Field, dict]]]:
    """Set up the run of ``cfg`` now; return its meta and its lazy output stream.

    ``prof`` is the config's `solve_config_profile`, solved here when not
    given.  Set-up errors, such as a shift too large, raise at once; each
    frame's initial field and background are those of `_setup`.  The step
    is the largest one that divides dt_out exactly within `advective_dt`
    and `nonzero_mode_dt`, so reruns are bit-identical.

    The stream computes each (field, norm row) at t = 0, dt_out, ...,
    t_final when asked and never modifies a yielded field.  An output whose
    monitor trips raises BoundaryLeakError (end values below
    LEAK_FLOOR_FRACTION of the shock strength do not count) or
    MassDriftError instead; a step may raise BlowupError.
    """
    return _stream(cfg, _setup(cfg, prof))


def run_simulation(cfg: ExperimentConfig,
                   prof: ShockProfile | None = None) -> SimulationRecord:
    """The whole `simulate` stream of ``cfg`` as one norm series."""
    return _collect(*simulate(cfg, prof))


def _collect(meta: dict, stream) -> SimulationRecord:
    return SimulationRecord(NormSeries.from_rows([(f.time, r) for f, r in stream], meta))


def _stream(cfg: ExperimentConfig, setup: _Setup):
    """Meta and output stream of a set-up run, at the largest step within dt_bound."""
    st, grid, shock = cfg.stepper, setup.grid, setup.shock
    n_sub = max(1, math.ceil(st.dt_out / setup.dt_bound))
    meta = {"p_list": [float(p) for p in cfg.p_list],
            "dimension": grid.dimension, "n1": grid.n1, "nprime": grid.nprime,
            "half_length": grid.half_length, "frame": st.frame,
            "dt": st.dt_out / n_sub, "shift": setup.shift, "mass_initial": setup.mass0,
            "u_minus": shock.u_minus, "u_plus": shock.u_plus,
            "speed": shock.speed, "strength": shock.strength}
    return meta, _evolve(cfg, setup, n_sub, meta["dt"])


def _evolve(cfg: ExperimentConfig, setup: _Setup, n_sub: int, dt: float) -> Iterator:
    """The time loop of `simulate`, with the leak and mass-drift monitors."""
    shock, grid, prof, fld, a, bg, _, mass0 = setup
    st = cfg.stepper
    n_out = int(round(st.t_final / st.dt_out))
    leak_floor = LEAK_FLOOR_FRACTION * shock.strength
    guard = _blowup_guard(fld.values)

    yield fld, _record_norms(fld.values, bg, grid, cfg.p_list, mass0)
    for k_out in range(1, n_out + 1):
        for _ in range(n_sub):
            fld = advance(fld, dt, shock, shock.flux, llf=st.llf, blowup_bounds=guard)
        t = k_out * st.dt_out
        fld = Field(grid=grid, values=fld.values, time=t, frame=st.frame)
        if st.frame == "lab":
            bg = _lab_background(prof, grid, a, shock.speed, t)
        row = _record_norms(fld.values, bg, grid, cfg.p_list, mass0)
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
        yield fld, row


def run_1d_reference(cfg: ExperimentConfig) -> SimulationRecord:
    """Same scheme restricted to n=1; closes the zero-mode dynamics exactly.

    Valid only when the initial non-zero mode vanishes, i.e. for
    transversally constant perturbation kinds.  The run takes the step of
    the n-d run of ``cfg`` (whose `advective_dt` sees the transverse
    spacing too), so its norms are those of the n-d zero mode.
    """
    if cfg.perturbation.kind == "random-nonzero-mode":
        raise NonzeroModePresentError(
            "1-d reference needs a transversally constant perturbation")
    setup = _setup(cfg, None)
    cfg1 = copy.deepcopy(cfg)
    cfg1.dimension = 1
    setup1 = _setup(cfg1, setup.prof)._replace(dt_bound=setup.dt_bound)
    return _collect(*_stream(cfg1, setup1))
