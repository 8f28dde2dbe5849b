"""Method-of-lines evolution of the viscous conservation law on the channel.

Space: conservative central differencing of interface fluxes (optional
local Lax-Friedrichs dissipation), second-order central Laplacian,
periodic transversally, Dirichlet end states in x1 via ghost values.
The moving frame folds the shock speed into the longitudinal flux,
g(u) = f1(u) - s u, which keeps the differencing conservative and the
background profile stationary.

Time: fourth-order exponential time differencing, ETDRK4 (Cox & Matthews,
J. Comput. Phys. 176, 2002).  The discrete Laplacian of the interior rows,
with the boundary rows held fixed, is diagonal in the DST-I basis along x1
times the real FFT over the torus, so its exponential is applied exactly
and the step is limited by advection alone.  The phi-functions come from
the contour integral of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, idst, irfftn, rfftn

from .analysis import NormSeries
from .config import ExperimentConfig, build_flux, validate_config
from .errors import (BlowupError, BoundaryLeakError, NonzeroModePresentError,
                     RangeExceededError)
from .flux import FluxSpec, ShockData, make_shock
from .grid import ChannelGrid, Field, gradient, integrate, lp_norm
from .modes import antiderivative, shift_normalize, zero_mode
from .profile import ShockProfile, eval_profile, solve_profile

# Guard against division by a vanishing advective speed in the CFL bound.
CFL_EPS = 1e-30
# Perturbation magnitude at the domain ends above this fraction of its sup
# means the box is too small for the run.
LEAK_FRACTION = 1e-4
# Extra profile half-length beyond the box, so the shifted background stays
# inside the solved range.
PROFILE_PAD = 4.0
# Contour points of the Kassam-Trefethen phi-function quadrature.
CONTOUR_POINTS = 32


@dataclass
class SimulationRecord:
    """Norm series plus run-level diagnostics returned by a simulation."""

    norms: NormSeries
    dt: float
    mass_initial: float
    boundary_leak_max: float
    shift: float
    snapshots: list = field(default_factory=list)


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

    ue = np.empty((grid.n1 + 2,) + u.shape[1:])
    ue[0] = shock.u_minus
    ue[-1] = shock.u_plus
    ue[1:-1] = u

    g_long = flux.f1(ue) - s * ue if moving else flux.f1(ue)
    fh = 0.5 * (g_long[:-1] + g_long[1:])
    if llf:
        speed_l = np.abs(flux.df1(ue[:-1]) - s)
        speed_r = np.abs(flux.df1(ue[1:]) - s)
        fh -= 0.5 * np.maximum(speed_l, speed_r) * (ue[1:] - ue[:-1])
    out = (fh[:-1] - fh[1:]) / h1
    out += (ue[2:] - 2.0 * u + ue[:-2]) / (h1 * h1)

    hp = grid.hprime
    for axis in range(1, u.ndim):
        gt = flux.f(axis, u)
        if llf:
            speeds = np.abs(flux.df(axis, u))
            sp = np.maximum(speeds, np.roll(speeds, -1, axis))
            fh_t = 0.5 * (gt + np.roll(gt, -1, axis)) \
                - 0.5 * sp * (np.roll(u, -1, axis) - u)
            out -= (fh_t - np.roll(fh_t, 1, axis)) / hp
        else:
            out -= (np.roll(gt, -1, axis) - np.roll(gt, 1, axis)) / (2.0 * hp)
        out += (np.roll(u, -1, axis) - 2.0 * u + np.roll(u, 1, axis)) / (hp * hp)

    out[0] = 0.0
    out[-1] = 0.0
    return out


def rhs(fld: Field, shock: ShockData, flux: FluxSpec, llf: bool = False) -> np.ndarray:
    """Right-hand side -sum_i d_i f_i(u) + Lap u (+ s d_1 u in the moving frame).

    Dirichlet ghost values pin the end states in x1 and the boundary rows
    themselves do not evolve; transverse directions wrap periodically.
    """
    return _rhs_values(fld.values, fld.grid, shock, flux,
                       moving=(fld.frame == "moving"), llf=llf)


def _min_spacing(grid: ChannelGrid) -> float:
    return grid.h1 if grid.dimension == 1 else min(grid.h1, grid.hprime)


def advective_dt(fld: Field, flux: FluxSpec, grid: ChannelGrid, safety: float,
                 speed: float = 0.0) -> float:
    """Advective step bound h/(max |f_i'| + |speed|), the only limit of `advance`.

    ``speed`` is the frame speed added to the flux speeds (zero in the lab
    frame).
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    vmax = 0.0
    for i in range(grid.dimension):
        vmax = max(vmax, float(np.max(np.abs(flux.df(i, fld.values)))))
    return safety * _min_spacing(grid) / (vmax + abs(speed) + CFL_EPS)


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

    Diffusion is exact, so the step is bounded by `advective_dt` only, and
    a zero step returns the input values unchanged.

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

    if blowup_bounds is None:
        mid = 0.5 * (float(u.max()) + float(u.min()))
        half = 0.5 * (float(u.max()) - float(u.min()))
        blowup_bounds = (mid - 10.0 * half, mid + 10.0 * half)
    lo, hi = blowup_bounds
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


def _phi_channels(p_list):
    names = ["pert_L2", "pert_Linf", "zmode_L2", "zmode_Linf", "dzmode_L2",
             "nzmode_L2", "nzmode_Linf", "mass_drift", "boundary_leak"]
    for p in p_list:
        names.append(f"Phi_L{p:g}")
        names.append(f"nzmode_W1L{p:g}")
    return names


def _record_norms(u: np.ndarray, bg: np.ndarray, grid: ChannelGrid,
                  p_list, mass0: float | None):
    """All per-snapshot diagnostics of the perturbation u - background."""
    shape_tail = (1,) * (u.ndim - 1)
    phi = u - bg.reshape((grid.n1,) + shape_tail)
    zm = phi if phi.ndim == 1 else phi.mean(axis=tuple(range(1, phi.ndim)))
    nz = phi - zm.reshape((grid.n1,) + shape_tail)
    anti = antiderivative(zm, grid)

    dzm = np.empty_like(zm)
    dzm[1:-1] = (zm[2:] - zm[:-2]) / (2.0 * grid.h1)
    dzm[0] = (zm[1] - zm[0]) / grid.h1
    dzm[-1] = (zm[-1] - zm[-2]) / grid.h1

    mass = integrate(phi, grid)
    leak = float(max(np.max(np.abs(phi[:2])), np.max(np.abs(phi[-2:]))))
    out = {
        "pert_L2": lp_norm(phi, 2.0, grid),
        "pert_Linf": lp_norm(phi, np.inf, grid),
        "zmode_L2": lp_norm(zm, 2.0, grid),
        "zmode_Linf": float(np.max(np.abs(zm))),
        "dzmode_L2": lp_norm(dzm, 2.0, grid),
        "nzmode_L2": lp_norm(nz, 2.0, grid),
        "nzmode_Linf": lp_norm(nz, np.inf, grid),
        "mass_drift": 0.0 if mass0 is None else abs(mass - mass0),
        "boundary_leak": leak,
    }
    grad_nz = None
    for p in p_list:
        out[f"Phi_L{p:g}"] = lp_norm(anti.values, float(p), grid)
        if grad_nz is None:
            comps = gradient(nz, grid)
            grad_nz = np.sqrt(sum(c * c for c in comps))
        out[f"nzmode_W1L{p:g}"] = (lp_norm(nz, float(p), grid)
                                   + lp_norm(grad_nz, float(p), grid))
    return out, mass, leak


def _prepare_background(cfg: ExperimentConfig, grid: ChannelGrid,
                        shock: ShockData, prof: ShockProfile):
    """Initial data and its shift against the profile."""
    bg_unshifted, _ = eval_profile(prof, grid.x1)
    pert0 = build_perturbation(cfg, grid)
    shape_tail = (1,) * (len(grid.shape) - 1)
    u0 = bg_unshifted.reshape((grid.n1,) + shape_tail) + pert0
    u0_field = Field(grid=grid, values=u0, time=0.0, frame=cfg.stepper.frame)
    a = shift_normalize(u0_field, prof, shock)
    if abs(a) > PROFILE_PAD - 1.0:
        raise ValueError(f"shift {a:g} too large for the solved profile range")
    return u0_field, a


def _background_at(prof: ShockProfile, grid: ChannelGrid, a: float,
                   frame: str, speed: float, t: float) -> np.ndarray:
    """Background samples on the grid at time t (moving frame: static)."""
    if frame == "moving":
        xi = grid.x1 + a
    else:
        xi = grid.x1 - speed * t + a
    bg, _ = eval_profile(prof, xi, extend=True)
    return bg


def run_simulation(cfg: ExperimentConfig,
                   prof: ShockProfile | None = None) -> SimulationRecord:
    """Evolve background + perturbation to t_final, recording norms at cadence.

    ``prof`` is the traveling-wave profile of the config's shock on
    half_length + PROFILE_PAD at the config's profile_step; it is solved
    here when not given.  The step is the largest one within
    `advective_dt` that divides dt_out exactly, so outputs land on exact
    multiples and reruns of the same config are bit-identical.  Raises
    BlowupError or BoundaryLeakError when the respective monitor trips.
    """
    validate_config(cfg)
    flux = build_flux(cfg)
    shock = make_shock(flux, cfg.u_minus, cfg.u_plus)
    grid = ChannelGrid(dimension=cfg.dimension, half_length=cfg.grid.half_length,
                       n1=cfg.grid.n1,
                       nprime=cfg.grid.nprime if cfg.dimension > 1 else 1)
    st = cfg.stepper
    if prof is None:
        prof = solve_profile(shock, grid.half_length + PROFILE_PAD, cfg.profile_step)
    fld, a = _prepare_background(cfg, grid, shock, prof)
    bg = _background_at(prof, grid, a, st.frame, shock.speed, 0.0)

    dt_bound = advective_dt(fld, flux, grid, st.cfl_safety, speed=shock.speed)
    n_sub = max(1, math.ceil(st.dt_out / dt_bound))
    dt = st.dt_out / n_sub
    n_out = int(round(st.t_final / st.dt_out))

    mid = 0.5 * (float(fld.values.max()) + float(fld.values.min()))
    half = 0.5 * (float(fld.values.max()) - float(fld.values.min()))
    guard = (mid - 10.0 * half, mid + 10.0 * half)

    times = [0.0]
    rows, mass0, leak = _record_norms(fld.values, bg, grid, cfg.p_list, None)
    channels = {k: [v] for k, v in rows.items()}
    leak_max = leak
    snapshots = []
    if cfg.snapshots:
        snapshots.append(Field(grid=grid, values=fld.values.copy(),
                               time=0.0, frame=st.frame))

    for k_out in range(1, n_out + 1):
        for _ in range(n_sub):
            fld = advance(fld, dt, shock, flux, llf=st.llf, blowup_bounds=guard)
        t = k_out * st.dt_out
        fld = Field(grid=grid, values=fld.values, time=t, frame=st.frame)
        if st.frame == "lab":
            bg = _background_at(prof, grid, a, st.frame, shock.speed, t)
        rows, _, leak = _record_norms(fld.values, bg, grid, cfg.p_list, mass0)
        times.append(t)
        for key, val in rows.items():
            channels[key].append(val)
        leak_max = max(leak_max, leak)
        sup = rows["pert_Linf"]
        if sup > 0.0 and leak > LEAK_FRACTION * sup:
            raise BoundaryLeakError(
                f"perturbation {leak:g} at the domain ends at t={t:g} exceeds "
                f"{LEAK_FRACTION:g} of its sup {sup:g}; enlarge half_length")
        if cfg.snapshots:
            snapshots.append(Field(grid=grid, values=fld.values.copy(),
                                   time=t, frame=st.frame))

    meta = {"p_list": [float(p) for p in cfg.p_list],
            "dimension": grid.dimension, "n1": grid.n1, "nprime": grid.nprime,
            "half_length": grid.half_length, "frame": st.frame,
            "dt": dt, "shift": a, "mass_initial": mass0,
            "u_minus": shock.u_minus, "u_plus": shock.u_plus,
            "speed": shock.speed, "strength": shock.strength}
    norms = NormSeries(times=np.array(times),
                       channels={k: np.array(v) for k, v in channels.items()},
                       meta=meta)
    return SimulationRecord(norms=norms, dt=dt, mass_initial=mass0,
                            boundary_leak_max=leak_max, shift=a,
                            snapshots=snapshots)


def run_1d_reference(cfg: ExperimentConfig) -> SimulationRecord:
    """Same scheme restricted to n=1; closes the zero-mode dynamics exactly.

    Valid only when the initial non-zero mode vanishes, i.e. for
    transversally constant perturbation kinds.
    """
    if cfg.perturbation.kind == "random-nonzero-mode":
        raise NonzeroModePresentError(
            "1-d reference needs a transversally constant perturbation")
    cfg1 = copy.deepcopy(cfg)
    cfg1.dimension = 1
    return run_simulation(cfg1)
