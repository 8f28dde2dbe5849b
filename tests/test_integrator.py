"""ETDRK4 time stepping: agreement with RK4, order, exactness, conservation."""

import math

import numpy as np
import pytest

import shocklab as sl
from shocklab import solver
from shocklab.config import (ExperimentConfig, GridSpec, PerturbationSpec,
                             StepperSpec)


def make_config(dimension, flux="burgers", kind="random-nonzero-mode",
                half_length=15.0, n1=128, nprime=8, llf=False, u_states=(1.0, -1.0)):
    return ExperimentConfig(
        flux=flux, u_minus=u_states[0], u_plus=u_states[1], dimension=dimension,
        grid=GridSpec(half_length=half_length, n1=n1, nprime=nprime),
        stepper=StepperSpec(t_final=0.5, dt_out=0.125, llf=llf),
        perturbation=PerturbationSpec(kind=kind, amplitude=0.05, width=2.0, seed=3),
        p_list=[2.0])


CASES = {
    "1d-quartic": dict(dimension=1, flux="convex-quartic", kind="gaussian-bump"),
    "2d-nonzero-mode": dict(dimension=2),
    "2d-moving-shock": dict(dimension=2, kind="gaussian-bump", half_length=20.0,
                            n1=160, u_states=(2.0, 0.0)),
    "3d-llf-moving-shock": dict(dimension=3, n1=64, nprime=4, llf=True,
                                u_states=(2.0, 0.0)),
}


def rk4_advance(fld, dt, shock, flux, llf=False, blowup_bounds=None):
    """Classical RK4 on the public right-hand side: the reference stepper."""

    def f(v):
        return sl.rhs(sl.Field(grid=fld.grid, values=v), shock, flux, llf)

    u = fld.values
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    un = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return sl.Field(grid=fld.grid, values=un, time=fld.time + dt)


def rk4_dt(fld, flux, safety, speed=0.0):
    """The explicit bound of `cfl_dt`, written out so that it does not call
    the `advective_dt` it replaces."""
    grid = fld.grid
    vmax = float(np.max(np.abs(flux.df1(fld.values))))
    h = grid.h1 if grid.dimension == 1 else min(grid.h1, grid.hprime)
    return safety * min(h * h / (2.0 * grid.dimension), h / (vmax + abs(speed)))


def run_rk4(problem, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(solver, "advance", rk4_advance)
        m.setattr(solver, "advective_dt", rk4_dt)
        return sl.run_simulation(problem)


def max_rel_dev(a, b, channels):
    """Largest relative difference of b from a, over entries above round-off."""
    devs = []
    for c in channels:
        x, y = a.channels[c], b.channels[c]
        keep = np.abs(x) > 1e-12
        devs.append(np.max(np.abs(x[keep] - y[keep]) / np.abs(x[keep])))
    return float(max(devs))


class TestAgreementWithRk4:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_norms_match_far_below_spatial_error(self, case, monkeypatch):
        cfg = make_config(**CASES[case])
        problem = sl.build_problem(cfg)
        ref = run_rk4(problem, monkeypatch)
        etd = sl.run_simulation(problem)
        if cfg.perturbation.kind == "random-nonzero-mode":
            # data with a non-zero mode take the documented step bound
            # 1/(2 lambda_1) of the zero mode's forcing, still above RK4's
            grid = problem.grid
            lam1 = (2.0 * math.sin(math.pi / grid.nprime) / grid.hprime) ** 2
            dt_out = problem.dt_out
            assert etd.meta["dt"] == \
                dt_out / math.ceil(dt_out / (1.0 / (2.0 * lam1)))
            assert etd.meta["dt"] > ref.meta["dt"]
        else:
            assert etd.meta["dt"] >= 5.0 * ref.meta["dt"]
        # the spatial error refines every direction, the transverse one too
        fine = make_config(**dict(CASES[case], n1=2 * cfg.grid.n1,
                                  nprime=2 * cfg.grid.nprime))
        fine_rec = sl.run_simulation(sl.build_problem(fine))
        channels = ["pert_L2", "zmode_L2", "Phi_L2"]
        if cfg.perturbation.kind == "random-nonzero-mode":
            channels.append("nzmode_L2")
        temporal = max_rel_dev(ref, etd, channels)
        spatial = max_rel_dev(etd, fine_rec, channels)
        assert temporal < 0.1 * spatial


class TestTemporalOrder:
    @pytest.mark.parametrize("case,n_steps", [("1d-quartic", 16), ("2d-nonzero-mode", 40)])
    def test_error_ratio_under_halving(self, case, n_steps):
        problem = sl.build_problem(make_config(**CASES[case]))
        grid, shock = problem.grid, problem.profile.shock
        bg, _ = sl.eval_profile(problem.profile, grid.x1)
        u0 = bg.reshape((grid.n1,) + (1,) * (grid.dimension - 1)) + problem.perturbation
        t_end = 0.5

        def evolve(n):
            fld = sl.Field(grid=grid, values=u0)
            for _ in range(n):
                fld = sl.advance(fld, t_end / n, shock, shock.flux)
            return fld.values

        u1, u2, u4 = (evolve(k * n_steps) for k in (1, 2, 4))
        # steps beyond the explicit limit, which classical RK4 would need
        assert t_end / n_steps > rk4_dt(sl.Field(grid=grid, values=u0), shock.flux, 1.0)
        ratio = np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u4))
        assert ratio > 12.0


class TestExactDiffusion:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_eigenmode_decays_by_exp_lambda_dt(self, zero_flux, dimension):
        # a DST-I x Fourier eigenvector of the interior Laplacian with zero
        # boundary rows shrinks by exactly exp(Lambda dt), at a step far
        # beyond the explicit diffusion limit
        fx, sh = zero_flux
        g = sl.ChannelGrid(dimension=dimension, half_length=10.0, n1=256, nprime=16)
        j, q1, q2 = 40, 2, 1
        i = np.arange(g.n1)
        x1_mode = np.sin(np.pi * j * i / (g.n1 - 1))
        lam = -(2.0 * np.sin(np.pi * j / (2.0 * (g.n1 - 1))) / g.h1) ** 2
        v = x1_mode
        if dimension >= 2:
            v = v[:, None] * np.sin(2.0 * np.pi * q1 * g.xprime)
            lam -= (2.0 * np.sin(np.pi * q1 / g.nprime) / g.hprime) ** 2
        if dimension == 3:
            v = v[..., None] * np.cos(2.0 * np.pi * q2 * g.xprime)
            lam -= (2.0 * np.sin(np.pi * q2 / g.nprime) / g.hprime) ** 2
        dt = 0.05
        fld = sl.Field(grid=g, values=v)
        h = g.h1 if dimension == 1 else min(g.h1, g.hprime)
        assert dt > 10.0 * h * h / (2.0 * dimension)
        out = sl.advance(fld, dt, sh, fx, blowup_bounds=(-10.0, 10.0))
        np.testing.assert_allclose(out.values, math.exp(lam * dt) * v,
                                   rtol=0.0, atol=1e-12)


class TestConservation:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mass_drift_at_advective_dt(self, case):
        rec = sl.run_simulation(sl.build_problem(make_config(**CASES[case])))
        assert np.max(rec.channels["mass_drift"]) <= 1e-12


class TestZeroStep:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identity(self, case):
        # boundary rows that vary transversally are carried through as well
        problem = sl.build_problem(make_config(**CASES[case]))
        grid, shock = problem.grid, problem.profile.shock
        rng = np.random.default_rng(11)
        mid = 0.5 * (shock.u_minus + shock.u_plus)
        vals = mid + 0.3 * rng.standard_normal(grid.shape)
        fld = sl.Field(grid=grid, values=vals)
        out = sl.advance(fld, 0.0, shock, shock.flux, llf=problem.llf)
        np.testing.assert_array_equal(out.values, vals)
