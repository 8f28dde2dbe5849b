"""Time stepping: scheme consistency, conservation, invariances, monitors."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dst, idst, irfftn, rfftn
from scipy.linalg import LinAlgError, solve_banded

import shocklab as sl
from shocklab import cli
from shocklab.config import (ExperimentConfig, GridSpec, PerturbationSpec,
                             StepperSpec, config_from_dict)
from shocklab.errors import (ArgumentError, BlowupError, BoundaryLeakError,
                             OutOfRangeError, RangeExceededError, WaveNotConvergedError)
from conftest import (closed_form_sym, peak_bytes_per_cell, plain_gradient,
                      plain_lp_norm, same_bits)


def make_config(**over):
    base = dict(
        flux="burgers", u_minus=1.0, u_plus=-1.0, dimension=1,
        grid=GridSpec(half_length=30.0, n1=256, nprime=8),
        stepper=StepperSpec(t_final=2.0, dt_out=0.5),
        perturbation=PerturbationSpec(kind="gaussian-bump", amplitude=0.01,
                                      width=2.0, seed=7),
        p_list=[2.0, 4.0],
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestRhs:
    def test_constant_field_is_steady(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=8)
        fld = sl.Field(grid=g, values=np.full(g.shape, 0.3))
        r = sl.rhs(fld, shock_sym, burgers1)
        assert np.all(r == 0.0)

    # the scheme has no Lax-Friedrichs flux; `rhs` and `advance` keep an llf
    # parameter only for bench/child.py, and a true one is an argument error
    @pytest.mark.parametrize("call", [
        lambda fld, shock: sl.rhs(fld, shock, shock.flux, True),
        lambda fld, shock: sl.advance(fld, 1e-3, shock, shock.flux, llf=True),
    ], ids=["rhs", "advance"])
    def test_true_llf_is_an_argument_error(self, shock_sym, call):
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=8)
        fld = sl.Field(grid=g, values=np.full(g.shape, 0.3))
        with pytest.raises(ArgumentError) as exc_info:
            call(fld, shock_sym)
        assert [arg for arg, _ in exc_info.value.issues] == ["llf"]

    def test_steady_profile_residual_second_order(self, burgers1, shock_sym):
        sups = []
        for n1 in (201, 401):
            g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=n1)
            u, _ = closed_form_sym(g.x1)
            fld = sl.Field(grid=g, values=u)
            sups.append(np.max(np.abs(sl.rhs(fld, shock_sym, burgers1))))
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.15)

    def test_plateau_rows_vanish(self, burgers1, shock_sym):
        # piecewise-constant end states: zero away from the middle jump
        g = sl.ChannelGrid(dimension=1, half_length=10.0, n1=64)
        u = np.where(g.x1 < 0.0, 1.0, -1.0)
        fld = sl.Field(grid=g, values=u)
        r = sl.rhs(fld, shock_sym, burgers1)
        assert np.all(r[:20] == 0.0)
        assert np.all(r[-20:] == 0.0)

    def test_range_guard(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=1, half_length=10.0, n1=64)
        fld = sl.Field(grid=g, values=np.full(g.shape, 7.0))
        with pytest.raises(RangeExceededError):
            sl.rhs(fld, shock_sym, burgers1)

    def test_boundary_rows_pinned(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=8)
        rng = np.random.default_rng(3)
        vals = 0.2 * rng.standard_normal(g.shape)
        r = sl.rhs(sl.Field(grid=g, values=vals), shock_sym, burgers1)
        assert np.all(r[0] == 0.0)
        assert np.all(r[-1] == 0.0)


class TestCflDt:
    def test_formula_diffusion_limited(self, burgers1):
        # h_min = 0.05, n = 2, |f'| <= 1, s = 0:
        # min(0.0025/4, 0.05/1) = 0.000625
        g = sl.ChannelGrid(dimension=2, half_length=30.0, n1=1201, nprime=16)
        fld = sl.Field(grid=g, values=np.clip(np.sin(g.x1), -1, 1)[:, None]
                       * np.ones(16))
        assert sl.cfl_dt(fld, burgers1, 1.0) == pytest.approx(0.000625)

    def test_linear_in_safety(self, burgers1):
        g = sl.ChannelGrid(dimension=2, half_length=30.0, n1=1201, nprime=16)
        fld = sl.Field(grid=g, values=np.zeros(g.shape) + np.sin(g.x1)[:, None])
        full = sl.cfl_dt(fld, burgers1, 1.0)
        assert sl.cfl_dt(fld, burgers1, 0.5) == pytest.approx(0.5 * full)

    def test_pure_diffusion_bound(self, zero_flux):
        fx, _ = zero_flux
        g = sl.ChannelGrid(dimension=2, half_length=30.0, n1=1201, nprime=16)
        fld = sl.Field(grid=g, values=np.zeros(g.shape))
        # advective bound inactive for a zero-velocity field
        assert sl.cfl_dt(fld, fx, 0.7) == pytest.approx(0.7 * 0.05 ** 2 / 4.0)


class TestAdvance:
    def test_zero_step_is_identity(self, burgers1, shock_sym, profile_sym):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=128)
        u, _ = sl.eval_profile(profile_sym, g.x1)
        fld = sl.Field(grid=g, values=u)
        out = sl.advance(fld, 0.0, shock_sym, burgers1)
        np.testing.assert_array_equal(out.values, fld.values)

    def test_heat_decay_factor(self, zero_flux):
        # one RK4 step of transverse diffusion shrinks a resolved sine by
        # the discrete heat factor to O(dt^5)
        fx, sh = zero_flux
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=32)
        v = 0.01 * np.broadcast_to(np.sin(2.0 * np.pi * g.xprime), g.shape).copy()
        fld = sl.Field(grid=g, values=v)
        dt = 2e-4
        out = sl.advance(fld, dt, sh, fx, blowup_bounds=(-10.0, 10.0))
        lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * g.hprime)) / g.hprime ** 2
        mid = g.n1 // 2
        ratio = np.max(np.abs(out.values[mid])) / np.max(np.abs(v[mid]))
        assert ratio == pytest.approx(np.exp(-lam * dt), abs=1e-10)

    def test_steady_profile_barely_moves(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=401)
        u, _ = closed_form_sym(g.x1)
        fld = sl.Field(grid=g, values=u)
        resid = np.max(np.abs(sl.rhs(fld, shock_sym, burgers1)))
        dt = 1e-3
        out = sl.advance(fld, dt, shock_sym, burgers1)
        assert np.max(np.abs(out.values - fld.values)) <= 2.0 * dt * resid
        assert out.time == dt

    def test_blowup_guard(self, burgers1, shock_sym, profile_sym):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=128)
        u, _ = sl.eval_profile(profile_sym, g.x1)
        fld = sl.Field(grid=g, values=u)
        with pytest.raises(BlowupError):
            sl.advance(fld, 1e-3, shock_sym, burgers1,
                       blowup_bounds=(-0.5, 0.5))


class TestOneFluxEveryDimension:
    """The flux of a shock serves fields of any dimension unchanged."""

    @pytest.fixture(scope="class")
    def shock(self):
        return sl.ShockData(sl.burgers_flux(), 1, -1)

    @staticmethod
    def column_field(dimension):
        g = sl.ChannelGrid(dimension=dimension, half_length=10.0, n1=64,
                           nprime=8 if dimension > 1 else 1)
        u, _ = closed_form_sym(g.x1)
        u = u + 0.05 * np.exp(-g.x1 ** 2)
        vals = np.broadcast_to(u.reshape((g.n1,) + (1,) * (dimension - 1)), g.shape)
        return sl.Field(grid=g, values=vals.copy())

    # a static shock has no frame flux s u; a moving one exercises it
    @pytest.mark.parametrize("states", [(1, -1), (2, 0)], ids=["static", "moving"])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_rhs_matches_1d_in_every_column(self, dimension, states):
        shock = sl.ShockData(sl.burgers_flux(), *states)
        r1 = sl.rhs(self.column_field(1), shock, shock.flux)
        r = sl.rhs(self.column_field(dimension), shock, shock.flux)
        np.testing.assert_array_equal(r, np.broadcast_to(
            r1.reshape((r1.size,) + (1,) * (dimension - 1)), r.shape))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_advance_and_advective_dt_accept_the_flux(self, shock, dimension):
        fld = self.column_field(dimension)
        g = fld.grid
        h = g.h1 if dimension == 1 else min(g.h1, g.hprime)
        vmax = float(np.max(np.abs(fld.values)))
        assert sl.advective_dt(fld, shock.flux, 1.0) == pytest.approx(h / vmax)
        out = sl.advance(fld, 1e-3, shock, shock.flux)
        ref = sl.advance(self.column_field(1), 1e-3, shock, shock.flux)
        np.testing.assert_allclose(out.values[(slice(None),) + (0,) * (dimension - 1)],
                                   ref.values, rtol=0.0, atol=1e-14)


class TestConservation:
    def test_interior_telescoping(self, burgers1, shock_sym, profile_sym):
        # weighted interior sum of the rhs equals the boundary interface
        # terms alone, at machine precision
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=256)
        u, _ = sl.eval_profile(profile_sym, g.x1)
        u = u + 0.05 * np.exp(-g.x1 ** 2)
        fld = sl.Field(grid=g, values=u)
        r = sl.rhs(fld, shock_sym, burgers1)
        interior_sum = g.h1 * np.sum(r[1:-1])

        ue = np.concatenate(([shock_sym.u_minus], u, [shock_sym.u_plus]))
        gl = 0.5 * ue ** 2 - shock_sym.speed * ue
        fh = 0.5 * (gl[:-1] + gl[1:])
        flux_boundary = fh[1] - fh[-2]
        diff_boundary = ((ue[-1] - ue[-2]) - (ue[1] - ue[0])) / g.h1
        expect = flux_boundary + diff_boundary
        assert interior_sum == pytest.approx(expect, abs=1e-13)

    def test_mass_drift_in_run(self):
        rec = sl.run_simulation(sl.build_problem(make_config()))
        drift = rec.channels["mass_drift"]
        assert np.all(drift <= 1e-8 * (1.0 + rec.times))


def nd_stepping(problem):
    """`simulate`'s loop without the reduction: the problem's n-d field
    stepped by `advance`, with its fields and `_record_norms` rows."""
    solver = sl.solver
    fld, bg, n_sub, meta = solver._setup(problem)
    shock, grid = problem.profile.shock, problem.grid
    guard = solver._blowup_guard(fld.values)
    fields, rows = [], []
    for k in range(round(problem.t_final / problem.dt_out) + 1):
        for _ in range(n_sub if k else 0):
            fld = sl.advance(fld, meta["dt"], shock, shock.flux, blowup_bounds=guard)
        fields.append(fld.values)
        rows.append(solver._record_norms(fld.values, bg, grid, problem.p_list,
                                         meta["mass_initial"]))
    return meta, fields, rows


def short_run(dimension, nprime, kind="gaussian-bump", amplitude=0.01):
    return make_config(dimension=dimension,
                       grid=GridSpec(half_length=15.0, n1=64, nprime=nprime),
                       stepper=StepperSpec(t_final=0.5, dt_out=0.25),
                       perturbation=PerturbationSpec(kind=kind, amplitude=amplitude,
                                                     width=2.0, seed=3))


class TestModeInvariance:
    def test_transverse_constant_data_stays_constant(self):
        cfg = make_config(dimension=2)
        rec = sl.run_simulation(sl.build_problem(cfg))
        assert np.max(rec.channels["nzmode_L2"]) <= 1e-10

    @pytest.mark.parametrize("cfg", [
        short_run(2, 5), short_run(2, 16), short_run(3, 32),
        # amplitude 0 leaves the data transversally constant, whatever the kind
        short_run(2, 8, kind="random-nonzero-mode", amplitude=0.0),
    ], ids=["2d-N5", "2d-N16", "3d-N32", "random-amplitude-0"])
    def test_reduced_run_matches_nd_stepping(self, cfg):
        problem = sl.build_problem(cfg)
        meta, stream = sl.simulate(problem)
        outputs = list(stream)
        nd_meta, nd_fields, nd_rows = nd_stepping(problem)
        assert meta["reduced"] and meta["dt"] == nd_meta["dt"]
        assert len(outputs) == len(nd_rows) == 3
        for (fld, row), values, nd_row in zip(outputs, nd_fields, nd_rows):
            # the scheme keeps the n-d rows exactly constant on the torus
            flat = values.reshape(problem.grid.n1, -1)
            assert np.all(flat == flat[:, :1])
            assert not fld.values.flags.writeable
            np.testing.assert_allclose(fld.values, values, rtol=1e-13, atol=1e-15)
            assert row.keys() == nd_row.keys()
            for name in row:
                np.testing.assert_allclose(row[name], nd_row[name], rtol=1e-13,
                                           atol=1e-15, err_msg=name)

    def test_nonzero_mode_data_are_not_reduced(self, monkeypatch):
        shapes = []
        advance = sl.solver.advance

        def recorded(fld, *args, **kwargs):
            shapes.append(fld.values.shape)
            return advance(fld, *args, **kwargs)

        monkeypatch.setattr(sl.solver, "advance", recorded)
        cfg = short_run(2, 8, kind="random-nonzero-mode")
        rec = sl.run_simulation(sl.build_problem(cfg))
        assert rec.meta["reduced"] is False
        assert shapes and set(shapes) == {(64, 8)}
        shapes.clear()
        assert sl.run_simulation(sl.build_problem(short_run(1, 8))).meta["reduced"] is False
        assert shapes and set(shapes) == {(64,)}


class TestNonzeroModeDecay:
    def test_exponential_at_torus_spectral_gap(self):
        # the transverse Poincare constant on the unit torus forces decay
        # at about 4 pi^2; measurable only before the round-off floor
        cfg = make_config(
            dimension=2,
            grid=GridSpec(half_length=30.0, n1=512, nprime=16),
            stepper=StepperSpec(t_final=0.7, dt_out=0.025),
            perturbation=PerturbationSpec(kind="random-nonzero-mode",
                                          amplitude=0.01, width=2.0, seed=42))
        rec = sl.run_simulation(sl.build_problem(cfg))
        fit = sl.fit_exponential_rate(rec, "nzmode_L2", (0.05, 0.6))
        assert fit.rate == pytest.approx(4.0 * np.pi ** 2, rel=0.05)
        assert fit.residual < 0.1


class TestFrameEquivalence:
    def test_lab_and_moving_agree_on_shifted_samples(self):
        # the lab frame's right-hand side is that of `rhs` without the frame
        # flux s u; classical RK4 steps it below its diffusion limit h1^2/2
        t_final = 1.0
        cfg = make_config(
            u_minus=2.0, u_plus=0.0,
            grid=GridSpec(half_length=30.0, n1=512, nprime=8),
            stepper=StepperSpec(t_final=t_final, dt_out=0.5),
            perturbation=PerturbationSpec(kind="gaussian-bump",
                                          amplitude=0.02, width=2.0, seed=7))
        problem = sl.build_problem(cfg)
        shock, g = problem.profile.shock, problem.grid
        fields = [fld for fld, _ in sl.simulate(problem)[1]]

        def lab_rhs(u):
            r = sl.rhs(sl.Field(grid=g, values=u), shock, shock.flux)
            r[1:-1] -= shock.speed * (u[2:] - u[:-2]) / (2.0 * g.h1)
            return r

        n_steps = math.ceil(t_final / (0.5 * g.h1 ** 2))
        dt = t_final / n_steps
        lab = fields[0].values
        for _ in range(n_steps):
            k1 = lab_rhs(lab)
            k2 = lab_rhs(lab + 0.5 * dt * k1)
            k3 = lab_rhs(lab + 0.5 * dt * k2)
            k4 = lab_rhs(lab + dt * k3)
            lab = lab + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xi = g.x1
        keep = np.abs(xi) <= g.half_length - 2.0 - shock.speed * t_final
        lab_on_xi = np.interp(xi[keep] + shock.speed * t_final, g.x1, lab)
        diff = np.max(np.abs(fields[-1].values[keep] - lab_on_xi))
        assert diff < 5e-3


class TestRefinement:
    def test_final_norms_second_order(self):
        vals = []
        for n1 in (129, 257, 513):
            cfg = make_config(
                grid=GridSpec(half_length=15.0, n1=n1, nprime=8),
                stepper=StepperSpec(t_final=1.0, dt_out=0.5))
            rec = sl.run_simulation(sl.build_problem(cfg))
            vals.append(rec.channels["zmode_L2"][-1])
        r = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert r == pytest.approx(4.0, rel=0.4)


class TestDiscreteWave:
    @pytest.mark.parametrize("flux_name,states,a", [
        ("burgers", (1.0, -1.0), 0.0),
        ("burgers", (2.0, 0.0), 0.3),
        ("convex-quartic", (1.0, -1.0), -0.2),
    ])
    def test_steady_state_with_phase_condition(self, flux_name, states, a):
        flux = (sl.burgers_flux() if flux_name == "burgers"
                else sl.convex_quartic_flux())
        shock = sl.ShockData(flux, *states)
        g = sl.ChannelGrid(dimension=1, half_length=30.0, n1=512)
        prof = sl.solve_profile(shock, 34.0, 1e-3)
        u = sl.discrete_wave(g, prof, a)
        resid = sl.rhs(sl.Field(grid=g, values=u), shock, flux)
        cont, dcont = sl.eval_profile(prof, g.x1 + a)
        # round-off on every row but the phase row, which keeps the flux
        # imbalance of the boundary rows against the wave's tails
        phase_row = 1 + np.argmax(np.abs(dcont[1:-1]))
        assert np.max(np.abs(np.delete(resid, phase_row))) <= 1e-12
        assert abs(resid[phase_row]) <= 1e-10
        assert abs(sl.integrate(u - cont, g)) <= 1e-14
        assert u[0] == cont[0] and u[-1] == cont[-1]

    def test_offset_from_continuous_profile_is_second_order(self, shock_sym):
        prof = sl.solve_profile(shock_sym, 19.0, 1e-3)
        offsets = []
        for n1 in (257, 513):
            g = sl.ChannelGrid(dimension=1, half_length=15.0, n1=n1)
            u = sl.discrete_wave(g, prof, 0.0)
            cont, _ = sl.eval_profile(prof, g.x1)
            offsets.append(np.max(np.abs(u - cont)))
        assert offsets[0] / offsets[1] == pytest.approx(4.0, rel=0.02)


    def test_newton_cap_raises(self, shock_sym, monkeypatch):
        monkeypatch.setattr(sl.solver, "WAVE_MAX_ITER", 1)
        g = sl.ChannelGrid(dimension=1, half_length=15.0, n1=129)
        prof = sl.solve_profile(shock_sym, 19.0, 1e-3)
        with pytest.raises(WaveNotConvergedError):
            sl.discrete_wave(g, prof, 0.0)


class TestStepRule:
    def test_nonzero_mode_bound(self):
        g = sl.ChannelGrid(dimension=3, half_length=10.0, n1=32, nprime=8)
        flat = sl.Field(grid=g, values=np.broadcast_to(np.sin(g.x1)[:, None, None],
                                                       g.shape).copy())
        assert sl.nonzero_mode_dt(flat) == np.inf
        wavy = flat.values.copy()
        wavy[5, 3, 1] += 1e-3
        lam1 = (2.0 * np.sin(np.pi / 8) / g.hprime) ** 2
        assert sl.nonzero_mode_dt(sl.Field(grid=g, values=wavy)) == \
            pytest.approx(1.0 / (2.0 * lam1), rel=1e-14)

    def test_reduced_run_keeps_the_nd_step(self, monkeypatch):
        # h' = 1/32 < h1 = 30/63: the n-d step is bounded by h', the 1-d one
        # of the same data by h1
        steps = []
        advance = sl.solver.advance

        def recorded(fld, dt, *args, **kwargs):
            steps.append((fld.values.shape, dt))
            return advance(fld, dt, *args, **kwargs)

        monkeypatch.setattr(sl.solver, "advance", recorded)
        cfg = short_run(3, 32)
        problem = sl.build_problem(cfg)
        meta = sl.run_simulation(problem).meta
        shock = problem.profile.shock
        u0, _, _, _ = sl.solver._setup(problem)
        bound = sl.advective_dt(u0, shock.flux, sl.solver.ADVECTIVE_SAFETY, shock.speed)
        assert meta["reduced"]
        assert meta["dt"] == cfg.stepper.dt_out / math.ceil(cfg.stepper.dt_out / bound)
        assert len(steps) == round(cfg.stepper.t_final / meta["dt"])
        assert set(steps) == {((64,), meta["dt"])}
        assert meta["dt"] < sl.run_simulation(sl.build_problem(
            replace(cfg, dimension=1))).meta["dt"]

    def test_nonzero_mode_run_respects_bound(self):
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="random-nonzero-mode",
                                                        amplitude=0.01, width=2.0,
                                                        seed=3))
        lam1 = (2.0 * np.sin(np.pi / 8) / (1.0 / 8)) ** 2
        assert sl.run_simulation(sl.build_problem(cfg)).meta["dt"] <= 1.0 / (2.0 * lam1)


class TestBoundaryLeak:
    def test_small_domain_trips_monitor(self):
        cfg = make_config(
            grid=GridSpec(half_length=8.0, n1=128, nprime=8),
            stepper=StepperSpec(t_final=1.0, dt_out=0.5),
            perturbation=PerturbationSpec(kind="gaussian-bump", amplitude=0.01,
                                          width=3.0, seed=7))
        with pytest.raises(BoundaryLeakError):
            sl.run_simulation(sl.build_problem(cfg))


class TestPerturbations:
    @pytest.fixture(scope="class")
    def plane(self):
        return sl.ChannelGrid(dimension=2, half_length=20.0, n1=128, nprime=16)

    def test_amplitude_normalization(self, plane):
        for kind in [k for k in sl.solver.PERTURBATION_KINDS if k != "none"]:
            pert = sl.build_perturbation(plane, kind, 0.03, 2.0, 5)
            assert np.max(np.abs(pert)) == pytest.approx(0.03, rel=1e-12)

    def test_zero_width_is_named(self, plane):
        # before any division: RuntimeWarnings are errors here
        with pytest.raises(ArgumentError) as exc_info:
            sl.build_perturbation(plane, "gaussian-bump", 0.03, 0.0, 5)
        assert [arg for arg, _ in exc_info.value.issues] == ["width"]

    def test_underflow_names_the_argument(self):
        # the config field perturbation.width is named by `experiment`, not here
        line = sl.ChannelGrid(dimension=1, half_length=15.0, n1=64)
        with pytest.raises(ArgumentError) as exc_info:
            sl.build_perturbation(line, "gaussian-bump", 0.01, 0.001, 1)
        assert [arg for arg, _ in exc_info.value.issues] == ["width"]
        assert "perturbation." not in str(exc_info.value)

    def test_odd_bump_mass_free(self, plane):
        pert = sl.build_perturbation(plane, "odd-bump", 0.03, 2.0, 5)
        assert abs(sl.integrate(pert, plane)) < 1e-14

    def test_random_kind_is_mean_free(self, plane):
        pert = sl.build_perturbation(plane, "random-nonzero-mode", 0.03, 2.0, 5)
        assert np.max(np.abs(pert.mean(axis=1))) < 1e-15

    def test_seed_determinism(self, plane):
        a = sl.build_perturbation(plane, "random-nonzero-mode", 0.03, 2.0, 5)
        b = sl.build_perturbation(plane, "random-nonzero-mode", 0.03, 2.0, 5)
        c = sl.build_perturbation(plane, "random-nonzero-mode", 0.03, 2.0, 6)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-4

    @staticmethod
    def transverse_coefficients(nprime):
        """(a, b) of modes k = 1, 2 on both transverse axes of a 3-d draw,
        divided by a of k = 1 on axis 0 to cancel the envelope and the
        amplitude scaling, which depend on N'."""
        grid = sl.ChannelGrid(dimension=3, half_length=10.0, n1=16, nprime=nprime)
        row = sl.build_perturbation(grid, "random-nonzero-mode", 0.03, 2.0, 5)[grid.n1 // 2]
        phase = 2.0 * np.pi * grid.xprime
        coeffs = {}
        for axis, view in ((0, (slice(None), None)), (1, (None, slice(None)))):
            for k in (1, 2):
                for name, wave in (("a", np.cos), ("b", np.sin)):
                    # discrete orthogonality is exact for k < N'/2
                    coeffs[axis, k, name] = 2.0 * np.mean(row * wave(k * phase)[view])
        return {key: c / coeffs[0, 1, "a"] for key, c in coeffs.items()}

    def test_refining_the_torus_keeps_the_drawn_modes(self):
        # kmax = N'/4 grows with N', but mode k of each axis keeps its pair;
        # axis 1's modes are drawn after all of axis 0's
        coarse, fine = self.transverse_coefficients(8), self.transverse_coefficients(16)
        for key, value in coarse.items():
            assert fine[key] == pytest.approx(value, rel=1e-13, abs=1e-13), key

    def test_none_kind(self, plane):
        assert np.all(sl.build_perturbation(plane, "none", 0.0, 2.0, 5) == 0.0)

    def test_custom_datum_runs_like_its_kind(self):
        # a Problem runs any perturbation array; this one is the odd bump
        # written out, with the operations of `build_perturbation`
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="odd-bump", amplitude=0.01,
                                                        width=2.0, seed=7))
        problem = sl.build_problem(cfg)
        x1 = problem.grid.x1[:, None]
        bump = np.broadcast_to((x1 / 2.0) * np.exp(-((x1 / 2.0) ** 2)),
                               problem.grid.shape)
        arr = bump * (0.01 / float(np.max(np.abs(bump))))
        by_kind = sl.run_simulation(problem)
        custom = sl.run_simulation(replace(problem, perturbation=arr))
        assert sorted(custom.channels) == sorted(by_kind.channels)
        for name, values in by_kind.channels.items():
            np.testing.assert_array_equal(custom.channels[name], values, err_msg=name)

    def test_perturbation_of_another_shape_is_rejected(self):
        problem = sl.build_problem(make_config(dimension=2))
        with pytest.raises(ValueError, match="perturbation: shape"):
            sl.run_simulation(replace(problem, perturbation=np.zeros(8)))


class TestShiftGuard:
    """The background at the run's shift a reads the profile up to 1 + |a|
    beyond the grid's x1 range [-15, 15]; the grid-set profile reaches
    3.988 beyond it, within half a profile step of its pad 4."""

    @pytest.fixture(scope="class")
    def problem(self):
        return sl.build_problem(make_config(
            grid=GridSpec(half_length=15.0, n1=64, nprime=1),
            perturbation=PerturbationSpec(kind="gaussian-bump", amplitude=0.02,
                                          width=2.0, seed=7)))

    def test_shift_inside_the_reach_sets_up(self, problem):
        # a constant 0.19 carries mass 5.7, which the shift -5.7/strength balances
        meta, stream = sl.simulate(replace(problem, perturbation=np.full(64, 0.19)))
        assert meta["shift"] == pytest.approx(-2.85)
        assert next(stream)[0].time == 0.0

    def test_shift_beyond_the_reach_is_rejected(self, problem):
        with pytest.raises(OutOfRangeError, match="shift -3.15 .* it reaches 3.988"):
            sl.simulate(replace(problem, perturbation=np.full(64, 0.21)))

    def test_short_profile_is_rejected(self, problem):
        # unchecked, this run's Phi_L2 at t = 2 read 0.0299 against 0.00236
        short = sl.solve_profile(problem.profile.shock, 3.0, 0.01)
        with pytest.raises(OutOfRangeError, match="it reaches -12"):
            sl.simulate(replace(problem, profile=short))


class TestRunRecord:
    def test_channels_and_times(self):
        cfg = make_config(dimension=2, p_list=[2.0, 4.0])
        n = sl.run_simulation(sl.build_problem(cfg))
        np.testing.assert_allclose(n.times, np.arange(5) * 0.5, atol=1e-14)
        for name in ("pert_L2", "pert_Linf", "zmode_L2", "zmode_Linf",
                     "dzmode_L2", "nzmode_L2", "nzmode_Linf", "mass_drift",
                     "boundary_leak", "Phi_L2", "Phi_L4", "nzmode_W1L2",
                     "nzmode_W1L4"):
            assert name in n.channels
        assert n.meta["dt"] <= 0.5
        assert n.meta["dimension"] == 2

    def test_zero_perturbation_floor(self):
        # the initial field is the scheme's discrete traveling wave, a steady
        # state: the norms measured against it stay at round-off, far
        # below the h^2 offset of the continuous profile
        cfg = make_config(perturbation=PerturbationSpec(kind="none",
                                                        amplitude=0.0,
                                                        width=2.0, seed=7),
                          stepper=StepperSpec(t_final=4.0, dt_out=1.0))
        rec = sl.run_simulation(sl.build_problem(cfg))
        floor = 5e-3 * (30.0 / 255) ** 2   # generous h^2 scale
        assert np.max(rec.channels["pert_Linf"]) < floor

    def test_snapshot_cadence(self):
        fields = [fld for fld, _ in sl.simulate(sl.build_problem(make_config()))[1]]
        assert len(fields) == 5
        assert fields[-1].time == pytest.approx(2.0)

    @pytest.mark.parametrize("dt_out", [0.8, 0.3, 3.0, 0.0, -0.5])
    def test_dt_out_that_does_not_divide_t_final_is_rejected(self, dt_out):
        # outputs at 0, 0.8 and 1.6 would stop short of t_final 2
        problem = sl.build_problem(make_config())
        with pytest.raises(OutOfRangeError, match="whole outputs"):
            sl.simulate(replace(problem, dt_out=dt_out))

    @pytest.mark.parametrize("t_final, dt_out, bad", [
        (math.inf, 0.5, ["t_final", "dt_out"]),
        (math.inf, math.inf, ["t_final", "dt_out"]),
        (0.7, math.inf, ["dt_out"]),
        (math.nan, 0.5, ["t_final", "dt_out"]),
    ])
    def test_non_finite_schedule_is_an_issue(self, t_final, dt_out, bad):
        assert [arg for arg, _ in sl.solver.whole_outputs(t_final, dt_out)] == bad

    def test_infinite_t_final_is_rejected(self):
        problem = sl.build_problem(make_config())
        with pytest.raises(ArgumentError) as exc_info:
            sl.simulate(replace(problem, t_final=math.inf))
        assert "t_final" in [arg for arg, _ in exc_info.value.issues]

    @pytest.mark.parametrize("p_list", [(4.0, 4.0000001), (4.0, 4.0), (), (0.5,),
                                        (math.inf,), (2.0, math.nan)],
                             ids=["names-coincide", "repeated", "empty", "below-1",
                                  "infinite", "nan"])
    def test_bad_p_list_is_rejected(self, p_list):
        # each p names its channels Phi_L{p:g} and nzmode_W1L{p:g}
        problem = sl.build_problem(make_config())
        with pytest.raises(ArgumentError) as exc_info:
            sl.run_simulation(replace(problem, p_list=p_list))
        assert [arg for arg, _ in exc_info.value.issues] == ["p_list"]


class TestStream:
    def test_stream_is_lazy(self, monkeypatch):
        calls = []
        advance = sl.solver.advance

        def counted(*args, **kwargs):
            calls.append(1)
            return advance(*args, **kwargs)

        monkeypatch.setattr(sl.solver, "advance", counted)
        cfg = make_config()
        meta, stream = sl.simulate(sl.build_problem(cfg))
        n_sub = round(cfg.stepper.dt_out / meta["dt"])
        assert next(stream)[0].time == 0.0 and len(calls) == 0
        assert next(stream)[0].time == 0.5 and len(calls) == n_sub

    def test_run_writes_the_norms_of_run_simulation(self, tmp_path):
        doc = {"dimension": 1, "grid": {"half_length": 15.0, "n1": 64},
               "stepper": {"t_final": 2.0, "dt_out": 0.1}, "p_list": [2, 4]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--quiet"]) == 0
        norms = sl.run_simulation(sl.build_problem(config_from_dict(doc)))
        with open(out / "norms.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert set(table[0]) == {"t"} | set(norms.channels)
        assert [float(r["t"]) for r in table] == list(norms.times)
        for name, values in norms.channels.items():
            assert [float(r[name]) for r in table] == list(values), name


# interior shapes: the odd extensions 2(n + 1) = 126 = 2 3^2 7, 1022 = 2 7 73,
# 2046 = 2 3 11 31 and 5462 = 2 2731 take different pocketfft plans, and
# 1/5462 rounded once differs from pocketfft's factor, rounded from long
# double; N' = 5 is odd
TRANSFORM_SHAPES = [(1,), (2,), (62,), (510,), (1022,), (2730,),
                    (62, 5), (510, 8), (1022, 16), (62, 5, 5), (510, 8, 8), (1022, 4, 4)]


def shape_id(shape):
    return "x".join(map(str, shape))


class TestTransformsMatchScipy:
    """The numpy transforms of `advance` against scipy's, bit for bit; the
    3-d spectral layout holds the two transverse axes swapped."""

    @staticmethod
    def scipy_layout(c):
        return c.swapaxes(1, 2) if c.ndim == 3 else c

    @pytest.mark.parametrize("shape", TRANSFORM_SHAPES, ids=shape_id)
    def test_forward(self, shape):
        v = np.random.default_rng(len(shape)).standard_normal(shape)
        ref = dst(v, type=1, axis=0)
        if v.ndim > 1:
            ref = rfftn(ref, axes=tuple(range(1, v.ndim)))
        assert same_bits(sl.solver._to_spectral(v), self.scipy_layout(ref))

    @pytest.mark.parametrize("shape", TRANSFORM_SHAPES, ids=shape_id)
    def test_inverse(self, shape):
        v = np.random.default_rng(len(shape)).standard_normal(shape)
        c = sl.solver._to_spectral(v)
        kept = c.copy()
        ref = self.scipy_layout(c)
        if v.ndim > 1:
            ref = irfftn(ref, s=shape[1:], axes=tuple(range(1, v.ndim)))
        ref = idst(ref, type=1, axis=0)
        assert same_bits(sl.solver._from_spectral(c, shape), ref)
        assert same_bits(c, kept)


def plain_stencil(u, grid, speed, f1):
    """The right-hand side as one expression per term: the reference whose
    bits `_rhs_values`, which reuses its buffers, must keep."""
    f = f1(u)
    g_long = f - speed * u
    fh = 0.5 * (g_long[:-1] + g_long[1:])
    out = np.zeros_like(u)
    h1, hp = grid.h1, grid.hprime
    out[1:-1] = (fh[:-1] - fh[1:]) / h1 + (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h1 * h1)
    for axis in range(1, u.ndim):
        out -= (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * hp)
        out += (np.roll(u, -1, axis) - 2.0 * u + np.roll(u, 1, axis)) / (hp * hp)
    out[0] = 0.0
    out[-1] = 0.0
    return out


class TestRhsMatchesPlainStencil:
    # numpy evaluates an expression's temporaries in place from 256 KiB on:
    # a 512 x 8 x 8 field is exactly that size, its interior rows below it
    @pytest.mark.parametrize("dimension,n1,nprime", [(3, 512, 8), (1, 1024, 1)],
                             ids=["512x8x8", "1024"])
    @pytest.mark.parametrize("flux", [sl.burgers_flux(), sl.convex_quartic_flux()],
                             ids=["burgers", "quartic"])
    def test_same_bits(self, dimension, n1, nprime, flux):
        g = sl.ChannelGrid(dimension=dimension, half_length=30.0, n1=n1, nprime=nprime)
        shock = sl.ShockData(flux, 2.0, 0.0)
        u = 1.0 + np.random.default_rng(n1).uniform(-1.0, 1.0, g.shape)
        ref = plain_stencil(u, g, shock.speed, flux.f1)
        assert same_bits(sl.rhs(sl.Field(grid=g, values=u), shock, flux), ref)


class TestStepWorkingSet:
    def test_one_step_peak_per_cell(self):
        """One nonzero-3d step allocates at most 95 B of arrays per cell at
        its peak: ~70 when each temporary is freed at its last use, ~114
        with a work buffer kept for the step and each expression's
        temporaries held to its end."""
        cfg = config_from_dict({
            "flux": "burgers", "u_minus": 1, "u_plus": -1, "dimension": 3,
            "grid": {"half_length": 30, "n1": 512, "nprime": 8},
            "stepper": {"t_final": 0.7, "dt_out": 0.0125},
            "perturbation": {"kind": "random-nonzero-mode", "amplitude": 0.01, "seed": 3},
            "p_list": [2]})
        problem = sl.build_problem(cfg)
        fld, _, _, meta = sl.solver._setup(problem)
        shock = problem.profile.shock
        # the first step caches the ETDRK4 coefficients, which are not counted
        sl.advance(fld, meta["dt"], shock, shock.flux)
        peak = peak_bytes_per_cell(lambda: sl.advance(fld, meta["dt"], shock, shock.flux),
                                   fld.values.size)
        assert peak <= 95.0


def plain_record_norms(u, bg, grid, p_list, mass0):
    """`_record_norms` as plain expressions, each temporary held to the end
    of its expression: the bits the in-place form keeps."""
    phi = u - bg.reshape(grid.column)
    zm = sl.zero_mode(phi)
    nz = sl.nonzero_mode(phi)
    anti = sl.antiderivative(zm, grid)
    dzm = plain_gradient(zm, grid)[0]
    out = {
        "pert_L2": plain_lp_norm(phi, 2.0, grid),
        "pert_Linf": plain_lp_norm(phi, np.inf, grid),
        "zmode_L2": plain_lp_norm(zm, 2.0, grid),
        "zmode_Linf": float(np.max(np.abs(zm))),
        "dzmode_L2": plain_lp_norm(dzm, 2.0, grid),
        "nzmode_L2": plain_lp_norm(nz, 2.0, grid),
        "nzmode_Linf": plain_lp_norm(nz, np.inf, grid),
        "mass_drift": abs(sl.integrate(phi, grid) - mass0),
        "boundary_leak": float(max(np.max(np.abs(phi[:2])), np.max(np.abs(phi[-2:])))),
    }
    grad_nz = np.sqrt(sum(c * c for c in plain_gradient(nz, grid)))
    for p in p_list:
        out[f"Phi_L{p:g}"] = plain_lp_norm(anti, float(p), grid)
        out[f"nzmode_W1L{p:g}"] = (plain_lp_norm(nz, float(p), grid)
                                   + plain_lp_norm(grad_nz, float(p), grid))
    return out


# a 1-d field; decay-2d's read-only broadcast of its x1 column; a 3-d field
# whose arrays are exactly numpy's 256 KiB temporary-elision size
RECORD_SHAPES = {"1024": (1024,), "1024x16-broadcast": (1024, 16), "512x8x8": (512, 8, 8)}
RECORD_P_LIST = (2, 4, 6)
RECORD_MASS0 = 0.01


def record_inputs(name):
    """(u, background, grid) of a perturbed (1, -1) Burgers shock layer."""
    shape = RECORD_SHAPES[name]
    g = sl.ChannelGrid(dimension=len(shape), half_length=30.0, n1=shape[0],
                       nprime=shape[1] if len(shape) > 1 else 1)
    bg, _ = closed_form_sym(g.x1)
    bump = (0.01 * np.exp(-g.x1 ** 2 / 4.0)).reshape(g.column)
    if name.endswith("broadcast"):
        u = np.broadcast_to(bg.reshape(g.column) + bump, g.shape)
    else:
        noise = np.random.default_rng(shape[0]).uniform(-0.5, 0.5, g.shape)
        u = bg.reshape(g.column) + bump * (1.0 + noise)
    return u, bg, g


class TestRecordNorms:
    @pytest.mark.parametrize("name", RECORD_SHAPES)
    def test_same_bits_as_plain_expressions(self, name):
        u, bg, g = record_inputs(name)
        kept = u.copy()
        got = sl.solver._record_norms(u, bg, g, RECORD_P_LIST, RECORD_MASS0)
        ref = plain_record_norms(u, bg, g, RECORD_P_LIST, RECORD_MASS0)
        assert list(got) == list(ref)
        assert [v.hex() for v in got.values()] == [v.hex() for v in ref.values()]
        assert same_bits(u, kept)

    @pytest.mark.parametrize("name,bound", [("1024x16-broadcast", 40.0), ("512x8x8", 45.0)])
    def test_peak_per_cell(self, name, bound):
        """One record allocates ~34 B of arrays per cell at 1024 x 16 and
        ~41 at 512 x 8 x 8 when each temporary is freed at its last use;
        ~57 at both with every expression's temporaries held to its end."""
        u, bg, g = record_inputs(name)

        def record():
            sl.solver._record_norms(u, bg, g, RECORD_P_LIST, RECORD_MASS0)

        # the first call caches the grid's x1 and weights, which are not counted
        record()
        assert peak_bytes_per_cell(record, u.size) <= bound


def banded(dl, d, du):
    """The (1, 1) banded storage of `solve_banded`."""
    ab = np.zeros((3, len(d)))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return ab


def dgtsv(dl, d, du, b):
    """`_dgtsv` on Python floats, as `discrete_wave` calls it, for the
    columns of b."""
    lists = [np.asarray(x, dtype=float).tolist() for x in (dl, d, du)]
    return np.array(sl.solver._dgtsv(*lists, b.T.tolist())).T


def dgtsv_and_scipy(dl, d, du, b):
    """Solutions of `_dgtsv` and of `solve_banded` for the columns of b."""
    return dgtsv(dl, d, du, b), solve_banded((1, 1), banded(dl, d, du), b)


class TestDgtsvMatchesScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1022])
    def test_random_systems_with_row_interchanges(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            dl, du = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
            d = rng.standard_normal(n)
            # on even rows, the first one included, the subdiagonal entry
            # outweighs the diagonal one
            d[:-1:2] = dl[::2] * rng.uniform(-0.5, 0.5, len(dl[::2]))
            port, ref = dgtsv_and_scipy(dl, d, du, rng.standard_normal((n, 2)))
            assert same_bits(port, ref)

    def test_discrete_wave_jacobians(self, monkeypatch):
        systems = []
        port = sl.solver._dgtsv

        def recorded(dl, d, du, cols):
            systems.append((np.array(dl), np.array(d), np.array(du), np.array(cols).T))
            return port(dl, d, du, cols)

        monkeypatch.setattr(sl.solver, "_dgtsv", recorded)
        for flux, states in [(sl.burgers_flux(), (1.0, -1.0)),
                             (sl.burgers_flux(), (2.0, 0.0)),
                             (sl.convex_quartic_flux(), (1.0, -1.0))]:
            shock = sl.ShockData(flux, *states)
            prof = sl.solve_profile(shock, 34.0, 1e-3)
            sl.discrete_wave(sl.ChannelGrid(dimension=1, half_length=30.0, n1=512),
                             prof, 0.3)
        monkeypatch.undo()
        assert len(systems) >= 6
        for dl, d, du, b in systems:
            assert same_bits(*dgtsv_and_scipy(dl, d, du, b))

    @pytest.mark.parametrize("dl,d,du", [
        ([0.0], [0.0, 1.0], [1.0]),          # zero first pivot, nothing to swap
        ([1.0], [1.0, 1.0], [1.0]),          # elimination leaves a zero last pivot
        ([2.0, 0.0], [1.0, 4.0, 1.0], [2.0, 1.0]),   # after a row interchange
    ])
    def test_singular_system_is_a_typed_error(self, dl, d, du):
        b = np.ones((len(d), 2))
        with pytest.raises(LinAlgError):
            solve_banded((1, 1), banded(dl, d, du), b)
        with pytest.raises(WaveNotConvergedError, match="zero pivot"):
            dgtsv(dl, d, du, b)
