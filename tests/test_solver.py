"""Time stepping: scheme consistency, conservation, invariances, monitors."""

import csv
import json

import numpy as np
import pytest

import shocklab as sl
from shocklab import cli
from shocklab.config import (ExperimentConfig, GridSpec, PerturbationSpec,
                             StepperSpec, config_from_dict)
from shocklab.errors import (BlowupError, BoundaryLeakError,
                             NonzeroModePresentError, RangeExceededError,
                             WaveNotConvergedError)
from conftest import closed_form_sym


def make_config(**over):
    base = dict(
        flux="burgers", u_minus=1.0, u_plus=-1.0, dimension=1,
        grid=GridSpec(half_length=30.0, n1=256, nprime=8),
        stepper=StepperSpec(t_final=2.0, dt_out=0.5, cfl_safety=0.8),
        perturbation=PerturbationSpec(kind="gaussian-bump", amplitude=0.01,
                                      width=2.0, seed=7),
        p_list=[2.0, 4.0],
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def diffusion_setup():
    """Zero-flux system for pure-diffusion checks."""
    fx = sl.polynomial_flux([0.0], c0=1.0)
    sh = sl.ShockData(flux=fx, u_minus=1.0, u_plus=-1.0, speed=0.0,
                      strength=2.0, admissible=False)
    return fx, sh


class TestRhs:
    def test_constant_field_is_steady(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=8)
        fld = sl.Field(grid=g, values=np.full(g.shape, 0.3), frame="lab")
        r = sl.rhs(fld, shock_sym, burgers1)
        assert np.all(r == 0.0)

    def test_steady_profile_residual_second_order(self, burgers1, shock_sym):
        sups = []
        for n1 in (201, 401):
            g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=n1)
            u, _ = closed_form_sym(g.x1)
            fld = sl.Field(grid=g, values=u, frame="moving")
            sups.append(np.max(np.abs(sl.rhs(fld, shock_sym, burgers1))))
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.15)

    def test_plateau_rows_vanish(self, burgers1, shock_sym):
        # piecewise-constant end states: zero away from the middle jump
        g = sl.ChannelGrid(dimension=1, half_length=10.0, n1=64)
        u = np.where(g.x1 < 0.0, 1.0, -1.0)
        fld = sl.Field(grid=g, values=u, frame="moving")
        r = sl.rhs(fld, shock_sym, burgers1)
        assert np.all(r[:20] == 0.0)
        assert np.all(r[-20:] == 0.0)

    def test_range_guard(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=1, half_length=10.0, n1=64)
        fld = sl.Field(grid=g, values=np.full(g.shape, 7.0), frame="lab")
        with pytest.raises(RangeExceededError):
            sl.rhs(fld, shock_sym, burgers1)

    def test_boundary_rows_pinned(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=8)
        rng = np.random.default_rng(3)
        vals = 0.2 * rng.standard_normal(g.shape)
        r = sl.rhs(sl.Field(grid=g, values=vals, frame="lab"), shock_sym, burgers1)
        assert np.all(r[0] == 0.0)
        assert np.all(r[-1] == 0.0)


class TestCflDt:
    def test_formula_diffusion_limited(self, burgers1):
        # h_min = 0.05, n = 2, |f'| <= 1, s = 0:
        # min(0.0025/4, 0.05/1) = 0.000625
        g = sl.ChannelGrid(dimension=2, half_length=30.0, n1=1201, nprime=16)
        fld = sl.Field(grid=g, values=np.clip(np.sin(g.x1), -1, 1)[:, None]
                       * np.ones(16), frame="lab")
        assert sl.cfl_dt(fld, burgers1, g, 1.0) == pytest.approx(0.000625)

    def test_linear_in_safety(self, burgers1):
        g = sl.ChannelGrid(dimension=2, half_length=30.0, n1=1201, nprime=16)
        fld = sl.Field(grid=g, values=np.zeros(g.shape) + np.sin(g.x1)[:, None],
                       frame="lab")
        full = sl.cfl_dt(fld, burgers1, g, 1.0)
        assert sl.cfl_dt(fld, burgers1, g, 0.5) == pytest.approx(0.5 * full)

    def test_pure_diffusion_bound(self, diffusion_setup):
        fx, _ = diffusion_setup
        g = sl.ChannelGrid(dimension=2, half_length=30.0, n1=1201, nprime=16)
        fld = sl.Field(grid=g, values=np.zeros(g.shape), frame="lab")
        # advective bound inactive for a zero-velocity field
        assert sl.cfl_dt(fld, fx, g, 0.7) == pytest.approx(0.7 * 0.05 ** 2 / 4.0)


class TestAdvance:
    def test_zero_step_is_identity(self, burgers1, shock_sym, profile_sym):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=128)
        u, _ = sl.eval_profile(profile_sym, g.x1)
        fld = sl.Field(grid=g, values=u, frame="moving")
        out = sl.advance(fld, 0.0, shock_sym, burgers1)
        np.testing.assert_array_equal(out.values, fld.values)

    def test_heat_decay_factor(self, diffusion_setup):
        # one RK4 step of transverse diffusion shrinks a resolved sine by
        # the discrete heat factor to O(dt^5)
        fx, sh = diffusion_setup
        g = sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=32)
        v = 0.01 * np.broadcast_to(np.sin(2.0 * np.pi * g.xprime), g.shape).copy()
        fld = sl.Field(grid=g, values=v, frame="lab")
        dt = 2e-4
        out = sl.advance(fld, dt, sh, fx, blowup_bounds=(-10.0, 10.0))
        lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * g.hprime)) / g.hprime ** 2
        mid = g.n1 // 2
        ratio = np.max(np.abs(out.values[mid])) / np.max(np.abs(v[mid]))
        assert ratio == pytest.approx(np.exp(-lam * dt), abs=1e-10)

    def test_steady_profile_barely_moves(self, burgers1, shock_sym):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=401)
        u, _ = closed_form_sym(g.x1)
        fld = sl.Field(grid=g, values=u, frame="moving")
        resid = np.max(np.abs(sl.rhs(fld, shock_sym, burgers1)))
        dt = 1e-3
        out = sl.advance(fld, dt, shock_sym, burgers1)
        assert np.max(np.abs(out.values - fld.values)) <= 2.0 * dt * resid
        assert out.time == dt

    def test_blowup_guard(self, burgers1, shock_sym, profile_sym):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=128)
        u, _ = sl.eval_profile(profile_sym, g.x1)
        fld = sl.Field(grid=g, values=u, frame="moving")
        with pytest.raises(BlowupError):
            sl.advance(fld, 1e-3, shock_sym, burgers1,
                       blowup_bounds=(-0.5, 0.5))


class TestOneFluxEveryDimension:
    """The flux of a shock serves fields of any dimension unchanged."""

    @pytest.fixture(scope="class")
    def shock(self):
        return sl.make_shock(sl.burgers_flux(), 1, -1)

    @staticmethod
    def column_field(dimension, frame="moving"):
        g = sl.ChannelGrid(dimension=dimension, half_length=10.0, n1=64,
                           nprime=8 if dimension > 1 else 1)
        u, _ = closed_form_sym(g.x1)
        u = u + 0.05 * np.exp(-g.x1 ** 2)
        vals = np.broadcast_to(u.reshape((g.n1,) + (1,) * (dimension - 1)), g.shape)
        return sl.Field(grid=g, values=vals.copy(), frame=frame)

    @pytest.mark.parametrize("llf", [False, True])
    @pytest.mark.parametrize("frame", ["moving", "lab"])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_rhs_matches_1d_in_every_column(self, shock, dimension, frame, llf):
        r1 = sl.rhs(self.column_field(1, frame), shock, shock.flux, llf)
        r = sl.rhs(self.column_field(dimension, frame), shock, shock.flux, llf)
        np.testing.assert_array_equal(r, np.broadcast_to(
            r1.reshape((r1.size,) + (1,) * (dimension - 1)), r.shape))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_advance_and_advective_dt_accept_the_flux(self, shock, dimension):
        fld = self.column_field(dimension)
        g = fld.grid
        h = g.h1 if dimension == 1 else min(g.h1, g.hprime)
        vmax = float(np.max(np.abs(fld.values)))
        assert sl.advective_dt(fld, shock.flux, g, 1.0) == pytest.approx(h / vmax)
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
        fld = sl.Field(grid=g, values=u, frame="moving")
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
        rec = sl.run_simulation(make_config())
        drift = rec.norms.channels["mass_drift"]
        assert np.all(drift <= 1e-8 * (1.0 + rec.norms.times))


class TestModeInvariance:
    def test_transverse_constant_data_stays_constant(self):
        cfg = make_config(dimension=2)
        rec = sl.run_simulation(cfg)
        assert np.max(rec.norms.channels["nzmode_L2"]) <= 1e-10

    def test_1d_reference_matches_2d(self):
        cfg = make_config(dimension=2)
        rec2 = sl.run_simulation(cfg)
        rec1 = sl.run_1d_reference(cfg)
        diff = np.max(np.abs(rec2.norms.channels["zmode_L2"]
                             - rec1.norms.channels["zmode_L2"]))
        assert diff <= 1e-9

    def test_1d_reference_rejects_nonzero_mode(self):
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="random-nonzero-mode",
                                                        amplitude=0.01, width=2.0,
                                                        seed=3))
        with pytest.raises(NonzeroModePresentError):
            sl.run_1d_reference(cfg)


class TestNonzeroModeDecay:
    def test_exponential_at_torus_spectral_gap(self):
        # the transverse Poincare constant on the unit torus forces decay
        # at about 4 pi^2; measurable only before the round-off floor
        cfg = make_config(
            dimension=2,
            grid=GridSpec(half_length=30.0, n1=512, nprime=16),
            stepper=StepperSpec(t_final=0.7, dt_out=0.025, cfl_safety=0.8),
            perturbation=PerturbationSpec(kind="random-nonzero-mode",
                                          amplitude=0.01, width=2.0, seed=42))
        rec = sl.run_simulation(cfg)
        fit = sl.fit_exponential_rate(rec.norms, "nzmode_L2", (0.05, 0.6))
        assert fit.rate == pytest.approx(4.0 * np.pi ** 2, rel=0.05)
        assert fit.residual < 0.1


class TestFrameEquivalence:
    def test_lab_and_moving_agree_on_shifted_samples(self, burgers1):
        shock = sl.make_shock(burgers1, 2.0, 0.0)
        t_final = 1.0
        fields = {}
        for frame in ("moving", "lab"):
            cfg = make_config(
                u_minus=2.0, u_plus=0.0,
                grid=GridSpec(half_length=30.0, n1=512, nprime=8),
                stepper=StepperSpec(t_final=t_final, dt_out=0.5,
                                    cfl_safety=0.8, frame=frame),
                perturbation=PerturbationSpec(kind="gaussian-bump",
                                              amplitude=0.02, width=2.0, seed=7))
            fields[frame] = [fld for fld, _ in sl.simulate(cfg)[1]][-1]
        g = fields["moving"].grid
        xi = g.x1
        keep = np.abs(xi) <= g.half_length - 2.0 - shock.speed * t_final
        lab_on_xi = np.interp(xi[keep] + shock.speed * t_final, g.x1,
                              fields["lab"].values)
        diff = np.max(np.abs(fields["moving"].values[keep] - lab_on_xi))
        assert diff < 5e-3


class TestMaximumPrinciple:
    def test_llf_run_stays_in_initial_range(self):
        cfg = make_config(
            stepper=StepperSpec(t_final=1.0, dt_out=0.25, cfl_safety=0.5,
                                llf=True),
            perturbation=PerturbationSpec(kind="odd-bump", amplitude=0.05,
                                          width=2.0, seed=9))
        fields = [fld for fld, _ in sl.simulate(cfg)[1]]
        u0 = fields[0].values
        lo, hi = u0.min(), u0.max()
        for fld in fields[1:]:
            assert fld.values.min() >= lo - 1e-8
            assert fld.values.max() <= hi + 1e-8


class TestRefinement:
    def test_final_norms_second_order(self):
        vals = []
        for n1 in (129, 257, 513):
            cfg = make_config(
                grid=GridSpec(half_length=15.0, n1=n1, nprime=8),
                stepper=StepperSpec(t_final=1.0, dt_out=0.5, cfl_safety=0.8))
            rec = sl.run_simulation(cfg)
            vals.append(rec.norms.channels["zmode_L2"][-1])
        r = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert r == pytest.approx(4.0, rel=0.4)


class TestDiscreteWave:
    @pytest.mark.parametrize("flux_name,states,llf,a", [
        ("burgers", (1.0, -1.0), False, 0.0),
        ("burgers", (2.0, 0.0), True, 0.3),
        ("convex-quartic", (1.0, -1.0), False, -0.2),
    ])
    def test_steady_state_with_phase_condition(self, flux_name, states, llf, a):
        flux = (sl.burgers_flux() if flux_name == "burgers"
                else sl.convex_quartic_flux())
        shock = sl.make_shock(flux, *states)
        g = sl.ChannelGrid(dimension=1, half_length=30.0, n1=512)
        prof = sl.solve_profile(shock, 34.0, 1e-3)
        u = sl.discrete_wave(g, shock, flux, prof, a, llf)
        resid = sl.rhs(sl.Field(grid=g, values=u, frame="moving"), shock, flux, llf)
        cont, dcont = sl.eval_profile(prof, g.x1 + a, extend=True)
        # round-off on every row but the phase row, which keeps the flux
        # imbalance of the boundary rows against the wave's tails
        phase_row = 1 + np.argmax(np.abs(dcont[1:-1]))
        assert np.max(np.abs(np.delete(resid, phase_row))) <= 1e-12
        assert abs(resid[phase_row]) <= 1e-10
        assert abs(sl.integrate(u - cont, g)) <= 1e-14
        assert u[0] == cont[0] and u[-1] == cont[-1]

    def test_offset_from_continuous_profile_is_second_order(self, shock_sym,
                                                            burgers1):
        prof = sl.solve_profile(shock_sym, 19.0, 1e-3)
        offsets = []
        for n1 in (257, 513):
            g = sl.ChannelGrid(dimension=1, half_length=15.0, n1=n1)
            u = sl.discrete_wave(g, shock_sym, burgers1, prof, 0.0)
            cont, _ = sl.eval_profile(prof, g.x1)
            offsets.append(np.max(np.abs(u - cont)))
        assert offsets[0] / offsets[1] == pytest.approx(4.0, rel=0.02)


    def test_newton_cap_raises(self, shock_sym, burgers1, monkeypatch):
        monkeypatch.setattr(sl.solver, "WAVE_MAX_ITER", 1)
        g = sl.ChannelGrid(dimension=1, half_length=15.0, n1=129)
        prof = sl.solve_profile(shock_sym, 19.0, 1e-3)
        with pytest.raises(WaveNotConvergedError):
            sl.discrete_wave(g, shock_sym, burgers1, prof, 0.0)


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

    def test_1d_reference_shares_the_step(self):
        cfg = make_config(dimension=2)
        assert (sl.run_1d_reference(cfg).norms.meta["dt"]
                == sl.run_simulation(cfg).norms.meta["dt"])

    def test_nonzero_mode_run_respects_bound(self):
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="random-nonzero-mode",
                                                        amplitude=0.01, width=2.0,
                                                        seed=3))
        lam1 = (2.0 * np.sin(np.pi / 8) / (1.0 / 8)) ** 2
        assert sl.run_simulation(cfg).norms.meta["dt"] <= 1.0 / (2.0 * lam1)


class TestBoundaryLeak:
    def test_small_domain_trips_monitor(self):
        cfg = make_config(
            grid=GridSpec(half_length=8.0, n1=128, nprime=8),
            stepper=StepperSpec(t_final=1.0, dt_out=0.5, cfl_safety=0.8),
            perturbation=PerturbationSpec(kind="gaussian-bump", amplitude=0.01,
                                          width=3.0, seed=7))
        with pytest.raises(BoundaryLeakError):
            sl.run_simulation(cfg)


class TestPerturbations:
    @pytest.fixture(scope="class")
    def plane(self):
        return sl.ChannelGrid(dimension=2, half_length=20.0, n1=128, nprime=16)

    def test_amplitude_normalization(self, plane):
        for kind in ("gaussian-bump", "odd-bump", "random-nonzero-mode"):
            cfg = make_config(dimension=2,
                              perturbation=PerturbationSpec(kind=kind,
                                                            amplitude=0.03,
                                                            width=2.0, seed=5))
            pert = sl.build_perturbation(cfg, plane)
            assert np.max(np.abs(pert)) == pytest.approx(0.03, rel=1e-12)

    def test_odd_bump_mass_free(self, plane):
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="odd-bump",
                                                        amplitude=0.03,
                                                        width=2.0, seed=5))
        pert = sl.build_perturbation(cfg, plane)
        assert abs(sl.integrate(pert, plane)) < 1e-14

    def test_random_kind_is_mean_free(self, plane):
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="random-nonzero-mode",
                                                        amplitude=0.03,
                                                        width=2.0, seed=5))
        pert = sl.build_perturbation(cfg, plane)
        assert np.max(np.abs(pert.mean(axis=1))) < 1e-15

    def test_seed_determinism(self, plane):
        kw = dict(kind="random-nonzero-mode", amplitude=0.03, width=2.0)
        a = sl.build_perturbation(
            make_config(dimension=2, perturbation=PerturbationSpec(seed=5, **kw)), plane)
        b = sl.build_perturbation(
            make_config(dimension=2, perturbation=PerturbationSpec(seed=5, **kw)), plane)
        c = sl.build_perturbation(
            make_config(dimension=2, perturbation=PerturbationSpec(seed=6, **kw)), plane)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-4

    def test_none_kind(self, plane):
        cfg = make_config(dimension=2,
                          perturbation=PerturbationSpec(kind="none", amplitude=0.0,
                                                        width=2.0, seed=5))
        assert np.all(sl.build_perturbation(cfg, plane) == 0.0)


class TestRunRecord:
    def test_channels_and_times(self):
        cfg = make_config(dimension=2, p_list=[2.0, 4.0])
        rec = sl.run_simulation(cfg)
        n = rec.norms
        np.testing.assert_allclose(n.times, np.arange(5) * 0.5, atol=1e-14)
        for name in ("pert_L2", "pert_Linf", "zmode_L2", "zmode_Linf",
                     "dzmode_L2", "nzmode_L2", "nzmode_Linf", "mass_drift",
                     "boundary_leak", "Phi_L2", "Phi_L4", "nzmode_W1L2",
                     "nzmode_W1L4"):
            assert name in n.channels
        assert rec.norms.meta["dt"] <= 0.5
        assert n.meta["dimension"] == 2

    def test_zero_perturbation_floor(self):
        # the initial field is the scheme's discrete traveling wave, a steady
        # state: the norms measured against it stay at round-off, far
        # below the h^2 offset of the continuous profile
        cfg = make_config(perturbation=PerturbationSpec(kind="none",
                                                        amplitude=0.0,
                                                        width=2.0, seed=7),
                          stepper=StepperSpec(t_final=4.0, dt_out=1.0,
                                              cfl_safety=0.8))
        rec = sl.run_simulation(cfg)
        floor = 5e-3 * (30.0 / 255) ** 2   # generous h^2 scale
        assert np.max(rec.norms.channels["pert_Linf"]) < floor

    def test_snapshot_cadence(self):
        fields = [fld for fld, _ in sl.simulate(make_config())[1]]
        assert len(fields) == 5
        assert fields[-1].time == pytest.approx(2.0)


class TestStream:
    def test_stream_is_lazy(self, monkeypatch):
        calls = []
        advance = sl.solver.advance

        def counted(*args, **kwargs):
            calls.append(1)
            return advance(*args, **kwargs)

        monkeypatch.setattr(sl.solver, "advance", counted)
        cfg = make_config()
        meta, stream = sl.simulate(cfg)
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
        norms = sl.run_simulation(config_from_dict(doc)).norms
        with open(out / "norms.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert set(table[0]) == {"t"} | set(norms.channels)
        assert [float(r["t"]) for r in table] == list(norms.times)
        for name, values in norms.channels.items():
            assert [float(r[name]) for r in table] == list(values), name
