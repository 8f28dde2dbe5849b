"""Traveling-wave profile construction against the Burgers closed form."""

import numpy as np
import pytest

import shocklab as sl
from shocklab.errors import (NotAdmissibleError, StepTooLargeError,
                             TailTooShortError)

from conftest import closed_form_sym


class TestSolveProfile:
    def test_matches_closed_form(self, profile_sym):
        exact, _ = closed_form_sym(profile_sym.xi)
        assert np.max(np.abs(profile_sym.u - exact)) < 1e-12

    def test_anchor_is_midpoint(self, shock_sym, shock_moving, shock_quartic):
        for sh in (shock_sym, shock_moving, shock_quartic):
            prof = sl.solve_profile(sh, 10.0, 1e-2)
            mid = prof.u[len(prof.u) // 2]
            assert mid == pytest.approx(0.5 * (sh.u_minus + sh.u_plus), abs=1e-14)

    def test_moving_shock_form(self, shock_moving):
        # general form s - (d/2) tanh(d xi / 4), here 1 - tanh(xi/2)
        prof = sl.solve_profile(shock_moving, 15.0, 1e-3)
        k = len(prof.xi) // 2
        assert prof.u[k] == pytest.approx(1.0)
        exact = 1.0 - np.tanh(prof.xi / 2.0)
        assert np.max(np.abs(prof.u - exact)) < 1e-11

    def test_monotone_decreasing(self, profile_sym):
        assert np.all(np.diff(profile_sym.u) < 0.0)

    def test_clamped_into_open_interval(self, shock_sym):
        prof = sl.solve_profile(shock_sym, 60.0, 1e-2)
        assert prof.u[-1] > shock_sym.u_plus
        assert prof.u[0] < shock_sym.u_minus

    def test_rejects_inadmissible(self, burgers1):
        sh = sl.ShockData(flux=burgers1, u_minus=-1.0, u_plus=1.0)
        with pytest.raises(NotAdmissibleError):
            sl.solve_profile(sh, 10.0, 1e-2)

    def test_step_too_large(self, shock_sym):
        with pytest.raises(StepTooLargeError):
            sl.solve_profile(shock_sym, 300.0, 3.0)

    def test_step_precondition(self, shock_sym):
        with pytest.raises(ValueError):
            sl.solve_profile(shock_sym, 10.0, 0.2)  # step > half_length/100

    def test_mirror_symmetry(self, burgers1, shock_moving):
        mirrored = sl.ShockData(burgers1, 0.0, -2.0)
        prof = sl.solve_profile(shock_moving, 12.0, 1e-3)
        prof_m = sl.solve_profile(mirrored, 12.0, 1e-3)
        # U_mirror(xi) = -U(-xi)
        assert np.max(np.abs(prof_m.u - (-prof.u[::-1]))) < 1e-12


class TestEvalProfile:
    def test_nodes_exact(self, profile_sym):
        k = 1234
        u, du = sl.eval_profile(profile_sym, float(profile_sym.xi[k]))
        assert u == profile_sym.u[k]
        assert du == profile_sym.du[k]

    def test_off_node_accuracy(self, profile_sym):
        u, _ = sl.eval_profile(profile_sym, 1.3)
        assert abs(u - (-np.tanh(0.65))) < 1e-8

    def test_extension_mode(self, profile_sym, shock_sym):
        u, du = sl.eval_profile(profile_sym, 10.0 * profile_sym.xi[-1])
        assert (u, du) == (shock_sym.u_plus, 0.0)
        u, du = sl.eval_profile(profile_sym, -10.0 * profile_sym.xi[-1])
        assert (u, du) == (shock_sym.u_minus, 0.0)

    def test_monotone_on_fine_probe(self, profile_sym):
        xi = np.linspace(-19.9, 19.9, 40001)
        u, _ = sl.eval_profile(profile_sym, xi)
        assert np.all(np.diff(u) <= 0.0)

    def test_first_integral_residual(self, profile_sym, shock_sym):
        # d/dxi of the interpolant vs the ODE right-hand side, between nodes
        xi = np.linspace(-5.0, 5.0, 7777)
        u, du = sl.eval_profile(profile_sym, xi)
        h = 1e-5
        u_plus, _ = sl.eval_profile(profile_sym, xi + h)
        u_minus, _ = sl.eval_profile(profile_sym, xi - h)
        central_d = (u_plus - u_minus) / (2.0 * h)
        assert np.max(np.abs(central_d - du)) < 1e-8


class TestTailBounds:
    def test_fitted_rates(self, profile_sym):
        rep = sl.verify_profile_bounds(profile_sym)
        # |U'| ~ 2 exp(-|xi|), so both tail rates sit at 1
        assert rep.rate_left == pytest.approx(1.0, abs=0.01)
        assert rep.rate_right == pytest.approx(1.0, abs=0.01)
        assert rep.passed

    def test_symmetric_tails_agree(self, profile_sym):
        rep = sl.verify_profile_bounds(profile_sym)
        assert abs(rep.rate_left - rep.rate_right) < 1e-6

    def test_smallest_k(self, profile_sym):
        # |U''/U'| = |U| for this flux, so K -> strength/2 = 1 in the tails
        rep = sl.verify_profile_bounds(profile_sym)
        assert rep.k_smallest == pytest.approx(1.0, abs=0.01)

    def test_rate_scales_with_strength(self, burgers1):
        sh = sl.ShockData(burgers1, 0.5, -0.5)  # strength 1
        prof = sl.solve_profile(sh, 45.0, 5e-3)
        rep = sl.verify_profile_bounds(prof)
        assert rep.rate_per_strength_right == pytest.approx(0.5, rel=0.02)

    def test_tail_too_short(self, shock_sym):
        prof = sl.solve_profile(shock_sym, 4.0, 1e-3)
        with pytest.raises(TailTooShortError):
            sl.verify_profile_bounds(prof)


def test_two_column_export(tmp_path, profile_sym):
    path = tmp_path / "profile.txt"
    sl.profile.profile_to_text(profile_sym, path)
    data = np.loadtxt(path)
    assert data.shape == (profile_sym.xi.size, 2)
    np.testing.assert_array_equal(data[:, 0], profile_sym.xi)
    np.testing.assert_array_equal(data[:, 1], profile_sym.u)
