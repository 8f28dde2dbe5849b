"""Traveling-wave profile construction against the Burgers closed form."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import shocklab as sl
from shocklab.errors import (NotAdmissibleError, StepTooLargeError,
                             TailTooShortError)

from conftest import closed_form_sym

# the bit-identity shocks: symmetric Burgers, symmetric quartic, and an
# asymmetric moving shock of a quartic polynomial flux (f'' > 0 everywhere)
IDENTITY_SHOCKS = {
    "burgers": lambda: sl.ShockData(sl.burgers_flux(), 1.0, -1.0),
    "quartic": lambda: sl.ShockData(sl.convex_quartic_flux(), 1.0, -1.0),
    "polynomial": lambda: sl.ShockData(
        sl.polynomial_flux([0.0, 0.3, 0.5, 0.1, 0.02]), 2.0, 0.5),
}
IDENTITY_HALF_LENGTH = 30.0
IDENTITY_STEP = 1e-2


def reference_march(shock, half_length, step):
    """The profile samples by the plain RK4 loop, every step taken, as oracle."""
    f1, s = shock.flux.f1, shock.speed
    anchor = f1(shock.u_plus) - s * shock.u_plus

    def g(u):
        return f1(u) - s * u - anchor

    n_half = int(round(half_length / step))
    clamp_tol = 1e-14 * shock.strength
    lo_clamp = shock.u_plus + clamp_tol
    hi_clamp = shock.u_minus - clamp_tol
    lo_limit = shock.u_plus - 10.0 * clamp_tol
    hi_limit = shock.u_minus + 10.0 * clamp_tol

    def march(h):
        u = 0.5 * (shock.u_minus + shock.u_plus)
        out = [u]
        for _ in range(n_half):
            k1 = g(u)
            k2 = g(u + 0.5 * h * k1)
            k3 = g(u + 0.5 * h * k2)
            k4 = g(u + h * k3)
            un = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert (un - u) * h <= 0.0 and lo_limit <= un <= hi_limit
            un = min(max(un, lo_clamp), hi_clamp)
            out.append(un)
            u = un
        return out

    return np.array(march(-step)[::-1] + march(step)[1:])


def reference_eval(profile, xi):
    """`eval_profile` with scipy's CubicHermiteSpline as the interpolant."""
    shock = profile.shock
    lo, hi = profile.xi[0], profile.xi[-1]
    spline = CubicHermiteSpline(profile.xi, profile.u, profile.du)
    u = np.clip(spline(np.clip(xi, lo, hi)), *shock.u_span)
    du = shock.flux.f1(u) - shock.speed * u - (
        shock.flux.f1(shock.u_plus) - shock.speed * shock.u_plus)
    below, above = xi < lo, xi > hi
    u = np.where(below, shock.u_minus, np.where(above, shock.u_plus, u))
    return u, np.where(below | above, 0.0, du)


@pytest.fixture(scope="module", params=sorted(IDENTITY_SHOCKS))
def identity_profile(request):
    shock = IDENTITY_SHOCKS[request.param]()
    return request.param, sl.solve_profile(shock, IDENTITY_HALF_LENGTH, IDENTITY_STEP)


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

    def test_equals_reference_march(self, identity_profile):
        name, prof = identity_profile
        ref = reference_march(prof.shock, IDENTITY_HALF_LENGTH, IDENTITY_STEP)
        np.testing.assert_array_equal(prof.u, ref)
        if name == "quartic":
            # the march stopped at a fixed point; the samples after it repeat
            assert np.sum(np.diff(prof.u) == 0.0) > 100

    def test_mirror_symmetry(self, burgers1, shock_moving):
        mirrored = sl.ShockData(burgers1, 0.0, -2.0)
        prof = sl.solve_profile(shock_moving, 12.0, 1e-3)
        prof_m = sl.solve_profile(mirrored, 12.0, 1e-3)
        # U_mirror(xi) = -U(-xi)
        assert np.max(np.abs(prof_m.u - (-prof.u[::-1]))) < 1e-12


class TestEvalProfile:
    def test_equals_cubic_hermite_spline(self, identity_profile):
        _, prof = identity_profile
        rng = np.random.default_rng(7)
        lo, hi = prof.xi[0], prof.xi[-1]
        xi = np.concatenate([prof.xi, [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
                                       lo - 1.0, hi + 1.0],
                             rng.uniform(lo, hi, 20000), rng.uniform(-1.0, 1.0, 2000)])
        u, du = sl.eval_profile(prof, xi)
        u_ref, du_ref = reference_eval(prof, xi)
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(du, du_ref)

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


def test_two_column_export_is_savetxt(tmp_path, profile_sym):
    path = tmp_path / "profile.txt"
    sl.profile.profile_to_text(profile_sym, path)
    expected = tmp_path / "savetxt.txt"
    np.savetxt(expected, np.column_stack([profile_sym.xi, profile_sym.u]),
               fmt="%.17e", header="xi U")
    assert path.read_bytes() == expected.read_bytes()
