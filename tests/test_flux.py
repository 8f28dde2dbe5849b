"""Shock algebra: speed, admissibility, h and w, convexity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl
from shocklab.errors import EqualStatesError, OutOfRangeError

states = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


class TestShockSpeed:
    def test_symmetric_burgers(self, burgers1):
        assert sl.shock_speed(burgers1, 1.0, -1.0) == 0.0

    def test_two_zero(self, burgers1):
        # RH quotient (f(2) - f(0)) / (2 - 0) = 2/2
        assert sl.shock_speed(burgers1, 2.0, 0.0) == pytest.approx(1.0)

    def test_three_one(self, burgers1):
        # (4.5 - 0.5) / 2
        assert sl.shock_speed(burgers1, 3.0, 1.0) == pytest.approx(2.0)

    def test_equal_states_rejected(self, burgers1):
        with pytest.raises(EqualStatesError):
            sl.shock_speed(burgers1, 0.7, 0.7)

    @given(a=states, b=states)
    @settings(max_examples=50, deadline=None)
    def test_swap_symmetry(self, burgers1, a, b):
        if a == b:
            return
        assert sl.shock_speed(burgers1, a, b) == pytest.approx(
            sl.shock_speed(burgers1, b, a), rel=1e-14, abs=1e-14)


class TestLaxCondition:
    def test_admissible_orientation(self, burgers1):
        sh = sl.make_shock(burgers1, 1.0, -1.0)
        assert sh.admissible is True

    def test_reversed_orientation(self, burgers1):
        sh = sl.make_shock(burgers1, -1.0, 1.0)
        assert sh.admissible is False

    @given(a=states, b=states)
    @settings(max_examples=50, deadline=None)
    def test_swap_negates(self, burgers1, a, b):
        # f' strictly monotone: exactly one orientation is admissible
        if abs(a - b) < 1e-6:
            return
        fwd = sl.make_shock(burgers1, a, b)
        rev = sl.make_shock(burgers1, b, a)
        assert fwd.admissible == (not rev.admissible)


class TestShockData:
    def test_rh_residual_enforced(self, burgers1):
        with pytest.raises(ValueError, match="Rankine-Hugoniot"):
            sl.ShockData(flux=burgers1, u_minus=1.0, u_plus=-1.0,
                         speed=0.5, strength=2.0, admissible=True)

    def test_make_shock_populates(self, burgers1):
        sh = sl.make_shock(burgers1, 3.0, 1.0)
        assert sh.speed == pytest.approx(2.0)
        assert sh.strength == 2.0
        assert sh.admissible
        assert sh.u_span == (1.0, 3.0)


class TestHFunction:
    def test_midpoint_value(self, shock_sym):
        assert sl.h_function(shock_sym, 0.0) == pytest.approx(-0.5)

    def test_vanishes_at_states(self, shock_sym, shock_moving):
        for sh in (shock_sym, shock_moving):
            assert sl.h_function(sh, sh.u_plus) == pytest.approx(0.0, abs=1e-14)
            assert sl.h_function(sh, sh.u_minus) == pytest.approx(0.0, abs=1e-14)

    def test_out_of_range(self, shock_sym):
        with pytest.raises(OutOfRangeError):
            sl.h_function(shock_sym, 1.5)

    def test_same_sign_as_quadratic(self, shock_quartic):
        # h and (u - u_minus)(u - u_plus) share their sign inside
        for u in np.linspace(-0.99, 0.99, 23):
            h = sl.h_function(shock_quartic, float(u))
            q = (u - 1.0) * (u + 1.0)
            assert h * q > 0.0


class TestWeight:
    def test_burgers_interior_value(self, shock_sym):
        assert sl.weight_w(shock_sym, 0.0) == pytest.approx(2.0)

    def test_endpoint_limit(self, shock_sym):
        # endpoint formula |(-2)/(-1)|
        assert sl.weight_w(shock_sym, -1.0) == pytest.approx(2.0)
        assert sl.weight_w(shock_sym, 1.0) == pytest.approx(2.0)

    def test_out_of_range(self, shock_sym):
        with pytest.raises(OutOfRangeError):
            sl.weight_w(shock_sym, -1.01)

    def test_positive_throughout(self, shock_sym, shock_moving, shock_quartic):
        for sh in (shock_sym, shock_moving, shock_quartic):
            wmin, wmax = sl.weight_bounds(sh, 501)
            assert wmin > 0.0
            assert np.isfinite(wmax)

    @pytest.mark.parametrize("which", ["burgers", "quartic"])
    def test_second_difference_magnitude(self, which, shock_sym, shock_quartic):
        # h w is an exact quadratic, so its second divided difference is
        # the constant 2 at any interior stencil.
        sh = shock_sym if which == "burgers" else shock_quartic
        d = 0.004

        def hw(u):
            return sl.h_function(sh, u) * sl.weight_w(sh, u)

        for u in np.linspace(-0.9, 0.9, 25):
            dd = (hw(u + d) - 2.0 * hw(u) + hw(u - d)) / d ** 2
            assert abs(abs(dd) - 2.0) < 1e-8

    def test_sign_opposite_to_profile_slope(self, shock_sym, profile_sym):
        # (hw)'' = +2 here while U' < 0
        d = 0.004

        def hw(u):
            return sl.h_function(shock_sym, u) * sl.weight_w(shock_sym, u)

        dd = (hw(0.3 + d) - 2.0 * hw(0.3) + hw(0.3 - d)) / d ** 2
        mid_slope = profile_sym.du[len(profile_sym.du) // 2]
        assert np.sign(dd) * np.sign(mid_slope) == -1.0


class TestConvexity:
    def test_burgers_everywhere_one(self):
        fx = sl.burgers_flux(u_lo=-2.0, u_hi=2.0)
        assert sl.check_convexity(fx, 100) == pytest.approx(1.0)

    def test_quartic_minimum_at_origin(self):
        fx = sl.convex_quartic_flux(u_lo=-1.0, u_hi=1.0)
        # minimum of 1 + u^2 over [-1, 1]
        assert sl.check_convexity(fx, 101) == pytest.approx(1.0)

    def test_concave_reports_negative(self):
        fx = sl.polynomial_flux([0.0, 0.0, -1.0], c0=1.0, u_lo=-1.0, u_hi=1.0)
        got = sl.check_convexity(fx, 51)
        assert got == pytest.approx(-2.0)
        assert got < fx.c0  # caller flags the violation

    def test_sample_floor(self, burgers1):
        with pytest.raises(ValueError):
            sl.check_convexity(burgers1, 1)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("builder", [sl.burgers_flux, sl.convex_quartic_flux])
    def test_first_derivative_second_order(self, builder):
        fx = builder()
        us = np.linspace(-1.5, 1.5, 11)

        def central_err(h):
            approx = (fx.f1(us + h) - fx.f1(us - h)) / (2.0 * h)
            return np.max(np.abs(approx - fx.df1(us)))

        e1, e2 = central_err(1e-3), central_err(5e-4)
        assert e1 < 1e-5
        assert e1 / max(e2, 1e-300) == pytest.approx(4.0, rel=0.2) or e1 < 1e-12

    def test_polynomial_roundtrip(self):
        fx = sl.polynomial_flux([0.0, 1.0, 0.5, 0.0, 1.0 / 12.0])
        us = np.linspace(-1.0, 1.0, 7)
        expect_df = 1.0 + us + us ** 3 / 3.0
        np.testing.assert_allclose(fx.df1(us), expect_df, rtol=1e-13)
