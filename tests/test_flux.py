"""Fluxes and shock algebra: speed, admissibility, convexity, derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl
from shocklab.errors import EqualStatesError

states = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


class TestShockSpeed:
    def test_symmetric_burgers(self, burgers1):
        assert sl.ShockData(burgers1, 1.0, -1.0).speed == 0.0

    def test_two_zero(self, burgers1):
        # RH quotient (f(2) - f(0)) / (2 - 0) = 2/2
        assert sl.ShockData(burgers1, 2.0, 0.0).speed == pytest.approx(1.0)

    def test_three_one(self, burgers1):
        # (4.5 - 0.5) / 2
        assert sl.ShockData(burgers1, 3.0, 1.0).speed == pytest.approx(2.0)

    def test_equal_states_rejected(self, burgers1):
        with pytest.raises(EqualStatesError):
            sl.ShockData(burgers1, 0.7, 0.7).speed

    @pytest.mark.parametrize("u_minus, u_plus, name", [
        (math.nan, -1.0, "u_minus"), (1.0, math.inf, "u_plus")])
    def test_non_finite_state_is_named(self, burgers1, u_minus, u_plus, name):
        with pytest.raises(EqualStatesError) as exc_info:
            sl.ShockData(burgers1, u_minus, u_plus)
        assert [arg for arg, _ in exc_info.value.issues] == [name]

    @given(a=states, b=states)
    @settings(max_examples=50, deadline=None)
    def test_swap_symmetry(self, burgers1, a, b):
        if a == b:
            return
        assert sl.ShockData(burgers1, a, b).speed == pytest.approx(
            sl.ShockData(burgers1, b, a).speed, rel=1e-14, abs=1e-14)


class TestLaxCondition:
    def test_admissible_orientation(self, burgers1):
        sh = sl.ShockData(burgers1, 1.0, -1.0)
        assert sh.admissible is True

    def test_reversed_orientation(self, burgers1):
        sh = sl.ShockData(burgers1, -1.0, 1.0)
        assert sh.admissible is False

    @given(a=states, b=states)
    @settings(max_examples=50, deadline=None)
    def test_swap_negates(self, burgers1, a, b):
        # f' strictly monotone: exactly one orientation is admissible
        if abs(a - b) < 1e-6:
            return
        fwd = sl.ShockData(burgers1, a, b)
        rev = sl.ShockData(burgers1, b, a)
        assert fwd.admissible == (not rev.admissible)


class TestShockData:
    def test_make_shock_populates(self, burgers1):
        sh = sl.ShockData(burgers1, 3.0, 1.0)
        assert sh.speed == pytest.approx(2.0)
        assert sh.strength == 2.0
        assert sh.admissible
        assert sh.u_span == (1.0, 3.0)


class TestPolynomialConvexity:
    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, -1.0], [0.0, 0.0, 0.5, np.nan]],
                             ids=["concave", "nan-coefficient"])
    def test_rejected(self, coeffs):
        with pytest.raises(ValueError, match="not convex"):
            sl.polynomial_flux(coeffs)


class TestPolynomialCoefficients:
    @pytest.mark.parametrize("coeffs", [[0, 0, "0.5"], [0, 0, True], [0, 0, 0.5, None],
                                        [], 0.5, None, [[0, 0, 0.5]], np.array(0.5)],
                             ids=["string", "bool", "none", "empty", "number", "null",
                                  "nested", "0-d-array"])
    def test_rejected(self, coeffs):
        with pytest.raises(ValueError, match="real numbers"):
            sl.polynomial_flux(coeffs)

    def test_numpy_numbers_are_accepted(self):
        fx = sl.polynomial_flux([np.float64(0.0), np.int64(0), np.float32(0.5)])
        assert fx.f1(2.0) == 2.0 and fx.df1(2.0) == 2.0


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


class TestPolynomialEvaluation:
    COEFFS = [0.0, 0.3, 0.5, 0.1, 0.02]

    def reference(self, coeffs, u):
        return np.polynomial.polynomial.polyval(u, coeffs)

    def test_scalars_equal_polyval_bit_for_bit(self):
        fx = sl.polynomial_flux(self.COEFFS)
        dcoeffs = np.polynomial.polynomial.polyder(self.COEFFS)
        for u in np.random.default_rng(5).uniform(-4.0, 4.0, 10_000).tolist():
            assert fx.f1(u) == self.reference(self.COEFFS, u)
            assert fx.df1(u) == self.reference(dcoeffs, u)

    def test_array_equals_polyval_bit_for_bit(self):
        fx = sl.polynomial_flux(self.COEFFS)
        dcoeffs = np.polynomial.polynomial.polyder(self.COEFFS)
        us = np.random.default_rng(6).uniform(-4.0, 4.0, (100, 7))
        np.testing.assert_array_equal(fx.f1(us), self.reference(self.COEFFS, us))
        np.testing.assert_array_equal(fx.df1(us), self.reference(dcoeffs, us))
