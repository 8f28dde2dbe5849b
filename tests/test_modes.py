"""Mode projections, anti-derivative, and shift normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl


@pytest.fixture(scope="module")
def plane():
    return sl.ChannelGrid(dimension=2, half_length=15.0, n1=128, nprime=32)


class TestZeroMode:
    def test_transverse_constant(self, plane):
        g = np.exp(-plane.x1 ** 2)
        v = np.broadcast_to(g[:, None], plane.shape).copy()
        np.testing.assert_array_equal(sl.zero_mode(v), g)

    def test_pure_sine_vanishes(self, plane):
        v = np.broadcast_to(np.sin(2.0 * np.pi * plane.xprime), plane.shape).copy()
        assert np.max(np.abs(sl.zero_mode(v))) < 1e-14

    def test_linearity(self, plane):
        g = np.exp(-plane.x1 ** 2)
        v = g[:, None] + 0.1 * np.sin(2.0 * np.pi * plane.xprime)[None, :]
        got = sl.zero_mode(v)
        assert np.max(np.abs(got - g)) < 1e-14

    def test_identity_in_1d(self):
        g1 = sl.ChannelGrid(dimension=1, half_length=5.0, n1=32)
        v = np.sin(g1.x1)
        np.testing.assert_array_equal(sl.zero_mode(v), v)


class TestNonzeroMode:
    def test_transverse_constant_maps_to_zero(self, plane):
        v = np.broadcast_to(np.cos(plane.x1)[:, None], plane.shape).copy()
        assert np.max(np.abs(sl.nonzero_mode(v))) < 1e-14

    def test_mean_free_fixed_point(self, plane):
        v = np.broadcast_to(np.sin(2.0 * np.pi * plane.xprime), plane.shape).copy()
        got = sl.nonzero_mode(v)
        np.testing.assert_allclose(got, v, atol=1e-15)

    def test_projections_annihilate(self, plane):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(plane.shape)
        assert np.max(np.abs(sl.zero_mode(sl.nonzero_mode(v)))) < 1e-12

    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_pythagoras(self, plane, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(plane.shape)
        total = sl.lp_norm(v, 2.0, plane) ** 2
        zm = sl.lp_norm(sl.zero_mode(v), 2.0, plane) ** 2
        nz = sl.lp_norm(sl.nonzero_mode(v), 2.0, plane) ** 2
        assert abs(total - zm - nz) <= 1e-12 * total

    def test_idempotence(self, plane):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(plane.shape)
        zm1 = sl.zero_mode(v)
        zm_broadcast = np.broadcast_to(zm1[:, None], plane.shape).copy()
        np.testing.assert_allclose(sl.zero_mode(zm_broadcast), zm1, rtol=1e-15)
        nz1 = sl.nonzero_mode(v)
        nz2 = sl.nonzero_mode(nz1)
        np.testing.assert_allclose(nz2, nz1, atol=1e-14)

    def test_orthogonality(self, plane):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(plane.shape)
        zm = sl.zero_mode(v)
        nz = sl.nonzero_mode(v)
        inner = sl.integrate(zm[:, None] * nz, plane)
        scale = sl.lp_norm(v, 2.0, plane) ** 2
        assert abs(inner) <= 1e-12 * scale

    def test_mode_split_bundle(self, plane):
        rng = np.random.default_rng(14)
        v = rng.standard_normal(plane.shape)
        recon = sl.zero_mode(v)[:, None] + sl.nonzero_mode(v)
        np.testing.assert_allclose(recon, v, rtol=0, atol=1e-14)


class TestAntiDerivative:
    def test_sech_squared(self):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=4001)
        anti = sl.antiderivative(1.0 / np.cosh(g.x1) ** 2, g)
        exact = np.tanh(g.x1) + np.tanh(20.0)
        assert anti[0] == 0.0
        # interior trapezoid error is O(h^2); the end value is far better
        # because the tail derivatives vanish
        assert np.max(np.abs(anti - exact)) < 1e-5
        assert anti[-1] == pytest.approx(2.0, abs=1e-12)

    def test_mass_free_bump(self):
        g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=4001)
        anti = sl.antiderivative(g.x1 * np.exp(-g.x1 ** 2), g)
        assert abs(anti[-1]) < 1e-12

    def test_zero_input(self):
        g = sl.ChannelGrid(dimension=1, half_length=10.0, n1=101)
        anti = sl.antiderivative(np.zeros(g.n1), g)
        assert np.all(anti == 0.0)

    def test_derivative_recovers_input(self):
        # central difference of Phi returns the zero mode at O(h^2)
        errs = []
        for n1 in (501, 1001):
            g = sl.ChannelGrid(dimension=1, half_length=15.0, n1=n1)
            v = np.exp(-g.x1 ** 2)
            anti = sl.antiderivative(v, g)
            d = (anti[2:] - anti[:-2]) / (2.0 * g.h1)
            errs.append(np.max(np.abs(d - v[1:-1])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


@pytest.fixture(scope="module")
def setup(shock_sym):
    prof = sl.solve_profile(shock_sym, 36.0, 1e-3)
    grid = sl.ChannelGrid(dimension=1, half_length=30.0, n1=1024)
    return prof, grid


class TestShiftNormalize:
    def test_translation_recovered(self, setup):
        prof, grid = setup
        u0, _ = sl.eval_profile(prof, grid.x1 - 1.0)
        U, _ = sl.eval_profile(prof, grid.x1)
        a = sl.shift_normalize(u0 - U, prof.shock, grid)
        assert a == pytest.approx(-1.0, abs=1e-6)

    def test_unshifted_profile(self, setup):
        prof, grid = setup
        u0, _ = sl.eval_profile(prof, grid.x1)
        U, _ = sl.eval_profile(prof, grid.x1)
        a = sl.shift_normalize(u0 - U, prof.shock, grid)
        assert a == pytest.approx(0.0, abs=1e-12)

    def test_mass_free_bump_no_shift(self, setup):
        prof, grid = setup
        U, _ = sl.eval_profile(prof, grid.x1)
        bump = 0.01 * (grid.x1 / 2.0) * np.exp(-((grid.x1 / 2.0) ** 2))
        a = sl.shift_normalize((U + bump) - U, prof.shock, grid)
        assert a == pytest.approx(0.0, abs=1e-12)

    def test_rebased_antiderivative_mass(self, setup, shock_sym):
        # after the shift, Phi(+L) of the re-based perturbation is tiny
        prof, grid = setup
        U, _ = sl.eval_profile(prof, grid.x1)
        u0 = U + 0.01 * np.exp(-((grid.x1 / 2.0) ** 2))
        a = sl.shift_normalize(u0 - U, prof.shock, grid)
        rebased, _ = sl.eval_profile(prof, grid.x1 + a)
        anti = sl.antiderivative(u0 - rebased, grid)
        tol = 1e-10 * shock_sym.strength * grid.half_length
        assert abs(anti[-1]) <= tol

    def test_works_on_2d_field(self, setup):
        prof, _ = setup
        grid = sl.ChannelGrid(dimension=2, half_length=30.0, n1=256, nprime=8)
        u0, _ = sl.eval_profile(prof, grid.x1 - 0.5)
        U, _ = sl.eval_profile(prof, grid.x1)
        vals = np.broadcast_to(u0[:, None], grid.shape).copy()
        a = sl.shift_normalize(vals - U[:, None], prof.shock, grid)
        assert a == pytest.approx(-0.5, abs=1e-5)
