import numpy as np
import pytest

import shocklab as sl


@pytest.fixture(scope="session")
def burgers1():
    return sl.burgers_flux()


@pytest.fixture(scope="session")
def quartic1():
    return sl.convex_quartic_flux()


@pytest.fixture(scope="session")
def shock_sym(burgers1):
    """Symmetric Burgers shock (1, -1): speed 0, strength 2."""
    return sl.ShockData(burgers1, 1.0, -1.0)


@pytest.fixture(scope="session")
def shock_moving(burgers1):
    """Asymmetric Burgers shock (2, 0): speed 1."""
    return sl.ShockData(burgers1, 2.0, 0.0)


@pytest.fixture(scope="session")
def shock_quartic(quartic1):
    return sl.ShockData(quartic1, 1.0, -1.0)


@pytest.fixture(scope="session")
def zero_flux():
    """Zero flux and a (1, -1) shock of it, for pure-diffusion checks.

    f = 0 is not strictly convex, so `polynomial_flux` would reject it.
    """
    def zero(u):
        return u * 0.0

    fx = sl.FluxSpec(zero, zero, -4.0, 4.0)
    sh = sl.ShockData(flux=fx, u_minus=1.0, u_plus=-1.0)
    return fx, sh


@pytest.fixture(scope="session")
def profile_sym(shock_sym):
    """Reference profile for the (1, -1) shock covering |xi| <= 20."""
    return sl.solve_profile(shock_sym, 20.0, 1e-3)


def closed_form_sym(xi):
    """Exact (1, -1) Burgers profile and slope."""
    xi = np.asarray(xi, dtype=float)
    return -np.tanh(xi / 2.0), -0.5 / np.cosh(xi / 2.0) ** 2
