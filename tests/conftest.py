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
    return sl.make_shock(burgers1, 1.0, -1.0)


@pytest.fixture(scope="session")
def shock_moving(burgers1):
    """Asymmetric Burgers shock (2, 0): speed 1."""
    return sl.make_shock(burgers1, 2.0, 0.0)


@pytest.fixture(scope="session")
def shock_quartic(quartic1):
    return sl.make_shock(quartic1, 1.0, -1.0)


@pytest.fixture(scope="session")
def profile_sym(shock_sym):
    """Reference profile for the (1, -1) shock covering |xi| <= 20."""
    return sl.solve_profile(shock_sym, 20.0, 1e-3)


def closed_form_sym(xi):
    """Exact (1, -1) Burgers profile and slope."""
    xi = np.asarray(xi, dtype=float)
    return -np.tanh(xi / 2.0), -0.5 / np.cosh(xi / 2.0) ** 2
