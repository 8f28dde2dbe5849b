import tracemalloc

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


def peak_bytes_per_cell(call, cells: int) -> float:
    """The `tracemalloc` peak of the arrays one ``call()`` allocates, above
    what was allocated before it, per cell of a field of ``cells`` values."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - base) / cells


def same_bits(a, b):
    """Whether two arrays hold the same values bit for bit, signs of zero
    included."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def plain_lp_norm(arr, p, grid):
    """`lp_norm` with each sum one expression: the bits its in-place form keeps."""
    w = grid.weights if arr.shape == grid.shape else grid.w1
    mag = np.abs(arr)
    if np.isinf(p):
        return float(np.max(mag))
    with np.errstate(over="ignore"):
        total = np.sum(w * mag ** p)
    if not np.finfo(float).tiny <= total < np.inf:
        peak = np.max(mag)
        if 0.0 < peak < np.inf:
            return float(peak * np.sum(w * (mag / peak) ** p) ** (1.0 / p))
    return float(total ** (1.0 / p))


def plain_gradient(arr, grid):
    """`gradient` with each component one expression: the bits its in-place
    form keeps."""
    d1 = np.empty_like(arr)
    d1[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * grid.h1)
    d1[0] = (arr[1] - arr[0]) / grid.h1
    d1[-1] = (arr[-1] - arr[-2]) / grid.h1
    return [d1] + [(np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2.0 * grid.hprime)
                   for axis in range(1, arr.ndim)]
