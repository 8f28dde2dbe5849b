"""Channel quadrature, norms, and field storage."""

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl
from shocklab.errors import BadExponentError


@pytest.fixture(scope="module")
def fine_line():
    return sl.ChannelGrid(dimension=1, half_length=20.0, n1=2001)


@pytest.fixture(scope="module")
def small_plane():
    return sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=16)


class TestGridGeometry:
    def test_spacings(self, small_plane):
        assert small_plane.h1 == pytest.approx(20.0 / 63.0)
        assert small_plane.hprime == pytest.approx(1.0 / 16.0)

    def test_transverse_weights_unit_measure(self, small_plane):
        # the weights are a column that broadcasts against a field
        w = np.broadcast_to(small_plane.weights, small_plane.shape)
        # one x1 row carries w1 * 1 total
        assert np.sum(w[3]) == pytest.approx(small_plane.w1[3], rel=1e-14)

    def test_x1_weights_total(self, fine_line):
        assert np.sum(fine_line.w1) == pytest.approx(40.0, rel=1e-14)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            sl.ChannelGrid(dimension=1, half_length=10.0, n1=8)
        with pytest.raises(ValueError):
            sl.ChannelGrid(dimension=2, half_length=10.0, n1=64, nprime=2)
        with pytest.raises(ValueError):
            sl.ChannelGrid(dimension=4, half_length=10.0, n1=64, nprime=8)

    def test_field_shape_check(self, small_plane):
        with pytest.raises(ValueError):
            sl.Field(grid=small_plane, values=np.zeros((64, 8)))
        with pytest.raises(ValueError):
            sl.Field(grid=small_plane, values=np.full(small_plane.shape, np.nan))


class TestLpNorm:
    def test_unit_constant_on_slice(self, small_plane):
        fld = sl.Field(grid=small_plane, values=np.ones(small_plane.shape))
        # one transverse slice has unit measure
        row = fld.values[0]
        w = np.full(small_plane.nprime, small_plane.hprime)
        assert np.sum(w * row ** 2) ** 0.5 == pytest.approx(1.0)

    def test_sech_l2(self, fine_line):
        # integral of sech^2 over R is 2
        v = 1.0 / np.cosh(fine_line.x1)
        assert sl.lp_norm(v, 2.0, fine_line) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_linf_is_boundary_max(self, fine_line):
        v = -np.tanh(fine_line.x1 / 2.0)
        assert sl.lp_norm(v, np.inf, fine_line) == pytest.approx(np.tanh(10.0))

    def test_bad_exponent(self, fine_line):
        with pytest.raises(BadExponentError):
            sl.lp_norm(np.ones(fine_line.n1), 0.5, fine_line)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, fine_line, scale, p):
        rng = np.random.default_rng(99)
        v = rng.standard_normal(fine_line.n1)
        lhs = sl.lp_norm(scale * v, p, fine_line)
        rhs = scale * sl.lp_norm(v, p, fine_line)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_holder_interpolation(self, small_plane, seed):
        # |f|_p <= |f|_inf^(1-2/p) |f|_2^(2/p) holds discretely
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(small_plane.shape)
        for p in (4.0, 6.0, 10.0):
            lhs = sl.lp_norm(v, p, small_plane)
            rhs = (sl.lp_norm(v, np.inf, small_plane) ** (1.0 - 2.0 / p)
                   * sl.lp_norm(v, 2.0, small_plane) ** (2.0 / p))
            assert lhs <= rhs + 1e-8

    @pytest.mark.parametrize("scale, p", [(3e-3, 2000.0), (5e-2, 400.0), (10.0, 400.0)])
    def test_large_p_neither_underflows_nor_overflows(self, fine_line, scale, p):
        # the direct sum of |f|^p is 0 for the first two and inf for the third
        v = scale / np.cosh(fine_line.x1)
        with np.errstate(over="ignore"):
            assert not 0.0 < np.sum(fine_line.w1 * np.abs(v) ** p) < np.inf
        # the same norm through logs: exp(log-sum-exp(log w + p log|f|) / p)
        terms = np.log(fine_line.w1) + p * np.log(np.abs(v))
        top = terms.max()
        expected = np.exp((top + np.log(np.sum(np.exp(terms - top)))) / p)
        got = sl.lp_norm(v, p, fine_line)
        assert 0.0 < got < np.inf
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(scale * sl.lp_norm(v / scale, p, fine_line), rel=1e-13)

    def test_zero_stays_zero(self, small_plane):
        assert sl.lp_norm(np.zeros(small_plane.shape), 2000.0, small_plane) == 0.0


class TestIntegrate:
    def test_odd_function_cancels(self, fine_line):
        v = fine_line.x1 * np.exp(-fine_line.x1 ** 2)
        assert abs(sl.integrate(v, fine_line)) < 1e-12

    def test_sech_squared(self, fine_line):
        v = 1.0 / np.cosh(fine_line.x1) ** 2
        assert sl.integrate(v, fine_line) == pytest.approx(2.0, abs=1e-6)

    def test_constant_measure(self, small_plane):
        v = np.full(small_plane.shape, 0.7)
        assert sl.integrate(v, small_plane) == pytest.approx(0.7 * 20.0, rel=1e-13)


class TestGradient:
    def test_transverse_sine_second_order(self):
        errs = []
        for nprime in (32, 64):
            g = sl.ChannelGrid(dimension=2, half_length=0.5, n1=64, nprime=nprime)
            v = np.broadcast_to(np.sin(2.0 * np.pi * g.xprime), g.shape).copy()
            d2 = sl.gradient(v, g)[1]
            exact = 2.0 * np.pi * np.cos(2.0 * np.pi * g.xprime)
            errs.append(np.max(np.abs(d2 - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_x1_slope_second_order_inside(self):
        errs = []
        for n1 in (1001, 2001):
            g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=n1)
            d1 = sl.gradient(np.tanh(g.x1), g)[0]
            errs.append(np.max(np.abs(d1 - 1.0 / np.cosh(g.x1) ** 2)[1:-1]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestFieldIO:
    def test_pickle_leaves_out_the_cached_arrays(self):
        # a snapshot of nonzero-3d's grid, sent to the writer after the norms
        # have filled the grid's caches
        grid = sl.ChannelGrid(dimension=3, half_length=30.0, n1=512, nprime=8)
        fld = sl.Field(grid=grid, values=np.ones(grid.shape), time=0.5)
        sl.lp_norm(fld.values, 2.0, grid)
        assert {"weights", "w1"} <= vars(grid).keys()
        data = pickle.dumps(fld)
        assert len(data) <= fld.values.nbytes + 1024
        back = pickle.loads(data)
        assert back.grid == grid and hash(back.grid) == hash(grid)
        np.testing.assert_array_equal(back.values, fld.values)

    def test_text_roundtrip(self, tmp_path, small_plane):
        rng = np.random.default_rng(5)
        fld = sl.Field(grid=small_plane, values=rng.standard_normal(small_plane.shape),
                       time=1.25)
        path = tmp_path / "snap.txt"
        sl.grid.save_field_text(fld, path)
        back = sl.grid.load_field_text(path)
        np.testing.assert_array_equal(back.values, fld.values)
        assert back.time == fld.time
        assert back.grid == fld.grid

    def test_numpy_scalars_roundtrip(self, tmp_path):
        # numpy 2 writes repr(np.float64(10.0)) as "np.float64(10.0)"
        grid = sl.ChannelGrid(dimension=2, half_length=np.float64(10.0), n1=16, nprime=4)
        fld = sl.Field(grid=grid, values=np.ones(grid.shape), time=np.float64(0.7))
        path = tmp_path / "snap.txt"
        sl.grid.save_field_text(fld, path)
        assert "L=10.0 t=0.7" in path.read_text().splitlines()[0]
        back = sl.grid.load_field_text(path)
        np.testing.assert_array_equal(back.values, fld.values)
        assert (back.time, back.grid) == (fld.time, fld.grid)

    def test_header_with_a_frame_still_loads(self, tmp_path, small_plane):
        # snapshots once named their frame in the header
        fld = sl.Field(grid=small_plane, values=np.ones(small_plane.shape), time=0.5)
        path = tmp_path / "snap.txt"
        sl.grid.save_field_text(fld, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0].rstrip("\n") + " frame=moving\n" + "".join(lines[1:]))
        back = sl.grid.load_field_text(path)
        np.testing.assert_array_equal(back.values, fld.values)
        assert (back.time, back.grid) == (fld.time, fld.grid)


def savetxt_bytes(values, **kwargs):
    """What ``np.savetxt(..., fmt="%.17e")`` writes for ``values``."""
    out = io.BytesIO()
    np.savetxt(out, values, fmt="%.17e", **kwargs)
    return out.getvalue()


def percent_e17(values):
    """Python's "%.17e" of each value, one a line."""
    return "".join("%.17e\n" % v for v in values).encode()


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=float)
    got = sl.grid.format_e17(values[:, None])
    assert got == percent_e17(values.tolist())
    assert got == savetxt_bytes(values[:, None])


class TestFormatE17:
    # the oracles are Python's "%.17e" and np.savetxt, never the kernel

    def test_next_to_powers_of_ten(self):
        # y = |x| 10^(17-E) lands next to 1e17 or 1e18 here: a range test on
        # the high part of y alone printed 0.99999999999999997e-277 for
        # 9.99999999999999969e-278
        values = []
        for m in range(-300, 300):
            power = float(f"1e{m}")
            up = down = power
            values.append(power)
            for _ in range(40):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                values += [up, down]
        values = np.array(values)
        assert_formats_like_python(values)
        assert_formats_like_python(-values)

    def test_exact_ties(self):
        # odd m / 2^18 in [1, 10): m 5^17 / 2 is an odd half, a tie for 18
        # digits, which Python rounds to even
        ties = np.arange(2 ** 18 + 1, 10 * 2 ** 18, 2) / 2.0 ** 18
        got = sl.grid.format_e17(ties.reshape(-1, 64))
        assert got == savetxt_bytes(ties.reshape(-1, 64))
        assert got.replace(b" ", b"\n") == percent_e17(ties.tolist())

    def test_zeros_subnormals_extremes_and_non_finite(self):
        tiny = np.finfo(float).tiny
        values = [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0), 1e-310,
                  1e-280, np.nextafter(1e-280, 1.0), 1e16, np.nextafter(1e16, 0.0),
                  1e308, -1e308, np.finfo(float).max, np.nan, -np.nan, np.inf, -np.inf]
        assert_formats_like_python(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_formats_like_python(values)
        assert sl.grid.format_e17(values.reshape(-1, 10)) == savetxt_bytes(
            values.reshape(-1, 10))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=50))
    def test_finite_floats(self, values):
        assert_formats_like_python(values)

    @pytest.mark.parametrize("shape", [(40,), (40, 5), (40, 4, 4)])
    def test_save_field_text_is_savetxt(self, tmp_path, shape):
        # a 1-d field is written as a column vector
        grid = sl.ChannelGrid(dimension=len(shape), half_length=3.5, n1=shape[0],
                              nprime=shape[-1] if len(shape) > 1 else 1)
        rng = np.random.default_rng(len(shape))
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        values.flat[:3] = 0.0, -0.0, 1.0
        path = tmp_path / "snap.txt"
        sl.grid.save_field_text(sl.Field(grid=grid, values=values, time=0.25), path)
        header = (f"shocklab-field n={len(shape)} N1={shape[0]} Nprime={grid.nprime} "
                  f"L=3.5 t=0.25")
        assert path.read_bytes() == savetxt_bytes(values.reshape(shape[0], -1),
                                                  header=header)

    def test_blocks_join_like_one_array(self, tmp_path, monkeypatch):
        # a small block splits the rows; the file must not change
        values = np.random.default_rng(3).standard_normal((37, 3))
        path = tmp_path / "rows.txt"
        monkeypatch.setattr(sl.grid, "_E17_BLOCK", 8)
        sl.grid.save_text_e17(path, values, "a b c")
        assert path.read_bytes() == savetxt_bytes(values, header="a b c")
