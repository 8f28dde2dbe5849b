"""Rate fits, the area inequality, bound checks, and the G-N monitor."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import shocklab as sl
from shocklab.analysis import ROUNDOFF_FRACTION, NormSeries
from shocklab.errors import (BadExponentError, BadKindError,
                             HypothesisViolatedError, MissingChannelError,
                             NonPositiveValueError, RoundOffError,
                             TooFewSamplesError, ZeroDenominatorError)


def series_of(t, **channels):
    return NormSeries(times=np.asarray(t, dtype=float),
                      channels={k: np.asarray(v, dtype=float)
                                for k, v in channels.items()})


class TestAlgebraicFit:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 400)
        s = series_of(t, v=3.0 * (1.0 + t) ** -0.5)
        fit = sl.fit_algebraic_rate(s, "v")
        assert fit.rate == pytest.approx(-0.5, abs=1e-3)
        assert fit.prefactor == pytest.approx(3.0, rel=0.01)
        assert fit.residual < 1e-10

    def test_constant_series(self):
        t = np.linspace(0.0, 10.0, 50)
        fit = sl.fit_algebraic_rate(series_of(t, v=np.full_like(t, 2.5)), "v")
        assert abs(fit.rate) < 1e-10

    def test_bounded_oscillation(self):
        t = np.linspace(10.0, 1000.0, 5000)
        s = series_of(t, v=(1.0 + t) ** -0.25 * (2.0 + np.sin(t)))
        fit = sl.fit_algebraic_rate(s, "v")
        assert fit.rate == pytest.approx(-0.25, abs=0.05)

    def test_too_few_samples(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(TooFewSamplesError):
            sl.fit_algebraic_rate(series_of(t, v=np.ones_like(t)), "v")

    def test_nonpositive_values(self):
        t = np.linspace(0.0, 10.0, 20)
        v = np.ones_like(t)
        v[7] = 0.0
        with pytest.raises(NonPositiveValueError):
            sl.fit_algebraic_rate(series_of(t, v=v), "v")


class TestExponentialFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 20.0, 300)
        fit = sl.fit_exponential_rate(series_of(t, v=2.0 * np.exp(-0.3 * t)), "v")
        assert fit.rate == pytest.approx(0.3, abs=1e-6)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-6)
        assert fit.residual < 1e-10

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 40)
        fit = sl.fit_exponential_rate(series_of(t, v=np.full_like(t, 0.7)), "v")
        assert abs(fit.rate) < 1e-12

    def test_window_above_noise_floor(self):
        t = np.linspace(0.0, 200.0, 4001)
        s = series_of(t, v=2.0 * np.exp(-0.3 * t) + 1e-14)
        fit = sl.fit_exponential_rate(s, "v", window=(0.0, 80.0))
        assert fit.rate == pytest.approx(0.3, abs=1e-3)


class TestAreaBound:
    def test_logarithmic_case(self):
        # 2 * e^-1 * ln(e)^(1/2)
        got = sl.area_bound(1.0, 1.0, 2.0, 0.0, 1.0, math.e - 1.0)
        assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_time_zero_collapses(self):
        assert sl.area_bound(1.0, 1.0, 1.5, 0.0, 0.0, 0.0) == pytest.approx(2.0)

    def test_plain_algebraic_case(self):
        # 2 sqrt(36) * 4^(-1/2)
        assert sl.area_bound(4.0, 9.0, 1.0, 0.0, 0.0, 3.0) == pytest.approx(6.0)

    @pytest.mark.parametrize("bad", [
        dict(c0=-1.0, c1=1.0, alpha=1.0, beta=0.0, gamma=0.0, t=1.0),
        dict(c0=1.0, c1=0.0, alpha=1.0, beta=0.0, gamma=0.0, t=1.0),
        dict(c0=1.0, c1=1.0, alpha=0.5, beta=0.5, gamma=0.0, t=1.0),
        dict(c0=1.0, c1=1.0, alpha=1.0, beta=-0.1, gamma=0.0, t=1.0),
        dict(c0=1.0, c1=1.0, alpha=1.8, beta=0.5, gamma=0.0, t=1.0),
        dict(c0=1.0, c1=1.0, alpha=1.0, beta=0.0, gamma=-1.0, t=1.0),
        # a non-finite constant gives an infinite or NaN bound that data
        # cannot exceed
        dict(c0=1.0, c1=math.inf, alpha=1.0, beta=0.0, gamma=0.0, t=1.0),
        dict(c0=math.inf, c1=1.0, alpha=1.0, beta=0.0, gamma=0.0, t=1.0),
        dict(c0=1.0, c1=1.0, alpha=1.0, beta=0.0, gamma=math.nan, t=1.0),
        dict(c0=1.0, c1=1.0, alpha=1.0, beta=0.0, gamma=math.inf, t=1.0),
    ])
    def test_hypothesis_violations(self, bad):
        with pytest.raises(HypothesisViolatedError):
            sl.area_bound(**bad)

    def test_monotone_decreasing_without_log(self):
        ts = np.linspace(0.5, 40.0, 100)
        vals = [sl.area_bound(2.0, 3.0, 1.2, 0.3, 0.0, t) for t in ts]
        assert np.all(np.diff(vals) < 0.0)


class TestVerifyAreaInequality:
    def _samples(self, fn, t_max=50.0, n=2001):
        t = np.linspace(0.0, t_max, n)
        return np.column_stack([t, fn(t)])

    def test_reciprocal_passes(self):
        rep = sl.verify_area_inequality(
            self._samples(lambda t: (1.0 + t) ** -1.0),
            c0=1.0, c1=1.0, alpha=2.0, beta=0.0, gamma=1.0, t_min=2.0)
        assert rep.passed
        assert rep.hypothesis_violations == ()
        assert rep.worst_margin < 0.0

    def test_triple_reciprocal_violates_integral_bound(self):
        rep = sl.verify_area_inequality(
            self._samples(lambda t: 3.0 * (1.0 + t) ** -1.0),
            c0=1.0, c1=1.0, alpha=2.0, beta=0.0, gamma=1.0, t_min=2.0)
        assert any("integral" in v for v in rep.hypothesis_violations)

    def test_zero_function_passes(self):
        rep = sl.verify_area_inequality(
            self._samples(lambda t: np.zeros_like(t)),
            c0=1.0, c1=1.0, alpha=1.0, beta=0.0, gamma=0.0, t_min=1.0)
        assert rep.passed
        assert rep.hypothesis_violations == ()

    def test_increasing_samples_violate_derivative_bound(self):
        # the difference quotient 0.3 first exceeds 1.01 / (1 + t) past t = 2.367
        rep = sl.verify_area_inequality(
            self._samples(lambda t: 0.3 * t),
            c0=1.0, c1=1000.0, alpha=1.0, beta=0.0, gamma=0.0, t_min=1.0)
        assert rep.hypothesis_violations == (
            "derivative bound fails first at t=2.375: quotient 0.3 > 0.296296",)


class TestTheoremBoundCheck:
    def _series(self, decay):
        t = np.linspace(0.0, 100.0, 401)
        return series_of(t, **{"Phi_L4": (1.0 + t) ** decay})

    def test_saturated_bound_consistent(self):
        theta = (4.0 - 2.0) / (4.0 * 4.0)
        rep = sl.theorem_bound_check(self._series(-theta), 4.0, "phi-Lp")
        assert rep.consistent
        assert rep.sup_ratio == pytest.approx(1.0, rel=1e-12)

    def test_faster_decay_consistent(self):
        theta = (4.0 - 2.0) / (4.0 * 4.0)
        rep = sl.theorem_bound_check(self._series(-2.0 * theta), 4.0, "phi-Lp")
        assert rep.consistent
        assert rep.late_sup < rep.early_sup

    def test_slower_decay_flagged(self):
        # the late/early sup ratio of (1+t)^g is 2^g, so the 1.05 slack
        # resolves growth exponents above log2(1.05) ~ 0.07; p = 6 puts the
        # half-rate series past that threshold
        theta = (6.0 - 2.0) / (4.0 * 6.0)
        t = np.linspace(0.0, 100.0, 401)
        s = series_of(t, Phi_L6=(1.0 + t) ** (-theta / 2.0))
        rep = sl.theorem_bound_check(s, 6.0, "phi-Lp")
        assert not rep.consistent

    def test_stalled_series_flagged(self):
        rep = sl.theorem_bound_check(self._series(0.0), 4.0, "phi-Lp")
        assert not rep.consistent

    def test_scale_covariance(self):
        theta = (4.0 - 2.0) / (4.0 * 4.0)
        t = np.linspace(0.0, 100.0, 401)
        v = (1.0 + t) ** (-theta / 2.0)
        r1 = sl.theorem_bound_check(series_of(t, Phi_L4=v), 4.0, "phi-Lp")
        r2 = sl.theorem_bound_check(series_of(t, Phi_L4=7.0 * v), 4.0, "phi-Lp")
        assert r2.sup_ratio == pytest.approx(7.0 * r1.sup_ratio, rel=1e-12)
        assert r1.consistent == r2.consistent

    def test_exponent_table(self):
        # the three candidate exponents for p = 6, as each check reports them
        t = np.linspace(0.0, 100.0, 401)
        s = series_of(t, **{name: (1.0 + t) ** -0.5
                            for name in ("Phi_L6", "pert_L2", "pert_Linf")})
        assert sl.theorem_bound_check(s, 6.0, "phi-Lp").theta == pytest.approx(4.0 / 24.0)
        assert sl.theorem_bound_check(s, 6.0, "pert-L2").theta == pytest.approx(4.0 / 48.0)
        assert sl.theorem_bound_check(s, 6.0, "pert-Linf").theta == pytest.approx(52.0 / 480.0)

    def test_output_an_ulp_past_mid_window_is_in_both_windows(self):
        # outputs are labelled k * 0.1 and t_final is snapped to 2.4, so
        # output 12 overshoots t_mid = 1.2 by an ulp
        t = 0.1 * np.arange(25)
        t[-1] = 2.4
        assert t[12] > 1.2
        theta = (4.0 - 2.0) / (4.0 * 4.0)
        r = np.ones(25)
        r[12] = 2.0
        rep = sl.theorem_bound_check(series_of(t, Phi_L4=r * (1.0 + t) ** -theta),
                                     4.0, "phi-Lp")
        assert rep.early_sup == pytest.approx(2.0, rel=1e-12)
        assert rep.late_sup == pytest.approx(2.0, rel=1e-12)
        assert rep.consistent

    def test_bad_kind(self):
        with pytest.raises(BadKindError):
            sl.theorem_bound_check(self._series(-0.5), 4.0, "no-such-kind")

    def test_p_must_exceed_two(self):
        with pytest.raises(BadExponentError):
            sl.theorem_bound_check(self._series(-0.5), 2.0, "phi-Lp")

    def test_missing_channel(self):
        with pytest.raises(MissingChannelError):
            sl.theorem_bound_check(self._series(-0.5), 4.0, "pert-L2")


class TestGNMonitor:
    def test_closed_form_oracle(self):
        # zero mode sech(x1), anti-derivative tanh(x1) + 1, p = 4; the three
        # norms are computed with an independent quadrature and the monitor
        # must reproduce their combination on a fine grid.
        L = 20.0
        p = 4.0
        zinf = 1.0
        dz = math.sqrt(quad(lambda x: (np.sinh(x) / np.cosh(x) ** 2) ** 2, -L, L)[0])
        phi = quad(lambda x: (1.0 + np.tanh(x)) ** 4, -L, L)[0] ** 0.25
        a = 4.0 * (p + 1.0) / (3.0 * p + 2.0)
        b = 2.0 * p / (3.0 * p + 2.0)
        expected = zinf ** 2 / (dz ** a * phi ** b)

        g = sl.ChannelGrid(dimension=1, half_length=L, n1=8001)
        anti = sl.antiderivative(1.0 / np.cosh(g.x1) ** 2, g)
        zm = 1.0 / np.cosh(g.x1)
        dzm = np.gradient(zm, g.h1)
        s = series_of([0.0, 1.0],
                      zmode_Linf=[zinf, zinf],
                      dzmode_L2=[sl.lp_norm(dzm, 2.0, g)] * 2,
                      Phi_L4=[sl.lp_norm(anti, 4.0, g)] * 2)
        rep = sl.gn_ratio_monitor(s, p)
        assert rep.max_ratio == pytest.approx(expected, rel=1e-3)

    def test_scaling_invariance(self):
        t = np.linspace(0.0, 1.0, 11)
        base = dict(zmode_Linf=np.full_like(t, 0.3),
                    dzmode_L2=np.full_like(t, 0.2),
                    Phi_L4=np.full_like(t, 0.5))
        lam = 17.0
        scaled = {k: lam * v for k, v in base.items()}
        r1 = sl.gn_ratio_monitor(series_of(t, **base), 4.0)
        r2 = sl.gn_ratio_monitor(series_of(t, **scaled), 4.0)
        assert r2.max_ratio == pytest.approx(r1.max_ratio, rel=1e-12)

    def test_grid_refinement_stable(self):
        ratios = []
        for n1 in (2001, 4001):
            g = sl.ChannelGrid(dimension=1, half_length=20.0, n1=n1)
            zm = 1.0 / np.cosh(g.x1)
            anti = sl.antiderivative(zm ** 2, g)
            dzm = np.gradient(zm, g.h1)
            s = series_of([0.0, 1.0],
                          zmode_Linf=[np.max(np.abs(zm))] * 2,
                          dzmode_L2=[sl.lp_norm(dzm, 2.0, g)] * 2,
                          Phi_L4=[sl.lp_norm(anti, 4.0, g)] * 2)
            ratios.append(sl.gn_ratio_monitor(s, 4.0).max_ratio)
        assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.01

    def test_zero_denominator(self):
        t = np.linspace(0.0, 1.0, 11)
        s = series_of(t, zmode_Linf=np.ones_like(t),
                      dzmode_L2=np.zeros_like(t), Phi_L4=np.ones_like(t))
        with pytest.raises(ZeroDenominatorError):
            sl.gn_ratio_monitor(s, 4.0)

    def test_missing_channel(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(MissingChannelError):
            sl.gn_ratio_monitor(series_of(t, zmode_Linf=np.ones_like(t)), 4.0)


# every check of the run, on a series that holds each channel it reads
CHECKS = {
    "algebraic": lambda s: sl.fit_algebraic_rate(s, "Phi_L4"),
    "exponential": lambda s: sl.fit_exponential_rate(s, "Phi_L4"),
    "phi-Lp": lambda s: sl.theorem_bound_check(s, 4.0, "phi-Lp"),
    "pert-L2": lambda s: sl.theorem_bound_check(s, 4.0, "pert-L2"),
    "pert-Linf": lambda s: sl.theorem_bound_check(s, 4.0, "pert-Linf"),
    "gn-ratio": lambda s: sl.gn_ratio_monitor(s, 4.0),
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
class TestRoundOff:
    STRENGTH = 2.0

    def _series(self, last, meta):
        t = np.linspace(0.0, 4.0, 41)
        v = np.full_like(t, 1e-16)
        v[-1] = last
        return NormSeries(t, {name: v for name in ("Phi_L4", "pert_L2", "pert_Linf",
                                                   "zmode_Linf", "dzmode_L2")}, meta)

    def test_every_sample_at_round_off_is_not_checked(self, check):
        floor = ROUNDOFF_FRACTION * self.STRENGTH
        with pytest.raises(RoundOffError, match="round-off floor 2e-12"):
            check(self._series(floor, {"strength": self.STRENGTH}))

    def test_one_sample_above_round_off_is_checked(self, check):
        check(self._series(1.5 * ROUNDOFF_FRACTION * self.STRENGTH,
                           {"strength": self.STRENGTH}))

    def test_series_without_strength_is_checked(self, check):
        check(self._series(1e-16, {}))


class TestNormSeries:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            series_of([0.0, 2.0, 1.0], v=[1.0, 1.0, 1.0])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            series_of([0.0, 1.0], v=[1.0, -1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            NormSeries(times=np.array([0.0, 1.0]),
                       channels={"v": np.array([1.0])})

    def test_missing_channel_error(self):
        s = series_of([0.0, 1.0], v=[1.0, 1.0])
        with pytest.raises(MissingChannelError):
            s.channel("w")

    def test_window_keeps_an_output_an_ulp_past_its_end(self):
        # output k is labelled k * dt_out, and 48 * 0.0125 overshoots 0.6
        times = 0.0125 * np.arange(57)
        assert times[48] > 0.6
        mask = series_of(times, v=np.ones(57)).window_mask((0.05, 0.6))
        assert np.flatnonzero(mask).tolist() == list(range(4, 49))


def test_report_json_layout(tmp_path):
    t = np.linspace(1.0, 100.0, 200)
    s = series_of(t, **{"Phi_L4": 2.0 * (1.0 + t) ** -0.25})
    reports = {
        "fit": sl.fit_algebraic_rate(s, "Phi_L4"),
        "bound": sl.theorem_bound_check(s, 4.0, "phi-Lp"),
    }
    path = tmp_path / "rates.json"
    text = sl.analysis.reports_to_json(reports, path)
    import json
    doc = json.loads(path.read_text())
    assert doc == json.loads(text)
    assert doc["fit"]["exponent"] == pytest.approx(-0.25, abs=1e-6)
    assert doc["fit"]["prefactor"] == pytest.approx(2.0, rel=1e-3)
    assert doc["bound"]["verdict"] == "consistent"
    for key in ("kind", "exponent", "prefactor", "window", "residual",
                "verdict", "worst_margin"):
        assert key in doc["fit"]
