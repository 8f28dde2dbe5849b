"""`shocklab` commands end to end on tiny grids: exit codes and artifacts."""

import contextlib
import errno
import json
import logging
import math
import os
import signal
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from shocklab import cli, experiment, solver
from shocklab.analysis import (MIN_FIT_SAMPLES, NormSeries, analyze_record,
                               report_to_dict, reports_to_json)
from shocklab.config import config_from_dict
from shocklab.experiment import (EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK,
                                 EXIT_SIMULATION, build_problem)
from shocklab.grid import save_field_text
from shocklab.profile import solve_profile, verify_profile_bounds
from shocklab.solver import discrete_wave

SMALL = {"dimension": 1, "grid": {"half_length": 15, "n1": 64}}
OK = dict(SMALL, stepper={"t_final": 2.0, "dt_out": 0.1}, p_list=[2], snapshots=True)
# the mass of an amplitude-5 bump needs a shift of -8.9, beyond the profile pad
SHIFT_TOO_LARGE = {"dimension": 1, "grid": {"half_length": 30, "n1": 128},
                   "perturbation": {"amplitude": 5.0}}
ENDS_IN_TRANSIENT = dict(SMALL, stepper={"t_final": 0.5, "dt_out": 0.25})
LEAKING = {"dimension": 2, "grid": {"half_length": 8.0, "n1": 128, "nprime": 8},
           "stepper": {"t_final": 1.0, "dt_out": 0.5},
           "perturbation": {"kind": "gaussian-bump", "amplitude": 0.01, "width": 3.0}}
# lambda = 9030: the RK4 march of the profile at the tail cap's floor 1e-3
# loses monotonicity
STEEP_QUARTIC = {"flux": "convex-quartic", "u_minus": 30, "u_plus": -30,
                 "dimension": 1, "grid": {"n1": 64}}
# outputs at 0, 0.8 and 1.6 would stop short of t_final
DT_OUT_NOT_DIVIDING = dict(SMALL, stepper={"t_final": 2.0, "dt_out": 0.8}, p_list=[2])
# a background offset from the discrete wave by 1e-7 drifts in mass 1.82
# times past its allowance at t = 0.1, before any leak; by 1e-9 it does not
DRIFTING = {"dimension": 1, "grid": {"half_length": 15, "n1": 256},
            "stepper": {"t_final": 2, "dt_out": 0.1}, "p_list": [2]}
# the profile's tails on |x1| <= 3 + pad are too short to fit their decay rates
SHORT_TAILS = {"dimension": 1, "grid": {"half_length": 3, "n1": 64}}
NEGATIVE_SEED = {"perturbation": {"kind": "random-nonzero-mode", "seed": -1}}
# a fit window past t_final holds no sample
FIT_WINDOW_PAST_END = dict(SMALL, stepper={"t_final": 2.0, "dt_out": 0.1},
                           fit_window=[10, 20])
# a Lax shock whose flux f'' = 1 - u^2/25 vanishes at u_minus, inside the
# run's flux range [1.98, 6.02]
NOT_CONVEX_ON_RUN_RANGE = {"flux": [0, 0, 0.5, 0, -0.0033333333333333335],
                           "u_minus": 5, "u_plus": 3, "dimension": 1,
                           "grid": {"half_length": 30, "n1": 64},
                           "stepper": {"t_final": 0.5, "dt_out": 0.25}}
# JSON lets NaN and Infinity through; each one below is in a config that
# otherwise runs
NAN, INF = float("nan"), float("inf")
RUNS = dict(SMALL, stepper={"t_final": 2.0, "dt_out": 0.1})
NON_FINITE = [
    (dict(RUNS, stepper={"t_final": INF, "dt_out": 0.1}), "stepper.t_final"),
    (dict(RUNS, grid={"half_length": INF, "n1": 64}), "grid.half_length"),
    (dict(RUNS, grid={"half_length": NAN, "n1": 64}), "grid.half_length"),
    (dict(RUNS, perturbation={"amplitude": INF}), "perturbation.amplitude"),
    (dict(RUNS, perturbation={"amplitude": NAN}), "perturbation.amplitude"),
    (dict(RUNS, u_minus=NAN), "u_minus"),
    (dict(RUNS, p_list=[2, INF]), "p_list"),
    (dict(RUNS, fit_window=[1, INF]), "fit_window"),
    (dict(RUNS, flux=[0, 0, 0.5, NAN]), "flux"),
]
# two p values with the one channel name "4"
P_NAMES_COINCIDE = dict(RUNS, p_list=[4, 4.0000001])
# bumps this narrow underflow at every node of the grid: to zero, and to a
# subnormal peak that the amplitude over it overflows
VANISHING_BUMPS = [dict(RUNS, perturbation={"width": w}) for w in (0.001, 0.00877)]
# the default fit window (1, 2) holds the 3 outputs 1, 1.5 and 2, fewer
# than MIN_FIT_SAMPLES
TOO_FEW_TO_FIT = {"dimension": 2, "grid": {"half_length": 15, "n1": 64, "nprime": 4},
                  "stepper": {"t_final": 2.0, "dt_out": 0.5}, "p_list": [2, 4]}
# with p this large the direct sum of |Phi|^p underflows to 0
LARGE_P = dict(RUNS, p_list=[2000])
# outputs up to 1.5: the default fit window (1, 1.5) holds 6 samples and the
# bound checks' early window [1, 0.75] none
SHORT_RUN = dict(RUNS, stepper={"t_final": 1.5, "dt_out": 0.1}, p_list=[2, 4])
# 23 * 0.1 is 2.3000000000000003, past t_final: a last output labelled so
# falls outside the default window [1.15, 2.3]
ULP_PAST_END = dict(SMALL, stepper={"t_final": 2.3, "dt_out": 0.1}, p_list=[2, 4])
# an odd bump in 2-d, with a record of every kind: fits, bounds, G-N and the
# non-zero mode's fit
ODD_BUMP_2D = {"dimension": 2, "grid": {"half_length": 15, "n1": 64, "nprime": 4},
               "stepper": {"t_final": 3.0, "dt_out": 0.1}, "p_list": [2, 4],
               "perturbation": {"kind": "odd-bump", "amplitude": 0.01, "width": 2.0}}
# with no perturbation every norm channel is 0 to 4e-16, round-off
NO_PERTURBATION = dict(RUNS, perturbation={"kind": "none"}, p_list=[4])
# one more broken rule of validate_config each, after the cases above
BROKEN_RULES = [
    ({"flux": "no-such-flux"}, "flux"),
    ({"dimension": 4}, "dimension"),
    ({"u_minus": 1, "u_plus": 1}, "u_plus"),
    ({"u_minus": -1, "u_plus": 1}, "u_minus"),
    ({"grid": {"half_length": -1}}, "grid.half_length"),
    ({"grid": {"n1": 8}}, "grid.n1"),
    ({"grid": {"nprime": 2}}, "grid.nprime"),
    ({"stepper": {"cfl_safety": 1.5}}, "stepper.cfl_safety"),
    # the lab frame is gone: its key fails as unknown, whatever the value
    ({"stepper": {"frame": "moving"}}, "stepper.frame"),
    ({"perturbation": {"kind": "no-such-kind"}}, "perturbation.kind"),
    ({"dimension": 1, "perturbation": {"kind": "random-nonzero-mode"}},
     "perturbation.kind"),
    ({"perturbation": {"amplitude": -0.01}}, "perturbation.amplitude"),
    ({"perturbation": {"width": 0}}, "perturbation.width"),
    ({"p_list": [0.5]}, "p_list"),
    ({"p_list": []}, "p_list"),
]
# a transversally constant 2-d run, stepped as its x1 column
BUMP_2D = dict(OK, dimension=2, grid={"half_length": 15, "n1": 64, "nprime": 4})
# a 2-d non-zero mode on 1024 x 16: each field is 128 KiB, twice the 64 KiB
# pipe, so each send to the writer waits for it to read
WIDE_NONZERO = dict(OK, dimension=2, grid={"half_length": 15, "n1": 1024, "nprime": 16},
                    stepper={"t_final": 0.05, "dt_out": 0.005},
                    perturbation={"kind": "random-nonzero-mode"})
# samples that pass check-area with --c0 1 --c1 10 --alpha 1
AREA_CSV = "0,1\n1,0.5\n2,0.3\n"
# what each command leaves in its output directory after a good run of OK, sorted
SNAPS = [f"snapshots/field-{k:05d}.txt" for k in range(21)]
LEFT_BY = {
    "profile": ["config-echo.json", "profile-tails.json", "profile.txt"],
    "simulate": ["config-echo.json", "norms.csv"] + SNAPS,
    "run": ["config-echo.json", "norms.csv", "rates.json"] + SNAPS,
}
UMASK = 0o027


@pytest.fixture(autouse=True)
def umask():
    old = os.umask(UMASK)
    try:
        yield
    finally:
        os.umask(old)


def run(tmp_path, command, doc, caplog, *options):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    caplog.clear()
    code = cli.main([command, "--config", str(config), "--out", str(out), "--quiet",
                     *options])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    return code, out, errors


def files(out):
    return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())


def csv_times(out):
    lines = (out / "norms.csv").read_text().splitlines()
    return [float(line.split(",")[0]) for line in lines[1:]]


def assert_no_child():
    """Fails while this process has a child, running or not yet waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def within_60_s():
    """Raises TimeoutError in the block after 60 s: a hung command fails, not waits."""
    def hung(signum, frame):
        raise TimeoutError("the command still waits after 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_plain_modes(out):
    for path in out.rglob("*"):
        if path.is_file():
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~UMASK, path


def test_run_writes_every_artifact(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == LEFT_BY["run"]
    assert_plain_modes(out)
    assert "fit_Phi_L2" in json.loads((out / "rates.json").read_text())


def skipped(kind, channel, reason):
    """The rates.json record of a check that was not made."""
    return {"kind": kind, "channel": channel, "reason": reason, "verdict": "skipped",
            "exponent": None, "prefactor": None, "window": None, "residual": None,
            "worst_margin": None}


def test_run_records_each_skipped_fit(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", TOO_FEW_TO_FIT, caplog)
    assert (code, errors) == (EXIT_OK, [])
    rates = json.loads((out / "rates.json").read_text())
    reason = f"3 samples in window; need {MIN_FIT_SAMPLES}"
    for label, kind, channel in [("fit_Phi_L2", "algebraic", "Phi_L2"),
                                 ("fit_Phi_L4", "algebraic", "Phi_L4"),
                                 ("fit_nzmode_L2", "exponential", "nzmode_L2")]:
        assert rates[label] == skipped(kind, channel, reason), label
    assert rates["bound_phi_L4"]["verdict"] == "consistent"


def test_short_run_records_each_skipped_check(tmp_path, caplog):
    # the bound checks' empty windows once ended the analysis with exit 3
    # and no rates.json
    code, out, errors = run(tmp_path, "run", SHORT_RUN, caplog)
    assert (code, errors) == (EXIT_OK, [])
    rates = json.loads((out / "rates.json").read_text())
    fits = f"6 samples in window; need {MIN_FIT_SAMPLES}"
    bounds = "early/late windows are empty; run longer"
    checks = {label: rep for label, rep in rates.items()
              if label.startswith(("fit", "bound"))}
    assert checks == {
        "fit_Phi_L2": skipped("algebraic", "Phi_L2", fits),
        "fit_Phi_L4": skipped("algebraic", "Phi_L4", fits),
        "bound_phi_L4": skipped("phi-Lp", "Phi_L4", bounds),
        "bound_pert_L2_p4": skipped("pert-L2", "pert_L2", bounds),
        "bound_pert_Linf_p4": skipped("pert-Linf", "pert_Linf", bounds),
    }
    assert rates["gn_ratio_p4"]["max_ratio"] > 0.0


def test_vanishing_gn_denominator_is_recorded():
    # Phi vanishes at t = 0 for a perturbation of zero mass
    times = 0.1 * np.arange(21)
    channels = {name: 1e-3 / (1.0 + times) for name in
                ("zmode_Linf", "dzmode_L2", "pert_L2", "pert_Linf", "Phi_L4")}
    channels["Phi_L4"][0] = 0.0
    norms = NormSeries(times=times, channels=channels,
                       meta={"strength": 2.0, "p_list": [4.0], "dimension": 1})
    reports = analyze_record(norms)
    assert report_to_dict(reports["gn_ratio_p4"]) == skipped(
        "gn-ratio", "Phi_L4", "ratio denominator vanishes at some sample")


def test_last_output_is_t_final(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", ULP_PAST_END, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert csv_times(out)[-1] == 2.3
    fit = json.loads((out / "rates.json").read_text())["fit_Phi_L2"]
    assert (fit["window"], fit["n_samples"]) == ([pytest.approx(1.2), 2.3], 12)


def test_python_run_is_analysed_like_the_run_command(tmp_path, caplog):
    # the odd bump written out, as in test_custom_datum_runs_like_its_kind
    code, out, errors = run(tmp_path, "run", ODD_BUMP_2D, caplog)
    assert (code, errors) == (EXIT_OK, [])
    rates = json.loads((out / "rates.json").read_text())
    del rates["profile_tails"]
    problem = build_problem(config_from_dict(ODD_BUMP_2D))
    x1 = problem.grid.x1[:, None]
    bump = np.broadcast_to((x1 / 2.0) * np.exp(-((x1 / 2.0) ** 2)), problem.grid.shape)
    arr = bump * (0.01 / float(np.max(np.abs(bump))))
    reports = analyze_record(solver.run_simulation(replace(problem, perturbation=arr)))
    assert json.loads(reports_to_json(reports)) == rates
    # the bump is constant across x', so only the non-zero mode's fit is skipped
    assert [label for label, rep in rates.items() if rep["verdict"] == "skipped"] == [
        "fit_nzmode_L2"]
    assert sorted(rates) == ["bound_pert_L2_p4", "bound_pert_Linf_p4", "bound_phi_L4",
                             "fit_Phi_L2", "fit_Phi_L4", "fit_nzmode_L2", "gn_ratio_p4"]


def test_run_at_round_off_makes_no_check(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", NO_PERTURBATION, caplog)
    assert (code, errors) == (EXIT_OK, [])
    rates = json.loads((out / "rates.json").read_text())
    assert sorted(rates) == ["bound_pert_L2_p4", "bound_pert_Linf_p4", "bound_phi_L4",
                             "fit_Phi_L4", "gn_ratio_p4", "profile_tails"]
    for label, rep in rates.items():
        if label != "profile_tails":
            assert rep["verdict"] == "skipped", label
            assert "round-off floor 2e-12" in rep["reason"], label


def test_large_p_norm_is_recorded_and_fitted(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", LARGE_P, caplog)
    assert (code, errors) == (EXIT_OK, [])
    lines = (out / "norms.csv").read_text().splitlines()
    column = lines[0].split(",").index("Phi_L2000")
    values = [float(line.split(",")[column]) for line in lines[1:]]
    assert len(values) == 21
    assert all(0.0 < v < math.inf for v in values)
    rates = json.loads((out / "rates.json").read_text())
    assert rates["fit_Phi_L2000"]["verdict"] is None
    assert rates["fit_Phi_L2000"]["exponent"] < 0.0
    assert "gn_ratio_p2000" in rates


def test_simulate_writes_echo_and_norms(tmp_path, caplog):
    code, out, errors = run(tmp_path, "simulate", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == LEFT_BY["simulate"]
    assert_plain_modes(out)


def test_profile_writes_profile_and_tails(tmp_path, caplog):
    code, out, errors = run(tmp_path, "profile", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == LEFT_BY["profile"]
    assert_plain_modes(out)


@pytest.mark.parametrize("command", ["profile", "simulate", "run"])
def test_each_command_leaves_only_its_own_artifacts(tmp_path, caplog, command):
    assert run(tmp_path, "run", OK, caplog)[0] == EXIT_OK
    code, out, errors = run(tmp_path, command, OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == LEFT_BY[command]


@pytest.mark.parametrize("doc, field", [
    ({"grid": {"nprim": 4}}, "grid.nprim"),
    ({"grid": {"n1": "abc"}}, "grid.n1"),
    ({"grid": 5}, "grid"),
    (dict(SMALL, stepper={"t_final": -1.0}), "stepper.t_final"),
    ({"profile_step": 2.0}, "profile_step"),
    (DT_OUT_NOT_DIVIDING, "stepper.dt_out"),
    (NEGATIVE_SEED, "perturbation.seed"),
    ({"flux": [0, 0, "0.5"]}, "flux"),
    ({"flux": [0, 0, True]}, "flux"),
    ({"flux": [0, 0, 0.5, None]}, "flux"),
    (NOT_CONVEX_ON_RUN_RANGE, "flux"),
] + NON_FINITE + [(FIT_WINDOW_PAST_END, "fit_window"), (P_NAMES_COINCIDE, "p_list")]
    + BROKEN_RULES)
@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_bad_config_exits_1(tmp_path, caplog, command, doc, field):
    code, out, errors = run(tmp_path, command, doc, caplog)
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and f"{field}:" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("content", [None, '{"dimension": 1', "[1, 2]"],
                         ids=["missing", "malformed", "not-an-object"])
@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_unparsable_config_exits_1(tmp_path, caplog, command, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    out = tmp_path / "out"
    caplog.clear()
    code = cli.main([command, "--config", str(config), "--out", str(out), "--quiet"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and str(config) in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_negative_seed_override_exits_1(tmp_path, caplog, command):
    code, out, errors = run(tmp_path, command, SMALL, caplog, "--seed", "-1")
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and "perturbation.seed:" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("doc", [SHIFT_TOO_LARGE, dict(LEAKING, snapshots=True)],
                         ids=["shift", "leak"])
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_simulation_failure_exits_2(tmp_path, caplog, command, doc):
    code, out, errors = run(tmp_path, command, doc, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and errors[0].startswith("simulation failed:")
    if doc is SHIFT_TOO_LARGE:
        # the set-up fails before the first output
        assert "norms.csv" not in files(out)
    else:
        # the leak trips at t = 0.5; the t = 0 output was written as it was made
        assert csv_times(out) == [0.0]
        snaps = [f for f in files(out) if f.startswith("snapshots/")]
        assert snaps == ["snapshots/field-00000.txt"]
    assert_plain_modes(out)


@pytest.mark.parametrize("doc", VANISHING_BUMPS, ids=["zero", "subnormal"])
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_vanishing_perturbation_exits_2(tmp_path, caplog, command, doc):
    code, out, errors = run(tmp_path, command, doc, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and errors[0].startswith("simulation failed:")
    assert "perturbation.width" in errors[0]
    assert files(out) == ["config-echo.json"]


@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_unusable_out_dir_exits_1(tmp_path, caplog, command):
    (tmp_path / "out").write_text("not a directory")
    code, out, errors = run(tmp_path, command, OK, caplog)
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and str(out) in errors[0]
    assert out.read_text() == "not a directory"


def test_run_ending_inside_the_transient_exits_3(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", ENDS_IN_TRANSIENT, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and "run longer" in errors[0]
    assert files(out) == ["config-echo.json", "norms.csv"]


@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_profile_failure_exits_2(tmp_path, caplog, command):
    # run and simulate solve the profile as part of the simulation
    prefix = "profile failed:" if command == "profile" else "simulation failed:"
    code, out, errors = run(tmp_path, command, STEEP_QUARTIC, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and errors[0].startswith(prefix)
    assert "monotonicity lost" in errors[0]
    assert files(out) == ["config-echo.json"]


@pytest.mark.parametrize("n1, step", [(1024, 600.0 / 1023 / 8), (16, 304.0 / 100)],
                         ids=["h1-over-8", "capped"])
def test_weak_shock_profile_is_sampled_by_the_grid(n1, step):
    # the default box grows as 1/strength: 300 here, where a step of 1e-3
    # took 608,001 samples; n1 = 16 caps the step at (300 + pad)/100
    cfg = config_from_dict({"u_minus": 0.05, "u_plus": -0.05, "dimension": 1,
                            "grid": {"n1": n1}})
    prof = build_problem(cfg).profile
    assert prof.xi.size <= 10_000
    assert prof.xi[-1] - prof.xi[-2] == pytest.approx(step, rel=1e-12)
    assert verify_profile_bounds(prof).passed


@pytest.mark.parametrize("doc, step", [
    ({"u_minus": 4, "u_plus": -4, "grid": {"n1": 16}}, 0.2 / 4),
    ({"flux": "convex-quartic", "u_minus": 4, "u_plus": -4, "grid": {"n1": 64}},
     0.2 / (4 + 64 / 3)),
    ({"u_minus": 10, "u_plus": -10, "grid": {"n1": 64}}, 0.2 / 10),
], ids=["burgers-4-n1-16", "quartic-4-n1-64", "burgers-10-n1-64"])
def test_strong_shock_profile_step_follows_its_tails(doc, step):
    # h1/8 (0.5, 0.12, 0.12) would leave 17-19 samples in a tail's fit
    # window, or lose RK4's monotonicity; 0.2/lambda leaves ~100 in each
    prof = build_problem(config_from_dict(dict(doc, dimension=1))).profile
    assert prof.xi[-1] - prof.xi[-2] == pytest.approx(step, rel=1e-12)
    report = verify_profile_bounds(prof)
    assert report.passed and min(report.n_left, report.n_right) >= 100


@pytest.fixture(scope="module")
def fine_profiles():
    """The 1-d shocks +-1 of Burgers and of the quartic on the benchmark's box,
    their profile solved at the grid-set step and at a step of 1e-3."""
    out = {}
    for flux in ("burgers", "convex-quartic"):
        problem = build_problem(config_from_dict(
            {"flux": flux, "u_minus": 1, "u_plus": -1, "dimension": 1,
             "grid": {"half_length": 30, "n1": 1024}}))
        fine = solve_profile(problem.profile.shock, 30 + solver.PROFILE_PAD, 1e-3)
        out[flux] = problem, fine
    return out


@pytest.mark.parametrize("a", [0.0, 0.3, -2.7])
@pytest.mark.parametrize("flux", ["burgers", "convex-quartic"])
def test_grid_set_profile_step_keeps_the_discrete_wave(fine_profiles, flux, a):
    # the profile enters the wave only as Newton's seed and in its phase
    # condition; measured: at most 2.7e-13 (Burgers at a = -2.7) and
    # 3.2e-14 (quartic), against the bound 1e-12 * strength
    problem, fine = fine_profiles[flux]
    grid, shock = problem.grid, problem.profile.shock
    moved = np.max(np.abs(discrete_wave(grid, problem.profile, a)
                          - discrete_wave(grid, fine, a)))
    assert moved <= 1e-12 * shock.strength


def test_profile_with_short_tails_exits_3(tmp_path, caplog):
    code, out, errors = run(tmp_path, "profile", SHORT_TAILS, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and errors[0].startswith("analysis failed:")
    assert files(out) == ["config-echo.json", "profile.txt"]


def offset_background(monkeypatch, delta):
    """Measure against the discrete wave plus ``delta``, off the steady state."""
    monkeypatch.setattr(solver, "discrete_wave",
                        lambda *args: discrete_wave(*args) + delta)


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_singular_wave_jacobian_exits_2_with_one_error(tmp_path, caplog, monkeypatch,
                                                       command):
    # a residual that does not depend on u gives the Newton solve of
    # discrete_wave a Jacobian that is zero off the phase row
    monkeypatch.setattr(solver, "_rhs_values", lambda u, *args: np.zeros_like(u))
    code, out, errors = run(tmp_path, command, OK, caplog)
    assert code == EXIT_SIMULATION
    assert errors == ["simulation failed: singular tridiagonal matrix: zero pivot in row 0"]
    assert files(out) == ["config-echo.json"]


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_mass_drift_exits_3_with_one_error(tmp_path, caplog, monkeypatch, command):
    offset_background(monkeypatch, 1e-7)
    code, out, errors = run(tmp_path, command, DRIFTING, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and errors[0].startswith("mass conservation failed:")
    # the drift first exceeds its allowance at t = 0.1
    assert csv_times(out) == [0.0]
    assert "rates.json" not in files(out)
    offset_background(monkeypatch, 1e-9)
    code, out, errors = run(tmp_path, command, DRIFTING, caplog)
    assert (code, errors) == (EXIT_OK, [])


def test_failed_rerun_leaves_no_earlier_results(tmp_path, caplog):
    assert run(tmp_path, "run", OK, caplog)[0] == EXIT_OK
    code, out, _ = run(tmp_path, "run", SHIFT_TOO_LARGE, caplog)
    assert code == EXIT_SIMULATION
    assert files(out) == ["config-echo.json"]
    assert run(tmp_path, "run", OK, caplog)[0] == EXIT_OK
    code, out, _ = run(tmp_path, "simulate", SHIFT_TOO_LARGE, caplog)
    assert code == EXIT_SIMULATION
    assert files(out) == ["config-echo.json"]


@pytest.mark.parametrize("content, options", [
    (None, []), ("t,f\n1,abc\n", []), ("0,1\n2,0.5\n1,0.3\n", []),
    ("0,1\n1,nan\n2,0.3\n", []), (AREA_CSV, ["--t-min", "100"]),
    (AREA_CSV, ["--t-min", "nan"]), ("0\n1\n2\n", []),
], ids=["missing", "malformed", "times-not-increasing", "nan", "t-min-past-last",
        "t-min-nan", "one-column"])
def test_check_area_unreadable_csv_exits_1(tmp_path, caplog, content, options):
    csv = tmp_path / "samples.csv"
    if content is not None:
        csv.write_text(content)
    caplog.clear()
    code = cli.main(["check-area", "--csv", str(csv), "--c0", "1", "--c1", "1",
                     "--alpha", "1", "--quiet", *options])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and str(csv) in errors[0]


@pytest.mark.parametrize("content, error", [
    ("0,1\n", "unusable samples in {}: samples must be an (N, 2) array of (t, f) "
               "pairs, N >= 2"),
    ("0\n1\n2\n", "expected (t, f) columns in {}"),
], ids=["one-row", "one-column"])
def test_check_area_one_row_or_one_column_exits_1(tmp_path, caplog, content, error):
    # one row has both columns but a single sample, too few for the lemma
    csv = tmp_path / "samples.csv"
    csv.write_text(content)
    caplog.clear()
    code = cli.main(["check-area", "--csv", str(csv), "--c0", "1", "--c1", "1",
                     "--alpha", "1", "--quiet"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert (code, errors) == (EXIT_CONFIG, [error.format(csv)])


@pytest.mark.parametrize("content, options", [
    ("", []), ("# t,f\n", []), (AREA_CSV, ["--skip-rows", "3"]),
], ids=["empty", "comment-only", "skip-rows-past-data"])
def test_check_area_without_data_rows_exits_1(tmp_path, content, options):
    # numpy's "input contained no data" warning would add two stderr lines
    csv = tmp_path / "samples.csv"
    csv.write_text(content)
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiment.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "shocklab.cli", "check-area", "--csv", str(csv),
         "--c0", "1", "--c1", "1", "--alpha", "1", *options],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert (proc.stdout, proc.stderr) == ("", f"ERROR no data rows in {csv}\n")


@pytest.mark.parametrize("options", [
    ["--c0", "1", "--c1", "inf"], ["--c0", "inf", "--c1", "10"],
    ["--c0", "1", "--c1", "10", "--gamma", "nan"],
], ids=["c1-inf", "c0-inf", "gamma-nan"])
def test_check_area_non_finite_constant_exits_1(tmp_path, caplog, capsys, options):
    # an infinite C0 or C1 would pass any samples, with a worst margin of -Infinity
    csv = tmp_path / "samples.csv"
    csv.write_text(AREA_CSV)
    caplog.clear()
    code = cli.main(["check-area", "--csv", str(csv), "--alpha", "1", "--quiet",
                     *options])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == EXIT_CONFIG
    assert len(errors) == 1
    assert errors[0].startswith("parameters violate the lemma hypotheses:")
    assert capsys.readouterr().out == ""


def test_snapshots_are_the_fields_of_simulate(tmp_path, caplog):
    # snapshot 0 is written in-process, the others by the writer process;
    # the 2-d bump's run is reduced, so its fields reach the pipe as
    # read-only broadcasts of a column; the wide run's fields do not fit
    # in the pipe
    for name, doc, snaps in (("1d", OK, SNAPS), ("2d-bump", BUMP_2D, SNAPS),
                             ("2d-wide", WIDE_NONZERO, SNAPS[:11])):
        work = tmp_path / name
        work.mkdir()
        code, out, errors = run(work, "simulate", doc, caplog)
        assert (code, errors) == (EXIT_OK, [])
        assert files(out) == ["config-echo.json", "norms.csv"] + snaps
        meta, stream = solver.simulate(build_problem(config_from_dict(doc)))
        assert meta["reduced"] == (name == "2d-bump")
        expected = work / "expected.txt"
        for k, (fld, _) in enumerate(stream):
            save_field_text(fld, expected)
            assert (out / snaps[k]).read_bytes() == expected.read_bytes(), snaps[k]
        assert k == len(snaps) - 1


@pytest.mark.parametrize("k", [2, 9])
def test_failed_output_keeps_every_snapshot_before_it(tmp_path, caplog, monkeypatch, k):
    record_norms, rows = solver._record_norms, []

    def leak_at_output_k(*args):
        row = record_norms(*args)
        rows.append(row)
        if len(rows) == k + 1:
            row["boundary_leak"] = 1.0 + row["pert_Linf"]
        return row

    monkeypatch.setattr(solver, "_record_norms", leak_at_output_k)
    code, out, errors = run(tmp_path, "simulate", OK, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and errors[0].startswith("simulation failed:")
    assert len(csv_times(out)) == k
    # every write in flight ended before the command returned
    assert files(out) == ["config-echo.json", "norms.csv"] + SNAPS[:k]
    assert_no_child()


def test_no_worker_before_the_first_step(tmp_path, caplog, monkeypatch):
    # a process may end at its first step, as a set-up-only benchmark run
    # does; a worker started before it would be left mid-write
    advance, checked = solver.advance, []

    def first_step(*args, **kwargs):
        if not checked:
            assert_no_child()
            checked.append(True)
        return advance(*args, **kwargs)

    monkeypatch.setattr(solver, "advance", first_step)
    code, out, _ = run(tmp_path, "simulate", OK, caplog)
    assert (code, checked) == (EXIT_OK, [True])
    assert files(out) == LEFT_BY["simulate"]


def test_failed_snapshot_write_raises_and_leaves_no_worker(tmp_path, caplog,
                                                           monkeypatch):
    # the patch reaches the worker, which is forked after it; a failed write
    # of output 3 surfaces at a later write, one of the last output at close
    for failing in (3, 20):
        def disk_full_from_output(fld, path, failing=failing):
            if fld.time > (failing - 0.5) * 0.1:
                raise OSError(errno.ENOSPC, "No space left on device")
            save_field_text(fld, path)

        work = tmp_path / f"output-{failing}"
        work.mkdir()
        monkeypatch.setattr(experiment, "save_field_text", disk_full_from_output)
        with pytest.raises(OSError, match="No space left on device"):
            run(work, "simulate", OK, caplog)
        assert_no_child()
        # the writer ends at the failed write, which leaves no temporary file
        assert files(work / "out") == ["config-echo.json"] + SNAPS[:failing]


def test_writer_that_ends_unanswered_raises(tmp_path, caplog, monkeypatch):
    # the writer process ends before output 3 and sends nothing, by its own
    # exit or killed by a signal; the command raises ChildProcessError with
    # its exit code, a signal's negated, instead of waiting on it
    write_snapshot, stepping = experiment._write_snapshot, os.getpid()
    for name, end, code in (("exits", lambda: os._exit(1), 1),
                            ("killed", lambda: os.kill(os.getpid(), signal.SIGKILL), -9)):
        def ends_after_output_3(path, fld, end=end):
            # the stepping process writes output 0 only, and must not end
            if fld.time > 0.25 and os.getpid() != stepping:
                end()
            write_snapshot(path, fld)

        work = tmp_path / name
        work.mkdir()
        monkeypatch.setattr(experiment, "_write_snapshot", ends_after_output_3)
        with within_60_s(), pytest.raises(ChildProcessError, match=f"exit code {code} "):
            run(work, "simulate", OK, caplog)
        assert_no_child()
        assert files(work / "out") == ["config-echo.json"] + SNAPS[:3]


def test_failed_fork_raises_and_leaves_no_pipe(tmp_path, caplog, monkeypatch):
    # a fork refused, as one past the process limit is, raises at once: the
    # command neither waits on a writer that never started nor leaves the
    # ends of its pipes open
    def refused():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    open_fds = len(os.listdir("/dev/fd"))
    monkeypatch.setattr(os, "fork", refused)
    with within_60_s(), pytest.raises(OSError) as failed:
        run(tmp_path, "simulate", OK, caplog)
    assert failed.value.errno == errno.EAGAIN
    assert_no_child()
    assert len(os.listdir("/dev/fd")) == open_fds
    assert files(tmp_path / "out") == ["config-echo.json", SNAPS[0]]


def test_rerun_deletes_temporary_files_left_behind(tmp_path, caplog):
    # what a killed snapshot writer leaves
    out = tmp_path / "out"
    (out / "snapshots").mkdir(parents=True)
    (out / ".tmp-abc~").write_text("")
    (out / "snapshots" / ".tmp-def~").write_text("")
    code, out, errors = run(tmp_path, "run", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == LEFT_BY["run"]


def test_no_temporary_files_left(tmp_path, caplog):
    for command, doc in (("run", OK), ("simulate", LEAKING), ("run", ENDS_IN_TRANSIENT)):
        run(tmp_path, command, doc, caplog)
        assert not [p for p in (tmp_path / "out").rglob(".tmp-*")]


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which strict JSON lacks."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_outputs_are_strict_json(tmp_path, caplog, capsys):
    assert run(tmp_path, "run", OK, caplog)[0] == EXIT_OK
    out = tmp_path / "out"
    strict_json((out / "config-echo.json").read_text())
    assert "fit_Phi_L2" in strict_json((out / "rates.json").read_text())
    assert run(tmp_path, "profile", OK, caplog)[0] == EXIT_OK
    strict_json((out / "profile-tails.json").read_text())
    csv = tmp_path / "samples.csv"
    csv.write_text(AREA_CSV)

    def check_area(t_min):
        capsys.readouterr()
        code = cli.main(["check-area", "--csv", str(csv), "--c0", "1", "--c1", "10",
                         "--alpha", "1", "--t-min", t_min, "--quiet"])
        printed = capsys.readouterr().out
        return code, strict_json(printed) if printed else None

    code, report = check_area("1")
    assert code == EXIT_OK and report["verdict"] == "pass"
    # past the last sample nothing is checked: no report, rather than a pass
    # with a worst margin of -Infinity
    assert check_area("100") == (EXIT_CONFIG, None)
