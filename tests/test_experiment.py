"""`shocklab` commands end to end on tiny grids: exit codes and artifacts."""

import json
import logging
import os
import stat

import pytest

from shocklab import cli
from shocklab.experiment import (EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK,
                                 EXIT_SIMULATION)

SMALL = {"dimension": 1, "grid": {"half_length": 15, "n1": 64}}
OK = dict(SMALL, stepper={"t_final": 2.0, "dt_out": 0.1}, p_list=[2], snapshots=True)
# the mass of an amplitude-5 bump needs a shift of -8.9, beyond the profile pad
SHIFT_TOO_LARGE = {"dimension": 1, "grid": {"half_length": 30, "n1": 128},
                   "perturbation": {"amplitude": 5.0}}
ENDS_IN_TRANSIENT = dict(SMALL, stepper={"t_final": 0.5, "dt_out": 0.25})
LEAKING = {"dimension": 2, "grid": {"half_length": 8.0, "n1": 128, "nprime": 8},
           "stepper": {"t_final": 1.0, "dt_out": 0.5},
           "perturbation": {"kind": "gaussian-bump", "amplitude": 0.01, "width": 3.0}}
# the RK4 march of the profile at the fixed step loses monotonicity
STEEP_QUARTIC = {"flux": "convex-quartic", "u_minus": 30, "u_plus": -30,
                 "dimension": 1, "grid": {"n1": 64}}
# outputs at 0, 0.8 and 1.6 would stop short of t_final
DT_OUT_NOT_DIVIDING = dict(SMALL, stepper={"t_final": 2.0, "dt_out": 0.8}, p_list=[2])
# the lab frame on 32 points drifts in mass 355 times past its allowance
COARSE_LAB = {"flux": "burgers", "u_minus": 2.0, "u_plus": 0.0, "dimension": 1,
              "grid": {"half_length": 20, "n1": 32},
              "stepper": {"t_final": 2.0, "dt_out": 0.1, "frame": "lab"}, "p_list": [2]}
# the profile's tails on |x1| <= 3 + pad are too short to fit their decay rates
SHORT_TAILS = {"dimension": 1, "grid": {"half_length": 3, "n1": 64}}
NEGATIVE_SEED = {"perturbation": {"kind": "random-nonzero-mode", "seed": -1}}
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
])
@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_bad_config_exits_1(tmp_path, caplog, command, doc, field):
    code, out, errors = run(tmp_path, command, doc, caplog)
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and f"{field}:" in errors[0]
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


def test_run_ending_inside_the_transient_exits_3(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", ENDS_IN_TRANSIENT, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and "run longer" in errors[0]
    assert files(out) == ["config-echo.json", "norms.csv"]


def test_profile_failure_exits_2(tmp_path, caplog):
    code, out, errors = run(tmp_path, "profile", STEEP_QUARTIC, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and "monotonicity lost" in errors[0]
    assert files(out) == ["config-echo.json"]


def test_profile_with_short_tails_exits_3(tmp_path, caplog):
    code, out, errors = run(tmp_path, "profile", SHORT_TAILS, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and errors[0].startswith("analysis failed:")
    assert files(out) == ["config-echo.json", "profile.txt"]


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_mass_drift_exits_3_with_one_error(tmp_path, caplog, command):
    code, out, errors = run(tmp_path, command, COARSE_LAB, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and errors[0].startswith("mass conservation failed:")
    # the drift first exceeds its allowance at t = 0.1
    assert csv_times(out) == [0.0]
    assert "rates.json" not in files(out)


def test_failed_rerun_leaves_no_earlier_results(tmp_path, caplog):
    assert run(tmp_path, "run", OK, caplog)[0] == EXIT_OK
    code, out, _ = run(tmp_path, "run", SHIFT_TOO_LARGE, caplog)
    assert code == EXIT_SIMULATION
    assert files(out) == ["config-echo.json"]
    assert run(tmp_path, "run", OK, caplog)[0] == EXIT_OK
    code, out, _ = run(tmp_path, "simulate", SHIFT_TOO_LARGE, caplog)
    assert code == EXIT_SIMULATION
    assert files(out) == ["config-echo.json"]


@pytest.mark.parametrize("content", [None, "t,f\n1,abc\n"], ids=["missing", "malformed"])
def test_check_area_unreadable_csv_exits_1(tmp_path, caplog, content):
    csv = tmp_path / "samples.csv"
    if content is not None:
        csv.write_text(content)
    caplog.clear()
    code = cli.main(["check-area", "--csv", str(csv), "--c0", "1", "--c1", "1",
                     "--alpha", "1", "--quiet"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and str(csv) in errors[0]


def test_no_temporary_files_left(tmp_path, caplog):
    for command, doc in (("run", OK), ("simulate", LEAKING), ("run", ENDS_IN_TRANSIENT)):
        run(tmp_path, command, doc, caplog)
        assert not [p for p in (tmp_path / "out").rglob(".tmp-*")]
