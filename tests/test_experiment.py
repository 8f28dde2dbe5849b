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
UMASK = 0o027


@pytest.fixture(autouse=True)
def umask():
    old = os.umask(UMASK)
    try:
        yield
    finally:
        os.umask(old)


def run(tmp_path, command, doc, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    caplog.clear()
    code = cli.main([command, "--config", str(config), "--out", str(out), "--quiet"])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    return code, out, errors


def files(out):
    return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())


def assert_plain_modes(out):
    for path in out.rglob("*"):
        if path.is_file():
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~UMASK, path


def test_run_writes_every_artifact(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    snaps = [f"snapshots/field-{k:05d}.txt" for k in range(21)]
    assert files(out) == sorted(["config-echo.json", "norms.csv", "profile.txt",
                                 "rates.json"] + snaps)
    assert_plain_modes(out)
    assert "fit_Phi_L2" in json.loads((out / "rates.json").read_text())


def test_simulate_writes_echo_and_norms(tmp_path, caplog):
    code, out, errors = run(tmp_path, "simulate", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == ["config-echo.json", "norms.csv"]
    assert_plain_modes(out)


def test_profile_writes_profile_and_tails(tmp_path, caplog):
    code, out, errors = run(tmp_path, "profile", OK, caplog)
    assert (code, errors) == (EXIT_OK, [])
    assert files(out) == ["profile-tails.json", "profile.txt"]
    assert_plain_modes(out)


@pytest.mark.parametrize("doc, field", [
    ({"grid": {"nprim": 4}}, "grid.nprim"),
    ({"grid": {"n1": "abc"}}, "grid.n1"),
    ({"grid": 5}, "grid"),
    (dict(SMALL, stepper={"t_final": -1.0}), "stepper.t_final"),
    ({"profile_step": 2.0}, "profile_step"),
    (DT_OUT_NOT_DIVIDING, "stepper.dt_out"),
])
@pytest.mark.parametrize("command", ["run", "simulate", "profile"])
def test_bad_config_exits_1(tmp_path, caplog, command, doc, field):
    code, out, errors = run(tmp_path, command, doc, caplog)
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and f"{field}:" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("doc", [SHIFT_TOO_LARGE, LEAKING], ids=["shift", "leak"])
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_simulation_failure_exits_2(tmp_path, caplog, command, doc):
    code, out, errors = run(tmp_path, command, doc, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and errors[0].startswith("simulation failed:")
    assert "norms.csv" not in files(out)
    assert_plain_modes(out)


def test_run_ending_inside_the_transient_exits_3(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", ENDS_IN_TRANSIENT, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and "run longer" in errors[0]
    assert files(out) == ["config-echo.json", "norms.csv", "profile.txt"]


def test_profile_failure_exits_2(tmp_path, caplog):
    code, out, errors = run(tmp_path, "profile", STEEP_QUARTIC, caplog)
    assert code == EXIT_SIMULATION
    assert len(errors) == 1 and "monotonicity lost" in errors[0]
    assert not out.exists()


def test_mass_drift_exits_3_with_one_error(tmp_path, caplog):
    code, out, errors = run(tmp_path, "run", COARSE_LAB, caplog)
    assert code == EXIT_ANALYSIS
    assert len(errors) == 1 and errors[0].startswith("mass conservation failed:")
    assert "rates.json" in files(out)


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
