"""Config documents: defaults, round trip through the echo, typed errors."""

import copy
import json
from pathlib import Path

import pytest

import shocklab as sl
from shocklab.config import (ExperimentConfig, GridSpec, PerturbationSpec,
                             StepperSpec, config_from_dict, config_to_dict,
                             validate_config)
from shocklab.errors import ConfigValidationError

WORKLOADS = sorted((Path(__file__).resolve().parents[1] / "bench" / "workloads")
                   .glob("*.json"))


def field_names(exc_info):
    return [name for name, _ in exc_info.value.issues]


@pytest.mark.parametrize("doc", [json.loads(p.read_text()) for p in WORKLOADS] + [{}],
                         ids=[p.stem for p in WORKLOADS] + ["minimal"])
def test_round_trip(doc):
    cfg = config_from_dict(doc)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_workloads_found():
    assert len(WORKLOADS) == 3


def test_minimal_config_takes_the_dataclass_defaults():
    cfg = config_from_dict({})
    assert cfg == ExperimentConfig(grid=GridSpec(half_length=30.0),
                                   perturbation=PerturbationSpec(amplitude=0.02))
    assert cfg.stepper == StepperSpec()


def test_strength_scaled_defaults_inside_a_given_section():
    # strength 0.5: half-length 60 and amplitude 0.005, also when the
    # sections are present without those keys
    doc = {"u_minus": 0.25, "u_plus": -0.25, "grid": {"n1": 64},
           "perturbation": {"kind": "odd-bump"}}
    cfg = config_from_dict(doc)
    assert cfg.grid == GridSpec(half_length=60.0, n1=64)
    assert cfg.perturbation == PerturbationSpec(kind="odd-bump", amplitude=0.005)
    assert config_from_dict({"u_minus": 0.25, "u_plus": -0.25}).grid.half_length == 60.0


def test_constructed_config_takes_the_strength_scaled_defaults():
    assert (ExperimentConfig(u_minus=0.25, u_plus=-0.25)
            == config_from_dict({"u_minus": 0.25, "u_plus": -0.25}))
    assert validate_config(ExperimentConfig()) == []
    cfg = ExperimentConfig(dimension=1, stepper=StepperSpec(t_final=0.5, dt_out=0.25))
    before = copy.deepcopy(cfg)
    assert list(sl.run_simulation(sl.build_problem(cfg)).times) == [0.0, 0.25, 0.5]
    assert cfg == before


def test_ints_become_floats():
    cfg = config_from_dict({"u_minus": 2, "grid": {"half_length": 20},
                            "p_list": [2, 4], "fit_window": [1, 3]})
    assert type(cfg.u_minus) is float and type(cfg.grid.half_length) is float
    assert cfg.p_list == [2.0, 4.0] and cfg.fit_window == (1.0, 3.0)


@pytest.mark.parametrize("doc, name", [
    ({"grid": {"nprim": 4}}, "grid.nprim"),
    ({"stepper": {"t_finl": 4.0}}, "stepper.t_finl"),
    ({"seed": 4}, "seed"),
])
def test_unknown_key_is_named(doc, name):
    with pytest.raises(ConfigValidationError) as exc_info:
        config_from_dict(doc)
    assert field_names(exc_info) == [name]
    assert name in str(exc_info.value)


@pytest.mark.parametrize("doc, name", [
    ({"grid": {"n1": "abc"}}, "grid.n1"),
    ({"grid": {"n1": 64.5}}, "grid.n1"),
    ({"grid": 5}, "grid"),
    ({"perturbation": None}, "perturbation"),
    ({"u_minus": "1"}, "u_minus"),
    ({"stepper": {"llf": 1}}, "stepper.llf"),
    ({"snapshots": "yes"}, "snapshots"),
    ({"p_list": 2}, "p_list"),
    ({"fit_window": "1,2"}, "fit_window"),
])
def test_wrong_type_is_named(doc, name):
    with pytest.raises(ConfigValidationError) as exc_info:
        config_from_dict(doc)
    assert field_names(exc_info) == [name]


@pytest.mark.parametrize("window", [[1.0], [1.0, 2.0, 3.0], [3.0, 1.0]])
def test_fit_window_must_be_an_ordered_pair(window):
    cfg = config_from_dict({"fit_window": window})
    with pytest.raises(ConfigValidationError) as exc_info:
        validate_config(cfg)
    assert field_names(exc_info) == ["fit_window"]


def test_every_issue_is_reported():
    with pytest.raises(ConfigValidationError) as exc_info:
        config_from_dict({"grid": {"nprim": 4, "n1": "abc"}, "dimension": 2.0})
    assert sorted(field_names(exc_info)) == ["dimension", "grid.n1", "grid.nprim"]


@pytest.mark.parametrize("t_final, dt_out, ok", [
    (0.7, 0.0125, True),   # 0.7/0.0125 is 55.99999999999999 in floating point
    (2.0, 0.1, True),
    (2.0, 2.0, True),
    (2.0, 0.8, False),
    (1.0, 0.3, False),
])
def test_dt_out_must_divide_t_final(t_final, dt_out, ok):
    cfg = config_from_dict({"stepper": {"t_final": t_final, "dt_out": dt_out}})
    if ok:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(cfg)
        assert field_names(exc_info) == ["stepper.dt_out"]


def test_flux_is_checked_on_the_run_range():
    # f'' = 1 - 0.12 u^2 is positive on the run's flux range [-2.02, 2.02],
    # though not on all of [-4, 4]
    cfg = config_from_dict({"flux": [0, 0, 0.5, 0, -0.01], "u_minus": 1, "u_plus": -1,
                            "dimension": 1, "grid": {"half_length": 30, "n1": 64},
                            "stepper": {"t_final": 0.5, "dt_out": 0.25}})
    assert validate_config(cfg) == []


def test_nan_end_state_is_the_only_issue():
    # the defaults that scale with the strength stay finite
    cfg = config_from_dict({"u_minus": float("nan")})
    with pytest.raises(ConfigValidationError) as exc_info:
        validate_config(cfg)
    assert field_names(exc_info) == ["u_minus"]


@pytest.mark.parametrize("path", WORKLOADS, ids=[p.stem for p in WORKLOADS])
def test_workloads_validate(path):
    validate_config(config_from_dict(json.loads(path.read_text())))
