"""Config documents: defaults, round trip through the echo, typed errors."""

import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shocklab as sl
from shocklab.analysis import NormSeries
from shocklab.config import (ExperimentConfig, GridSpec, PerturbationSpec,
                             StepperSpec, config_from_dict, config_to_dict,
                             validate_config)
from shocklab.errors import ArgumentError, ConfigValidationError

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
    # the removed Lax-Friedrichs flux's switch
    ({"stepper": {"llf": 1}}, "stepper.llf"),
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
    ({"stepper": {"t_final": "2"}}, "stepper.t_final"),
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


def grid_doc(dimension, n1=16, nprime=4, **over):
    return dict({"dimension": dimension,
                 "grid": {"half_length": 30, "n1": n1, "nprime": nprime}}, **over)


def schedule_doc(t_final, dt_out):
    return {"stepper": {"t_final": t_final, "dt_out": dt_out}}


# the kinds that need a transverse direction, n >= 2
TRANSVERSE_KINDS = {"random-nonzero-mode"}
# (config, the fields it breaks): each rule of the grid, the perturbation,
# the output schedule, the end states, the exponents, the flux coefficients
# and the fit window on both sides of its limit; the grid limits keep their
# ids dimension-n1-nprime-field
RULES = [
    pytest.param(grid_doc(1, 15, 1), ["grid.n1"], id="1-15-1-grid.n1"),
    pytest.param(grid_doc(1, 16, 1), [], id="1-16-1-None"),
    pytest.param(grid_doc(2, 16, 3), ["grid.nprime"], id="2-16-3-grid.nprime"),
    pytest.param(grid_doc(2, 16, 4), [], id="2-16-4-None"),
    pytest.param(grid_doc(3, 16, 3), ["grid.nprime"], id="3-16-3-grid.nprime"),
    pytest.param(grid_doc(3, 16, 4), [], id="3-16-4-None"),
    pytest.param(grid_doc(0, 16, 4), ["dimension"], id="0-16-4-dimension"),
    pytest.param(grid_doc(4, 16, 4), ["dimension"], id="4-16-4-dimension"),
    pytest.param(grid_doc(2, 15, 3), ["grid.n1", "grid.nprime"], id="n1-and-nprime"),
    pytest.param({"grid": {"half_length": 0}}, ["grid.half_length"], id="half_length-0"),
    *[pytest.param(grid_doc(n, perturbation={"kind": kind}),
                   ["perturbation.kind"] if kind in TRANSVERSE_KINDS and n == 1 else [],
                   id=f"{kind}-n{n}")
      for kind in sl.solver.PERTURBATION_KINDS for n in (1, 2, 3)],
    pytest.param({"perturbation": {"kind": "no-such-kind"}}, ["perturbation.kind"],
                 id="unknown-kind"),
    pytest.param({"perturbation": {"amplitude": -0.01}}, ["perturbation.amplitude"],
                 id="amplitude-negative"),
    pytest.param({"perturbation": {"amplitude": 0.0}}, [], id="amplitude-0"),
    pytest.param({"perturbation": {"width": 0.0}}, ["perturbation.width"], id="width-0"),
    pytest.param({"perturbation": {"seed": -1}}, ["perturbation.seed"], id="seed-negative"),
    pytest.param({"perturbation": {"seed": 0}}, [], id="seed-0"),
    pytest.param(schedule_doc(2.0, 0.5), [], id="dt_out-divides"),
    pytest.param(schedule_doc(2.0, 0.8), ["stepper.dt_out"], id="dt_out-does-not-divide"),
    pytest.param(schedule_doc(2.0, 2.0), [], id="dt_out-is-t_final"),
    pytest.param(schedule_doc(2.0, 3.0), ["stepper.dt_out"], id="dt_out-past-t_final"),
    pytest.param(schedule_doc(-1.0, 0.5), ["stepper.dt_out", "stepper.t_final"],
                 id="t_final-negative"),
    pytest.param({"u_minus": 1.0, "u_plus": 1.0}, ["u_plus"], id="equal-states"),
    pytest.param({"u_minus": 1.0, "u_plus": -1.0}, [], id="distinct-states"),
    pytest.param({"p_list": [1, 2.5]}, [], id="p_list-from-1"),
    pytest.param({"p_list": [0.5]}, ["p_list"], id="p_list-below-1"),
    pytest.param({"p_list": []}, ["p_list"], id="p_list-empty"),
    pytest.param({"p_list": [2, float("inf")]}, ["p_list"], id="p_list-infinite"),
    pytest.param({"p_list": [4, 4.0000001]}, ["p_list"], id="p_list-names-coincide"),
    pytest.param({"flux": [0, 0, 0.5]}, [], id="flux-numbers"),
    pytest.param({"flux": [0, 0, "0.5"]}, ["flux"], id="flux-string"),
    pytest.param({"flux": [0, 0, True]}, ["flux"], id="flux-bool"),
    pytest.param({"flux": [0, 0, 0.5, None]}, ["flux"], id="flux-none"),
    *[pytest.param(dict(schedule_doc(5.0, 0.5), fit_window=list(window)), bad,
                   id=f"fit_window-{window[0]}-{window[1]}")
      for window, bad in [((-1.0, 9.0), ["fit_window"]), ((2.0, 2.0), ["fit_window"]),
                          ((3.0, 2.0), ["fit_window"]), ((0.0, 5.000001), ["fit_window"]),
                          ((0.0, 5.0), [])]],
]


@pytest.fixture(scope="module")
def small_problem():
    return sl.build_problem(config_from_dict(dict(grid_doc(1, 64), **schedule_doc(2.0, 0.5))))


def core_issues(cfg, problem):
    """The (config field, rule) pairs the core and the analysis reject in
    ``cfg``: its grid, its perturbation on that grid, its flux, its shock,
    on ``problem`` its output schedule and exponents, and its fit window on
    a series that ends at its t_final, each made as a run makes it."""
    issues = []

    def rejected(section, make):
        try:
            return make()
        except ArgumentError as exc:
            issues.extend((section + name, rule) for name, rule in exc.issues)

    grid = rejected("grid.", lambda: sl.experiment._grid(cfg))
    pert, st = cfg.perturbation, cfg.stepper
    if grid is not None:
        rejected("perturbation.", lambda: sl.build_perturbation(
            grid, pert.kind, pert.amplitude, pert.width, pert.seed))
    flux = None
    try:
        flux = sl.build_flux(cfg)
    except ValueError as exc:  # the flux states its rules as ValueError
        issues.append(("flux", str(exc)))
    rejected("", lambda: sl.ShockData(flux, cfg.u_minus, cfg.u_plus))
    rejected("stepper.", lambda: sl.simulate(replace(
        problem, t_final=st.t_final, dt_out=st.dt_out, p_list=tuple(cfg.p_list))))
    if cfg.fit_window is not None:
        t = np.linspace(0.0, st.t_final, 51)
        series = NormSeries(t, {"v": np.ones_like(t)})
        rejected("fit_", lambda: sl.fit_algebraic_rate(series, "v", cfg.fit_window))
    top_level = {"grid.dimension": "dimension", "stepper.p_list": "p_list"}
    return sorted((top_level.get(f, f), rule) for f, rule in issues)


@pytest.mark.parametrize("doc, bad", RULES)
def test_grid_and_config_agree_at_each_grid_limit(doc, bad, small_problem):
    cfg = config_from_dict(doc)
    core = core_issues(cfg, small_problem)
    assert [name for name, _ in core] == bad
    if bad:
        with pytest.raises(ConfigValidationError) as exc_info:
            validate_config(cfg)
        issues = sorted(exc_info.value.issues)
        # the config reports a NaN or an infinity alone, before the core's rules
        assert issues == core or issues == [(name, "must be finite") for name in bad]
    else:
        assert validate_config(cfg) == []


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
