"""Golden rates.json: the `run` command on a tiny 1-d config, pinned.

A refactor of the pipeline must leave every entry of ``rates.json`` (fits,
bound checks, the G-N monitor, the profile tails) where it was.  The
expected values are what the code gave when this test was added, recorded
again when the profile march's step became h1/8: the run's entries moved
by up to 2.6e-7 relative, and the profile tails, now fitted on 283 samples
a side instead of 16803, by up to 2.3e-2.  Strings, ints, booleans and
nulls must match exactly, floats at rtol 1e-13.
"""

import json
import math

from shocklab import cli

CONFIG = {"dimension": 1, "grid": {"half_length": 15.0, "n1": 64},
          "stepper": {"t_final": 2.0, "dt_out": 0.1}, "p_list": [2, 4]}

GOLDEN = {
    "bound_pert_L2_p4": {
        "channel": "pert_L2",
        "early_sup": 0.002469788948790753,
        "exponent": 0.0625,
        "kind": "pert-L2",
        "late_sup": 0.002469788948790753,
        "p": 4.0,
        "prefactor": None,
        "residual": None,
        "sup_ratio": 0.004052161030480375,
        "t_at_sup": 0.0,
        "verdict": "consistent",
        "window": None,
        "worst_margin": None,
    },
    "bound_pert_Linf_p4": {
        "channel": "pert_Linf",
        "early_sup": 0.0016422731669841102,
        "exponent": 0.08035714285714286,
        "kind": "pert-Linf",
        "late_sup": 0.0016422731669841102,
        "p": 4.0,
        "prefactor": None,
        "residual": None,
        "sup_ratio": 0.0024667397566957017,
        "t_at_sup": 0.0,
        "verdict": "consistent",
        "window": None,
        "worst_margin": None,
    },
    "bound_phi_L4": {
        "channel": "Phi_L4",
        "early_sup": 0.0025590138215579473,
        "exponent": 0.125,
        "kind": "phi-Lp",
        "late_sup": 0.0025590138215579473,
        "p": 4.0,
        "prefactor": None,
        "residual": None,
        "sup_ratio": 0.003955873520053613,
        "t_at_sup": 0.0,
        "verdict": "consistent",
        "window": None,
        "worst_margin": None,
    },
    "fit_Phi_L2": {
        "exponent": -1.1652022285238572,
        "kind": "algebraic",
        "n_samples": 11,
        "prefactor": 0.008579575799261016,
        "residual": 0.0069599277959763355,
        "verdict": None,
        "window": [1.0, 2.0],
        "worst_margin": None,
    },
    "fit_Phi_L4": {
        "exponent": -1.1929463086749967,
        "kind": "algebraic",
        "n_samples": 11,
        "prefactor": 0.005430768030233942,
        "residual": 0.0070301669037076235,
        "verdict": None,
        "window": [1.0, 2.0],
        "worst_margin": None,
    },
    "gn_ratio_p4": {
        "exponent": None,
        "kind": None,
        "max_ratio": 0.5981005188723187,
        "n_samples": 21,
        "p": 4.0,
        "prefactor": None,
        "residual": None,
        "t_at_max": 2.0,
        "verdict": None,
        "window": None,
        "worst_margin": None,
    },
    "profile_tails": {
        "exponent": None,
        "k_smallest": 0.999999988660189,
        "kind": None,
        "n_left": 283,
        "n_right": 283,
        "onset_left": 2.202380952380952,
        "onset_right": 2.202380952380952,
        "prefactor": None,
        "rate_left": 0.9958792104977255,
        "rate_per_strength_left": 0.49793960524886277,
        "rate_per_strength_right": 0.4979396052488627,
        "rate_right": 0.9958792104977254,
        "residual": None,
        "residual_left": 0.02925750395110973,
        "residual_right": 0.02925750395110973,
        "verdict": "pass",
        "window": None,
        "worst_margin": None,
    },
}


def assert_matches(got, want, where):
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-13, abs_tol=0.0), \
            f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, where


def test_rates_unchanged(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert_matches(json.loads((out / "rates.json").read_text()), GOLDEN, "rates")
