"""Golden norm series: three tiny runs pinned to their recorded values.

A refactor of the solver, the config layer or the norm recording must
leave every channel of ``norms.csv`` where it was.  The expected values
are what the code gave when this test was added (moving-shock-1d: when
it replaced a case in the lab frame, since removed).  moving-shock-1d and
llf-3d-quartic were recorded again when the profile march's step became
h1/8: through the seed and phase of the discrete wave, their channels
moved by up to 9.7e-9 relative, and round-off entries at t = 0 by up to
5.1e-15.  They are compared at rtol 1e-13, with entries below 1e-15
(round-off of O(1) fields, e.g. mass_drift) compared absolutely.
"""

import numpy as np
import pytest

from shocklab.config import config_from_dict
from shocklab.experiment import build_problem
from shocklab.solver import run_simulation

CONFIGS = {
    # 2-d, non-zero mode: the step is bounded by nonzero_mode_dt
    "moving-2d-nonzero-mode": {
        "flux": "burgers", "u_minus": 1.0, "u_plus": -1.0, "dimension": 2,
        "grid": {"half_length": 15.0, "n1": 64, "nprime": 8},
        "stepper": {"t_final": 0.5, "dt_out": 0.25},
        "perturbation": {"kind": "random-nonzero-mode", "amplitude": 0.02, "seed": 3},
        "p_list": [2.0, 4.0]},
    # 1-d, a moving shock: the frame flux s u enters the scheme
    "moving-shock-1d": {
        "flux": "burgers", "u_minus": 2.0, "u_plus": 0.0, "dimension": 1,
        "grid": {"half_length": 20.0, "n1": 128},
        "stepper": {"t_final": 0.5, "dt_out": 0.125},
        "perturbation": {"kind": "gaussian-bump", "amplitude": 0.02},
        "p_list": [2.0, 4.0]},
    # 3-d, quartic flux with local Lax-Friedrichs dissipation:
    # the background is the discrete wave of the LLF scheme
    "llf-3d-quartic": {
        "flux": "convex-quartic", "u_minus": 1.0, "u_plus": -1.0, "dimension": 3,
        "grid": {"half_length": 15.0, "n1": 64, "nprime": 4},
        "stepper": {"t_final": 0.5, "dt_out": 0.125, "llf": True},
        "perturbation": {"kind": "random-nonzero-mode", "amplitude": 0.02, "seed": 3},
        "p_list": [2.0, 4.0]},
}

GOLDEN = {
    "moving-2d-nonzero-mode": {
        "t": [0.0, 0.25, 0.5],
        "Phi_L2": [
            2.245043252858551e-16, 1.1402301733226655e-06, 9.930396858621497e-07],
        "Phi_L4": [1.158516159176995e-16, 8.722544098050103e-07, 7.449381023358392e-07],
        "boundary_leak": [0.0, 0.0, 0.0],
        "dzmode_L2": [
            1.7040512847313234e-16, 7.037129058074077e-07, 5.273546138980489e-07],
        "mass_drift": [0.0, 8.277110162714332e-17, 1.2704785325369305e-16],
        "nzmode_L2": [
            0.0199005645649239, 1.5950690010172514e-06, 1.1569298381803682e-10],
        "nzmode_Linf": [
            0.020000000000000004, 1.3964993508704115e-06, 9.669197387207618e-11],
        "nzmode_W1L2": [
            0.13535402862940532, 1.0685451284366722e-05, 7.80526313951877e-10],
        "nzmode_W1L4": [
            0.11259806226538208, 8.566255066906402e-06, 6.162171188973692e-10],
        "pert_L2": [
            0.019900564564923895, 1.7441961327795612e-06, 5.655632600850297e-07],
        "pert_Linf": [
            0.020000000000000018, 1.5752763045107088e-06, 3.272302245838077e-07],
        "zmode_L2": [
            1.1055926021399032e-16, 7.056734596093329e-07, 5.655632482518118e-07],
        "zmode_Linf": [
            1.1102230246251565e-16, 4.2348722557872254e-07, 3.2715811607020306e-07],
    },
    "moving-shock-1d": {
        "t": [0.0, 0.125, 0.25, 0.375, 0.5],
        "Phi_L2": [
            0.006192918809020118, 0.005811123165859459, 0.005453794938749986,
            0.005119753063924718, 0.004807808136786382],
        "Phi_L4": [
            0.003910238043856071, 0.0036558313437336375, 0.003421240178728844,
            0.0032040045184284225, 0.0030024368499726476],
        "boundary_leak": [
            1.9863187349069849e-10, 1.986318734921717e-10, 1.9863187349429755e-10,
            1.9863187349229743e-10, 1.9863187349468384e-10],
        "dzmode_L2": [
            0.003240665435490893, 0.00303793506428857, 0.002853295330635446,
            0.0026776281728078774, 0.0025092603544022317],
        "mass_drift": [
            0.0, 9.002266163418704e-17, 2.2512441672124794e-17, 1.2528125509659455e-16,
            4.0334353695534175e-16],
        "nzmode_L2": [0.0, 0.0, 0.0, 0.0, 0.0],
        "nzmode_Linf": [0.0, 0.0, 0.0, 0.0, 0.0],
        "nzmode_W1L2": [0.0, 0.0, 0.0, 0.0, 0.0],
        "nzmode_W1L4": [0.0, 0.0, 0.0, 0.0, 0.0],
        "pert_L2": [
            0.003951638332593074, 0.0037001360167736113, 0.0034642995303032164,
            0.0032424223562325725, 0.003034015760460961],
        "pert_Linf": [
            0.0023720691116997372, 0.0023085461834044807, 0.0022140159166761375,
            0.0021045258126963784, 0.00198937475732186],
        "zmode_L2": [
            0.003951638332593074, 0.0037001360167736113, 0.0034642995303032164,
            0.0032424223562325725, 0.003034015760460961],
        "zmode_Linf": [
            0.0023720691116997372, 0.0023085461834044807, 0.0022140159166761375,
            0.0021045258126963784, 0.00198937475732186],
    },
    "llf-3d-quartic": {
        "t": [0.0, 0.125, 0.25, 0.375, 0.5],
        "Phi_L2": [
            5.246266999461867e-16, 2.2882717343321322e-05, 1.872901294682473e-05,
            1.6100666766877122e-05, 1.4246373146335561e-05],
        "Phi_L4": [
            2.5802791980319725e-16, 2.1730429033212562e-05, 1.6389867264000217e-05,
            1.340659043607041e-05, 1.1487355666525017e-05],
        "boundary_leak": [0.0, 0.0, 0.0, 0.0, 0.0],
        "dzmode_L2": [
            3.7156161146470104e-16, 7.152919673361518e-05, 3.226734078826119e-05,
            1.915632203000808e-05, 1.3280102625330553e-05],
        "mass_drift": [
            0.0, 7.505562981110831e-17, 1.345173427083602e-16, 1.4443440445481355e-16,
            1.8243569060043048e-16],
        "nzmode_L2": [
            0.024326188451824795, 0.00036410492076321765, 5.441639896622932e-06,
            7.981727978970889e-08, 1.1459267667095875e-09],
        "nzmode_Linf": [
            0.019999999999999993, 0.0003539869293469524, 5.796539008692467e-06,
            8.976846832542407e-08, 1.3340285195950763e-09],
        "nzmode_W1L2": [
            0.1223469896980908, 0.0018375638311195317, 2.759196057376689e-05,
            4.064931125360098e-07, 5.8565832902120854e-09],
        "nzmode_W1L4": [
            0.09054515491061493, 0.0014509365015259747, 2.2848663354728005e-05,
            3.466153843964569e-07, 5.0868319156380626e-09],
        "pert_L2": [
            0.0243261884518248, 0.000366606796022965, 2.1625991960328698e-05,
            1.4226417882425265e-05, 1.0941985429063659e-05],
        "pert_Linf": [
            0.020000000000000073, 0.00039302086579207085, 1.9887829600717666e-05,
            1.0251930835203371e-05, 7.200406464902276e-06],
        "zmode_L2": [
            2.4488554518402156e-16, 4.2756865720429814e-05, 2.0930171607124562e-05,
            1.4226193973344957e-05, 1.0941985369058639e-05],
        "zmode_Linf": [
            1.1102230246251565e-16, 3.903395802877345e-05, 1.5137607387024493e-05,
            1.0180468828200478e-05, 7.199374421770766e-06],
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_norm_series_unchanged(name):
    norms = run_simulation(build_problem(config_from_dict(CONFIGS[name])))
    expected = GOLDEN[name]
    assert sorted(norms.channels) == sorted(k for k in expected if k != "t")
    np.testing.assert_array_equal(norms.times, expected["t"])
    for channel, values in norms.channels.items():
        np.testing.assert_allclose(values, expected[channel], rtol=1e-13, atol=1e-15,
                                   err_msg=channel)
