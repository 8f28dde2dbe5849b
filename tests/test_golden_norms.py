"""Golden norm series: three tiny runs pinned to their recorded values.

A refactor of the solver, the config layer or the norm recording must
leave every channel of ``norms.csv`` where it was.  The expected values
are what the code gave when this test was added (moving-shock-1d: when
it replaced a case in the lab frame, since removed); they are compared at
rtol 1e-13, with entries below 1e-15 (round-off of O(1) fields, e.g.
mass_drift) compared absolutely.
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
            0.0061929187637517775, 0.0058111231202944225, 0.0054537948928797784,
            0.005119753017742449, 0.004807808090287688],
        "Phi_L4": [
            0.003910238018163833, 0.003655831317869391, 0.0034212401527025974,
            0.0032040044922428297, 0.003002436823627571],
        "boundary_leak": [
            1.986318245285653e-10, 1.9863182453102533e-10, 1.9863182453063324e-10,
            1.9863182453063407e-10, 1.9863182452977877e-10],
        "dzmode_L2": [
            0.0032406654296339345, 0.0030379350583520644, 0.002853295324665827,
            0.002677628166823018, 0.002509260348408506],
        "mass_drift": [
            0.0, 1.4472066123608074e-16, 1.8578820665075824e-17, 3.1262292017261717e-17,
            1.408107571515549e-16],
        "nzmode_L2": [0.0, 0.0, 0.0, 0.0, 0.0],
        "nzmode_Linf": [0.0, 0.0, 0.0, 0.0, 0.0],
        "nzmode_W1L2": [0.0, 0.0, 0.0, 0.0, 0.0],
        "nzmode_W1L4": [0.0, 0.0, 0.0, 0.0, 0.0],
        "pert_L2": [
            0.003951638322549016, 0.0037001360066907974, 0.0034642995201901237,
            0.0032424223460905165, 0.0030340157502890134],
        "pert_Linf": [
            0.002372069102544616, 0.0023085461742495816, 0.0022140159075212384,
            0.0021045258035414793, 0.001989374748166961],
        "zmode_L2": [
            0.003951638322549016, 0.0037001360066907974, 0.0034642995201901237,
            0.0032424223460905165, 0.0030340157502890134],
        "zmode_Linf": [
            0.002372069102544616, 0.0023085461742495816, 0.0022140159075212384,
            0.0021045258035414793, 0.001989374748166961],
    },
    "llf-3d-quartic": {
        "t": [0.0, 0.125, 0.25, 0.375, 0.5],
        "Phi_L2": [
            5.674580857249957e-15, 2.28827173415218e-05, 1.872901294469926e-05,
            1.6100666764485907e-05, 1.4246373143833492e-05],
        "Phi_L4": [
            3.2433381473046432e-15, 2.1730429031852478e-05, 1.6389867262498306e-05,
            1.3406590434429001e-05, 1.1487355664840607e-05],
        "boundary_leak": [
            1.1102230246251565e-16, 1.1102230246251565e-16, 1.1102230246251565e-16,
            1.1102230246251565e-16, 1.1102230246251565e-16],
        "dzmode_L2": [
            9.264307736104383e-16, 7.152919673347302e-05, 3.226734078809665e-05,
            1.9156322029775615e-05, 1.3280102625078159e-05],
        "mass_drift": [
            0.0, 2.2481504831640958e-17, 8.691699519517009e-17, 1.0922893233408776e-17,
            8.081137971188707e-18],
        "nzmode_L2": [
            0.0243261884518248, 0.0003641049207632041, 5.441639896622981e-06,
            7.981727979115336e-08, 1.1459267735596405e-09],
        "nzmode_Linf": [
            0.019999999999999993, 0.0003539869293469611, 5.796539008688997e-06,
            8.976846830634211e-08, 1.3340285317381406e-09],
        "nzmode_W1L2": [
            0.1223469896980908, 0.0018375638311194649, 2.7591960573766346e-05,
            4.064931125448045e-07, 5.856583326149662e-09],
        "nzmode_W1L4": [
            0.09054515491061493, 0.0014509365015259422, 2.2848663354720047e-05,
            3.4661538441033135e-07, 5.086831947701573e-09],
        "pert_L2": [
            0.0243261884518248, 0.0003666067960229311, 2.1625991960066643e-05,
            1.4226417882082506e-05, 1.0941985428679778e-05],
        "pert_Linf": [
            0.02000000000000099, 0.00039302086579118267, 1.988782959994051e-05,
            1.0251930834370704e-05, 7.20040646412512e-06],
        "zmode_L2": [
            1.4244770463197828e-15, 4.275686572025416e-05, 2.093017160685378e-05,
            1.4226193973002185e-05, 1.0941985368674755e-05],
        "zmode_Linf": [
            1.0009354456386177e-15, 3.903395802947948e-05, 1.5137607387537971e-05,
            1.0180468828707018e-05, 7.1993744222668965e-06],
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
