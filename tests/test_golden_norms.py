"""Golden norm series: three tiny runs pinned to their recorded values.

A refactor of the solver, the config layer or the norm recording must
leave every channel of ``norms.csv`` where it was.  The expected values
are what the code gave when this test was added (moving-shock-1d: when
it replaced a case in the lab frame, since removed).  moving-shock-1d and
llf-3d-quartic were recorded again when the profile march's step became
h1/8: through the seed and phase of the discrete wave, their channels
moved by up to 9.7e-9 relative, and round-off entries at t = 0 by up to
5.1e-15.  moving-2d-nonzero-mode and llf-3d-quartic were recorded again
when the random-nonzero-mode coefficients came to be drawn per (seed,
axis, k) from ``random.Random`` in place of one numpy stream: their
initial data, and so every channel, changed.  3d-quartic took the place of
llf-3d-quartic, the same run with a local Lax-Friedrichs flux, when that
flux was removed from the solver: it is the same config without "llf",
recorded by the central scheme every run uses, at the tolerances below.

Entries above the round-off floor ROUNDOFF_FRACTION * strength are
compared at rtol 1e-13 with no absolute floor, so a late non-zero-mode
entry of 1e-10 holds its digits as an O(1) one does.  Entries below it
(round-off of O(1) fields, e.g. mass_drift) are compared at atol 1e-15.
"""

import numpy as np
import pytest

from shocklab.analysis import ROUNDOFF_FRACTION
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
    # 3-d, quartic flux, a non-zero mode on both transverse axes
    "3d-quartic": {
        "flux": "convex-quartic", "u_minus": 1.0, "u_plus": -1.0, "dimension": 3,
        "grid": {"half_length": 15.0, "n1": 64, "nprime": 4},
        "stepper": {"t_final": 0.5, "dt_out": 0.125},
        "perturbation": {"kind": "random-nonzero-mode", "amplitude": 0.02, "seed": 3},
        "p_list": [2.0, 4.0]},
}

GOLDEN = {
    "moving-2d-nonzero-mode": {
        "t": [0.0, 0.25, 0.5],
        "Phi_L2": [
            2.3782389170781023e-16, 5.797871376621971e-07, 5.049938078491477e-07],
        "Phi_L4": [
            1.1247605181716688e-16, 4.434548322705409e-07, 3.7878070808025503e-07],
        "boundary_leak": [0.0, 0.0, 0.0],
        "dzmode_L2": [
            1.182446616402644e-16, 3.5738178872511967e-07, 2.6792995221159283e-07],
        "mass_drift": [0.0, 3.8948594140176154e-17, 8.909038847444158e-17],
        "nzmode_L2": [
            0.016780419828001162, 1.0302171454508567e-06, 7.472353311283256e-11],
        "nzmode_Linf": [
            0.020000000000000004, 9.024243033620843e-07, 6.26340264375802e-11],
        "nzmode_W1L2": [
            0.13095322113179994, 6.9014780563362305e-06, 5.041246027275841e-10],
        "nzmode_W1L4": [
            0.11618442809984365, 5.532719003776782e-06, 3.97999742413042e-10],
        "pert_L2": [
            0.016780419828001162, 1.090838179630787e-06, 2.8746453650837197e-07],
        "pert_Linf": [
            0.020000000000000004, 9.762615591352164e-07, 1.6629184762528837e-07],
        "zmode_L2": [
            7.897960221104502e-17, 3.585813260047127e-07, 2.8746452679655403e-07],
        "zmode_Linf": [
            9.71445146547012e-17, 2.1513640799386557e-07, 1.6624511259277774e-07],
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
    "3d-quartic": {
        "t": [0.0, 0.125, 0.25, 0.375, 0.5],
        "Phi_L2": [
            1.0690051069691794e-17, 1.3583999352269702e-06, 1.2600850337141676e-06,
            1.1700839722855462e-06, 1.0879346385328924e-06],
        "Phi_L4": [
            5.550927116055107e-18, 1.020924974864571e-06, 9.452457213375907e-07,
            8.753429795103596e-07, 8.113920395394863e-07],
        "boundary_leak": [0.0, 0.0, 0.0, 0.0, 0.0],
        "dzmode_L2": [
            7.593750777707822e-18, 7.418829732044169e-07, 6.703171285245123e-07,
            6.076433805286782e-07, 5.515545239587358e-07],
        "mass_drift": [
            0.0, 1.771537645446847e-17, 7.385841426437801e-17, 3.1729324808554057e-17,
            5.418088598759495e-17],
        "nzmode_L2": [
            0.017688869876254478, 0.00032352889098461536, 5.821330564713387e-06,
            1.017810151430062e-07, 1.7131916958528453e-09],
        "nzmode_Linf": [
            0.020000000000000004, 0.00036923341305817453, 6.656192775863698e-06,
            1.1567757295279091e-07, 1.919944979042465e-09],
        "nzmode_W1L2": [
            0.08896502568854482, 0.0016296902023599047, 2.943806745736278e-05,
            5.175360752841025e-07, 8.768069631138822e-09],
        "nzmode_W1L4": [
            0.07478813011200978, 0.0013566510075996494, 2.401227463579131e-05,
            4.1622015189746907e-07, 7.00056428550107e-09],
        "pert_L2": [
            0.017688869876254478, 0.00032352987006898704, 5.86641560757328e-06,
            6.709914917347527e-07, 6.07071232865206e-07],
        "pert_Linf": [
            0.020000000000000004, 0.00036934852400899443, 6.773259207115689e-06,
            4.503301238578672e-07, 3.47789721688585e-07],
        "zmode_L2": [
            4.825555235470301e-18, 7.959429128355863e-07, 7.259080775918493e-07,
            6.632271156526155e-07, 6.070688154951581e-07],
        "zmode_Linf": [
            6.938893903907228e-18, 4.6619559131849675e-07, 4.20503192856414e-07,
            3.8112757226593796e-07, 3.4646879751298876e-07],
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_norm_series_unchanged(name):
    norms = run_simulation(build_problem(config_from_dict(CONFIGS[name])))
    expected = GOLDEN[name]
    assert sorted(norms.channels) == sorted(k for k in expected if k != "t")
    np.testing.assert_array_equal(norms.times, expected["t"])
    floor = ROUNDOFF_FRACTION * abs(CONFIGS[name]["u_minus"] - CONFIGS[name]["u_plus"])
    for channel, values in norms.channels.items():
        want = np.asarray(expected[channel])
        genuine = np.abs(want) > floor
        np.testing.assert_allclose(values[genuine], want[genuine], rtol=1e-13, atol=0.0,
                                   err_msg=channel)
        np.testing.assert_allclose(values[~genuine], want[~genuine], rtol=1e-13,
                                   atol=1e-15, err_msg=channel)
