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
initial data, and so every channel, changed.

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
    "llf-3d-quartic": {
        "t": [0.0, 0.125, 0.25, 0.375, 0.5],
        "Phi_L2": [
            5.51210224828174e-16, 1.3957434068877813e-05, 1.1397071448591424e-05,
            9.784186394516883e-06, 8.649940777390499e-06],
        "Phi_L4": [
            2.6744173619921924e-16, 1.3277115959377603e-05, 9.989495708903435e-06,
            8.157586888869346e-06, 6.982235316178195e-06],
        "boundary_leak": [0.0, 0.0, 0.0, 0.0, 0.0],
        "dzmode_L2": [
            3.6968708439414633e-16, 4.407584702635426e-05, 1.9833700792549843e-05,
            1.1744226330980055e-05, 8.124606070249992e-06],
        "mass_drift": [
            0.0, 5.330628409526308e-17, 1.2011733850721433e-17, 7.892225448612763e-17,
            2.1856878545241766e-17],
        "nzmode_L2": [
            0.017688869876254478, 0.00026497437171913476, 3.960192265810425e-06,
            5.8088224854732e-08, 8.339758449494707e-10],
        "nzmode_Linf": [
            0.020000000000000004, 0.0003404500464230832, 5.402565683159874e-06,
            8.182081384817963e-08, 1.1973901609813042e-09],
        "nzmode_W1L2": [
            0.08896502568854482, 0.0013372722960786564, 2.0080227089510558e-05,
            2.958308849165407e-07, 4.262258243718198e-09],
        "nzmode_W1L4": [
            0.07478813011200978, 0.001174835639729144, 1.8067732709877145e-05,
            2.698375542106528e-07, 3.9222516805023516e-09],
        "pert_L2": [
            0.017688869876254478, 0.0002662785559358109, 1.342978168088538e-05,
            8.696487087843549e-06, 6.675536247419415e-06],
        "pert_Linf": [
            0.020000000000000073, 0.00036451137001489164, 1.3168771985594407e-05,
            6.290177912204875e-06, 4.4033516273245255e-06],
        "zmode_L2": [
            2.4359551659782324e-16, 2.632207596886275e-05, 1.2832611317033639e-05,
            8.69629308539925e-06, 6.6755361953250455e-06],
        "zmode_Linf": [
            1.1102230246251565e-16, 2.406133023156662e-05, 9.285261420386576e-06,
            6.235291585301311e-06, 4.402591894634572e-06],
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
