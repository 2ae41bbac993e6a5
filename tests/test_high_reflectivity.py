"""Cells where the double-pumped medium beats the integrated-sensitivity
bound, pinned as facts of the model.

At the paper's SRM power reflectivities (0.5, 0.8, 0.9) no stable,
stationary cell reaches rho_r > 1. At rs^2 >= 0.99 some do, each within
about 4e-5 of the critical point (1, 0) of the Nyquist plane. All three
cells use the reference detector with the medium's added noise, the
LOCAL noise model and the larger detuning root.
"""

import pytest

from wlcnoise.interferometer import improvement_factor, reference_detector
from wlcnoise.medium import MediumParams, NoiseModel, map_eta_xi, solve_detuning
from wlcnoise.stability import Classification, classify_system, root_count_oracle

CELLS = [
    # rs^2, eta, xi, rho_r at rel_tol 1e-10
    (0.99, 0.865, 0.0026588446, 1.0047256),
    (0.995, 0.86, 0.0013796037, 1.0786479),
    (0.997, 0.5888363636, 0.0024618032, 1.0049841),
]


@pytest.mark.parametrize("rs2,eta,xi,rho_r", CELLS)
def test_stable_cell_beats_the_bound(rs2, eta, xi, rho_r):
    ifo = reference_detector(rs2)
    gamma12, gamma_opt = map_eta_xi(eta, xi, ifo.tau)
    med = MediumParams(gamma12, gamma_opt, solve_detuning(gamma12, gamma_opt, ifo.tau)[-1])
    report = classify_system(ifo, med)
    assert report.classification is Classification.STABLE
    assert report.winding == 0 and not report.marginal
    assert report.min_distance_to_critical < 4e-5
    # the independent argument-principle count agrees: no zero of
    # 1 - r_s G_o in the upper half plane
    assert root_count_oracle(ifo, med) == 0
    rho = improvement_factor(ifo, med, NoiseModel.LOCAL, rel_tol=1e-10)
    assert rho > 1.0
    assert rho == pytest.approx(rho_r, abs=1e-6)
