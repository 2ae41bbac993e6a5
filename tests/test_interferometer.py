import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wlcnoise.errors import MarginalStabilityError
from wlcnoise.interferometer import (
    baseline_integrated_inverse_psd,
    open_loop_gain,
    reference_detector,
    strain_psd,
)
from wlcnoise.medium import (
    MediumParams,
    NoiseModel,
    map_eta_xi,
    noise_coefficients,
    probe_transfer,
    solve_detuning,
)
from wlcnoise.numerics import integrate_adaptive

IFO = reference_detector(0.8)
BARE = MediumParams(gamma12=1.0 / IFO.tau, gamma_opt_total=0.0, delta0=0.0)


def wlc_medium(eta=0.4, xi=0.1, root=-1, atom_count=1):
    gamma12, gamma_opt = map_eta_xi(eta, xi, IFO.tau)
    roots = solve_detuning(gamma12, gamma_opt, IFO.tau)
    return MediumParams(gamma12, gamma_opt, roots[root], atom_count=atom_count)


# ---------------------------------------------------------------------------
# block-chain reference
#
# The full 2x2 quadrature model of the loop, with no cancellation
# assumed: every transfer is a matrix product and the closed loop an
# explicit matrix inverse. strain_psd evaluates the closed form this
# chain reduces to; the chain is kept here only as its oracle.
# ---------------------------------------------------------------------------

# sideband-to-quadrature change of basis and its inverse
M_QS = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / math.sqrt(2.0)
M_QS_INV = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)


def quad_from_sideband(upper, lower_conj):
    """Quadrature block M_qs diag(upper, lower_conj) M_qs^-1."""
    return M_QS @ np.diag([upper, lower_conj]).astype(complex) @ M_QS_INV


def reference_loop(ifo, med, model, omega):
    """Every 2x2 quadrature block of the closed loop at omega.

    m0      arm round trip, e^{2 i omega tau} identity
    m_tot   medium block times m0
    m_c     closed-loop block (I - r_s m_tot)^-1
    m_k     input-output block -r_s I + t_s^2 m_c m_tot
    d_vec   signal drive e^{i omega tau} (0, sqrt(2 K))
    n_plus, n_minus  quadrature blocks of the two added-noise channels
    """
    rs = ifo.srm_amplitude_reflectivity
    ts = ifo.srm_amplitude_transmissivity
    eye = np.eye(2, dtype=complex)
    m0 = np.exp(2j * omega * ifo.tau) * eye
    m_tot = probe_transfer(med, omega) * m0
    closed = eye - rs * m_tot
    if abs(np.linalg.det(closed)) <= 1e-12:
        raise MarginalStabilityError(f"closed loop singular at omega = {omega!r}")
    m_c = np.linalg.inv(closed)
    m_k = -rs * eye + ts**2 * (m_c @ m_tot)
    d_vec = np.exp(1j * omega * ifo.tau) * np.array(
        [0.0, math.sqrt(2.0 * ifo.signal_strength)], dtype=complex)
    n_up, n_lo = noise_coefficients(med, omega, model)
    return SimpleNamespace(m0=m0, m_tot=m_tot, m_c=m_c, m_k=m_k, d_vec=d_vec,
                           n_plus=quad_from_sideband(n_up, n_lo),
                           n_minus=quad_from_sideband(n_lo, n_up))


def reference_strain_psd(ifo, med, model, omega):
    """Strain spectral density from the block chain.

    Vacuum reaches the readout through m_k, the signal through
    t_s m_c d_vec, and each bath's added noise through t_s m_c m0. The
    readout is the phase quadrature.
    """
    blocks = reference_loop(ifo, med, model, omega)
    v_h = np.array([0.0, 1.0])
    ts = ifo.srm_amplitude_transmissivity

    signal_power = abs(ts * (v_h @ blocks.m_c @ blocks.d_vec)) ** 2
    power = np.linalg.norm(v_h @ blocks.m_k) ** 2
    if ifo.include_additional_noise:
        baths = med.atom_count if model is NoiseModel.LOCAL else 1
        propagate = ts * (blocks.m_c @ blocks.m0)
        for block in (blocks.n_plus, blocks.n_minus):
            power += baths * np.linalg.norm(v_h @ propagate @ block) ** 2
    return power / signal_power


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_srm_relation():
    assert IFO.srm_amplitude_reflectivity**2 + \
        IFO.srm_amplitude_transmissivity**2 == pytest.approx(1.0, abs=1e-15)
    assert IFO.tau == pytest.approx(4000.0 / 299792458.0)
    assert IFO.signal_strength > 0
    assert IFO.free_spectral_range == pytest.approx(math.pi / IFO.tau)


@pytest.mark.parametrize("field,value", [
    ("arm_length", -1.0),
    ("circulating_power", 0.0),
    ("carrier_angular_frequency", 0.0),
    ("srm_amplitude_reflectivity", 1.0),
    ("srm_amplitude_reflectivity", -0.1),
    *((field, value) for field in ("arm_length", "circulating_power",
                                   "carrier_angular_frequency", "srm_amplitude_reflectivity")
      for value in (math.nan, math.inf, -math.inf)),
])
def test_params_validation(field, value):
    with pytest.raises(ValueError, match=field):
        replace(IFO, **{field: value})


@pytest.mark.parametrize("make", [IFO.with_power_reflectivity, reference_detector],
                         ids=["with_power_reflectivity", "reference_detector"])
@pytest.mark.parametrize("rs2", [-0.1, 1.0, math.nan, math.inf])
def test_power_reflectivity_validation(make, rs2):
    # rejected by name before its square root is taken, which for -0.1
    # raised a bare math domain error; twice, since a memoized derivation
    # must not remember an error
    for _ in range(2):
        with pytest.raises(ValueError, match="power reflectivity must lie in"):
            make(rs2)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True))
@example(0.0)
@example(1.0 - 2.0**-53)
@example(-0.0)
def test_with_power_reflectivity_is_replace_of_sqrt(rs2):
    # the derived detector is memoized: equal to the plain derivation
    # (-0.0 to the 0.0 one), and the same object on a repeat call
    derived = IFO.with_power_reflectivity(rs2)
    assert derived == replace(IFO, srm_amplitude_reflectivity=math.sqrt(rs2))
    assert derived == IFO.with_power_reflectivity(abs(rs2))
    assert IFO.with_power_reflectivity(rs2) is derived


# ---------------------------------------------------------------------------
# quadrature conversion
# ---------------------------------------------------------------------------

def test_quad_identity():
    assert np.allclose(quad_from_sideband(1.0, 1.0), np.eye(2), atol=1e-15)


def test_quad_antisymmetric_pair():
    block = quad_from_sideband(1j, -1j)
    assert np.allclose(block, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                          allow_infinity=False))
def test_quad_conjugate_pair_is_real(z):
    block = quad_from_sideband(z, np.conj(z))
    assert np.abs(block.imag).max() <= 1e-14 * max(abs(z), 1.0)


# ---------------------------------------------------------------------------
# loop blocks
# ---------------------------------------------------------------------------

def test_bare_arm_blocks():
    ifo = replace(IFO, srm_amplitude_reflectivity=0.0)
    omega = 0.37 * ifo.free_spectral_range
    blocks = reference_loop(ifo, BARE, NoiseModel.LOCAL, omega)
    delay = np.exp(2j * omega * ifo.tau)
    assert np.allclose(blocks.m_k, delay * np.eye(2), atol=1e-14)
    assert np.abs(blocks.n_plus).max() == 0.0
    assert np.abs(blocks.n_minus).max() == 0.0


def test_lossless_src_is_all_pass():
    omegas = np.linspace(1e-3, 0.999, 200) * IFO.free_spectral_range
    for omega in omegas:
        blocks = reference_loop(IFO, BARE, NoiseModel.LOCAL, float(omega))
        assert abs(blocks.m_k[0, 0]) == pytest.approx(1.0, rel=1e-12)
        assert abs(blocks.m_k[1, 1]) == pytest.approx(1.0, rel=1e-12)


def test_closed_loop_inverse():
    med = wlc_medium()
    rs = IFO.srm_amplitude_reflectivity
    for omega in (0.1, 0.45, 0.9):
        blocks = reference_loop(IFO, med, NoiseModel.LOCAL,
                                omega * IFO.free_spectral_range)
        product = blocks.m_c @ (np.eye(2) - rs * blocks.m_tot)
        assert np.allclose(product, np.eye(2), atol=1e-12)


def test_blocks_scalar_except_noise():
    med = wlc_medium()
    blocks = reference_loop(IFO, med, NoiseModel.LOCAL,
                            0.3 * IFO.free_spectral_range)
    for block in (blocks.m0, blocks.m_tot, blocks.m_c, blocks.m_k):
        diag_scale = max(abs(block[0, 0]), abs(block[1, 1]))
        assert abs(block[0, 1]) < 1e-13 * diag_scale
        assert abs(block[1, 0]) < 1e-13 * diag_scale
        assert block[0, 0] == block[1, 1]


def test_drive_vector():
    med = wlc_medium()
    omega = 0.2 * IFO.free_spectral_range
    blocks = reference_loop(IFO, med, NoiseModel.LOCAL, omega)
    assert blocks.d_vec[0] == 0.0
    expected = np.exp(1j * omega * IFO.tau) * math.sqrt(2.0 * IFO.signal_strength)
    assert blocks.d_vec[1] == pytest.approx(expected, rel=1e-14)


def test_marginal_loop_raises():
    med = wlc_medium(0.4, 0.3, root=0)
    m0 = probe_transfer(med, 0.0).real
    ifo = replace(IFO, srm_amplitude_reflectivity=1.0 / m0)
    with pytest.raises(MarginalStabilityError):
        strain_psd(ifo, med, NoiseModel.LOCAL, 0.0)
    with pytest.raises(MarginalStabilityError):
        reference_strain_psd(ifo, med, NoiseModel.LOCAL, 0.0)


def test_marginal_loop_names_omega_in_array():
    med = wlc_medium(0.4, 0.3, root=0)
    ifo = replace(IFO, srm_amplitude_reflectivity=1.0 / probe_transfer(med, 0.0).real)
    omegas = np.array([0.3, 0.0, 0.6]) * IFO.free_spectral_range
    with pytest.raises(MarginalStabilityError, match=r"at omega = 0\.0 "):
        strain_psd(ifo, med, NoiseModel.LOCAL, omegas)


# ---------------------------------------------------------------------------
# open loop gain
# ---------------------------------------------------------------------------

def test_open_loop_gain_bare():
    omega = 0.3 * IFO.free_spectral_range
    g = open_loop_gain(IFO, BARE, omega)
    assert abs(g) == pytest.approx(1.0, rel=1e-14)
    assert g == pytest.approx(np.exp(2j * omega * IFO.tau), rel=1e-14)


def test_open_loop_gain_dc_and_symmetry():
    med = wlc_medium()
    g0 = open_loop_gain(IFO, med, 0.0)
    assert g0.imag == pytest.approx(0.0, abs=1e-15)
    assert g0.real > 1.0
    for omega in (0.05, 0.31, 0.77):
        w = omega * IFO.free_spectral_range
        assert np.conj(open_loop_gain(IFO, med, -w)) == pytest.approx(
            open_loop_gain(IFO, med, w), rel=1e-13)


# ---------------------------------------------------------------------------
# strain noise
# ---------------------------------------------------------------------------

def test_bare_detector_closed_form():
    # medium removed, phase readout: S = |1 - r e^{2 i w tau}|^2 / (2 K t^2)
    rs = IFO.srm_amplitude_reflectivity
    ts = IFO.srm_amplitude_transmissivity
    for omega in np.linspace(0.01, 0.99, 25) * IFO.free_spectral_range:
        psd = strain_psd(IFO, BARE, NoiseModel.LOCAL, float(omega))
        closed = (abs(1.0 - rs * np.exp(2j * omega * IFO.tau)) ** 2
                  / (2.0 * IFO.signal_strength * ts**2))
        assert psd == pytest.approx(closed, rel=1e-12)


def test_noise_model_equivalence():
    med = wlc_medium(atom_count=17)
    for omega in (0.1, 0.5, 0.9):
        w = omega * IFO.free_spectral_range
        a = strain_psd(IFO, med, NoiseModel.LOCAL, w)
        b = strain_psd(IFO, med, NoiseModel.COLLECTIVE, w)
        assert a == pytest.approx(b, rel=1e-12)


def test_atom_count_invariance():
    psds = []
    for n in (1, 10, 1000):
        med = wlc_medium(atom_count=n)
        psds.append(strain_psd(IFO, med, NoiseModel.LOCAL,
                               0.4 * IFO.free_spectral_range))
    assert psds[0] == pytest.approx(psds[1], rel=1e-10)
    assert psds[0] == pytest.approx(psds[2], rel=1e-10)


def test_additional_noise_only_adds():
    med = wlc_medium()
    with_noise = replace(IFO, include_additional_noise=True)
    without = replace(IFO, include_additional_noise=False)
    for omega in np.linspace(0.02, 0.98, 40) * IFO.free_spectral_range:
        s_on = strain_psd(with_noise, med, NoiseModel.LOCAL, float(omega))
        s_off = strain_psd(without, med, NoiseModel.LOCAL, float(omega))
        assert s_on >= s_off > 0.0
        assert math.isfinite(s_on)


@pytest.mark.parametrize("model", list(NoiseModel))
@pytest.mark.parametrize("noise", [True, False])
def test_strain_psd_array_matches_scalar_calls(model, noise):
    ifo = replace(IFO, include_additional_noise=noise)
    med = wlc_medium(atom_count=7)
    omegas = np.linspace(-1.0, 1.0, 81) * IFO.free_spectral_range
    psd = strain_psd(ifo, med, model, omegas)
    assert psd.shape == omegas.shape
    # equal to roundoff: NumPy's array loops may round the last bit
    # differently from its one-element ones
    scalar = [strain_psd(ifo, med, model, float(w)) for w in omegas]
    assert psd.tolist() == pytest.approx(scalar, rel=1e-14, abs=0.0)
    # bit for bit the docstring's formula composed from the public
    # gain and noise coefficients, which build their own denominators
    rs, ts2 = ifo.srm_amplitude_reflectivity, ifo.srm_amplitude_transmissivity**2
    power = np.abs(open_loop_gain(ifo, med, omegas) - rs) ** 2
    if noise:
        baths = med.atom_count if model is NoiseModel.LOCAL else 1
        n_up, n_lo = noise_coefficients(med, omegas, model)
        power += baths * ts2 * (np.abs(n_up) ** 2 + np.abs(n_lo) ** 2)
    composed = power / (2.0 * ifo.signal_strength * ts2)
    assert psd.tolist() == composed.tolist()


@settings(max_examples=300, deadline=None)
@given(eta=st.floats(0.02, 0.98), xi_share=st.floats(0.01, 1.0),
       larger_root=st.booleans(), rs2=st.floats(0.0, 0.99),
       atom_count=st.integers(1, 1000),
       model=st.sampled_from(NoiseModel), noise=st.booleans(),
       omega_share=st.floats(0.0, 1.0))
def test_strain_psd_matches_block_chain(eta, xi_share, larger_root, rs2,
                                        atom_count, model, noise, omega_share):
    ifo = replace(IFO, srm_amplitude_reflectivity=math.sqrt(rs2),
                  include_additional_noise=noise)
    gamma12, gamma_opt = map_eta_xi(eta, xi_share * eta, ifo.tau)
    roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
    assume(roots)
    med = MediumParams(gamma12, gamma_opt, roots[-1] if larger_root else roots[0],
                       atom_count=atom_count)
    omega = omega_share * ifo.free_spectral_range
    rs = ifo.srm_amplitude_reflectivity
    assume(abs(1.0 - rs * open_loop_gain(ifo, med, omega)) >= 1e-3)
    assert strain_psd(ifo, med, model, omega) == pytest.approx(
        reference_strain_psd(ifo, med, model, omega), rel=1e-12)


def test_baseline_integral_srm_independent():
    # conventional detector saturates the power-only bound for any SRM
    values = []
    for rs2 in (0.5, 0.8, 0.9):
        ifo = reference_detector(rs2, include_additional_noise=False)
        med = MediumParams(1.0 / ifo.tau, 0.0, 0.0)
        result = integrate_adaptive(
            lambda om: 1.0 / strain_psd(ifo, med, NoiseModel.LOCAL, om),
            0.0, ifo.free_spectral_range, rel_tol=1e-6)
        analytic = baseline_integrated_inverse_psd(ifo)
        values.append(result.value / analytic)
        assert result.value == pytest.approx(analytic, rel=1e-3)
    spread = max(values) - min(values)
    assert spread < 1e-4
