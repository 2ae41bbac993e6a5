import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlcnoise.errors import PoleError
from wlcnoise.medium import (
    MediumClass,
    MediumParams,
    NoiseModel,
    classify_medium,
    map_eta_xi,
    noise_coefficients,
    probe_transfer,
    round_trip_phase,
    solve_detuning,
    susceptibility,
    validity_margin,
)
from wlcnoise.numerics import derivative_central

REF = MediumParams(gamma12=1.0, gamma_opt_total=0.1, delta0=2.0)


def rates_strategy():
    return st.tuples(
        st.floats(0.05, 10.0),     # gamma12
        st.floats(0.0, 0.99),      # eta
        st.floats(0.0, 10.0),      # delta0
        st.floats(-30.0, 30.0),    # omega
    )


# ---------------------------------------------------------------------------
# susceptibility and probe transfer
# ---------------------------------------------------------------------------

def test_susceptibility_no_pump():
    p = MediumParams(1.0, 0.0, 2.0)
    for om in (0.0, 1.0, -3.7):
        assert susceptibility(p, om) == 0.0


def test_susceptibility_dc_value():
    # purely imaginary at omega = 0: -4 Gamma g / (g^2 + d0^2) with g = 0.9
    chi = susceptibility(REF, 0.0)
    two_fraction_sum = (2j * 0.1 / (1j * 2.0 - 0.9)
                        + 2j * 0.1 / (-1j * 2.0 - 0.9))
    assert chi == pytest.approx(two_fraction_sum, rel=1e-15)
    assert chi.real == pytest.approx(0.0, abs=1e-16)
    assert chi.imag == pytest.approx(-0.07484407484407484, rel=1e-14)


def test_susceptibility_vanishes_at_infinity():
    assert abs(susceptibility(REF, 1e9)) < 1e-8
    assert abs(susceptibility(REF, -1e9)) < 1e-8


def test_susceptibility_pole():
    p = MediumParams(1.0, 1.0, 2.0)
    with pytest.raises(PoleError):
        susceptibility(p, -2.0)
    with pytest.raises(PoleError):
        susceptibility(p, 2.0)


@pytest.mark.parametrize("omega", [[0.0, 1.0, 2.0, 3.0], [-2.0, -1.0], [[0.5, 2.0]]])
def test_pole_in_array_raises(omega):
    # at gamma12 == Gamma the denominators' real part vanishes, and a
    # frequency at +-delta0 anywhere in the array is a pole
    p = MediumParams(1.0, 1.0, 2.0)
    omega = np.array(omega)
    with pytest.raises(PoleError):
        probe_transfer(p, omega)
    for model in NoiseModel:
        with pytest.raises(PoleError):
            noise_coefficients(p, omega, model)


def test_no_pole_off_resonance_or_with_damping():
    omega = np.array([-2.0, 0.0, 2.0])
    assert np.isfinite(probe_transfer(MediumParams(1.0, 1.0, 2.5), omega)).all()
    damped = MediumParams(1.0, 1.0 - 2.0**-52, 2.0)
    assert np.isfinite(probe_transfer(damped, omega)).all()
    for n in noise_coefficients(damped, omega, NoiseModel.LOCAL):
        assert np.isfinite(n).all()


def test_probe_transfer_identity_medium():
    p = MediumParams(1.0, 0.0, 2.0)
    for om in (0.0, 5.0, -0.3):
        assert probe_transfer(p, om) == 1.0


def test_probe_transfer_dc_gain():
    m0 = probe_transfer(REF, 0.0)
    assert m0.imag == pytest.approx(0.0, abs=1e-16)
    assert m0.real == pytest.approx(1.0 + 2 * 0.1 * 0.9 / (0.81 + 4.0), rel=1e-14)
    assert m0.real > 1.0


def test_probe_transfer_chi_identity():
    omegas = np.linspace(-10.0, 10.0, 1000)
    m = probe_transfer(REF, omegas)
    chi = susceptibility(REF, omegas)
    assert np.abs(m - (1.0 + 0.5j * chi)).max() < 1e-14


@settings(max_examples=100, deadline=None)
@given(rates_strategy())
def test_conjugation_symmetry(draw):
    gamma12, eta, delta0, omega = draw
    p = MediumParams(gamma12, eta * gamma12, delta0)
    m_pos = probe_transfer(p, omega)
    m_neg = probe_transfer(p, -omega)
    assert abs(np.conj(m_neg) - m_pos) <= 1e-13 * max(abs(m_pos), 1.0)
    n_up_pos, n_lo_pos = noise_coefficients(p, omega, NoiseModel.LOCAL)
    n_up_neg, _ = noise_coefficients(p, -omega, NoiseModel.LOCAL)
    assert abs(np.conj(n_up_neg) - n_lo_pos) <= 1e-13 * max(abs(n_lo_pos), 1.0)


# ---------------------------------------------------------------------------
# noise coefficients
# ---------------------------------------------------------------------------

def test_noise_zero_without_decoherence():
    # gamma12 -> 0 limit: no decoherence channel, no added noise
    p = MediumParams(1e-300, 0.0, 1.0)
    n_up, n_lo = noise_coefficients(p, 0.3, NoiseModel.LOCAL)
    assert n_up == 0.0 and n_lo == 0.0


def test_local_collective_noise_power_equal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        gamma12 = rng.uniform(0.1, 5.0)
        p = MediumParams(gamma12, rng.uniform(0.0, 0.9) * gamma12,
                         rng.uniform(0.0, 5.0),
                         atom_count=int(rng.integers(1, 500)))
        om = rng.uniform(-10, 10)
        lu, ll = noise_coefficients(p, om, NoiseModel.LOCAL)
        cu, cl = noise_coefficients(p, om, NoiseModel.COLLECTIVE)
        local_power = p.atom_count * (abs(lu) ** 2 + abs(ll) ** 2)
        collective_power = abs(cu) ** 2 + abs(cl) ** 2
        assert local_power == pytest.approx(collective_power, rel=1e-14)


def test_commutation_sum_rule_single_pump():
    # delta0 = 0: |M|^2 - N sum |N_pm|^2 == 1 exactly
    rng = np.random.default_rng(12)
    for _ in range(200):
        gamma12 = rng.uniform(0.05, 5.0)
        p = MediumParams(gamma12, rng.uniform(0.0, 0.99) * gamma12, 0.0,
                         atom_count=int(rng.integers(1, 100)))
        om = rng.uniform(-20, 20)
        m = probe_transfer(p, om)
        n_up, n_lo = noise_coefficients(p, om, NoiseModel.LOCAL)
        value = abs(m) ** 2 - p.atom_count * (abs(n_up) ** 2 + abs(n_lo) ** 2)
        assert value == pytest.approx(1.0, rel=1e-12)


def test_commutation_defect_closed_form():
    # two-pump defect: |M|^2 - N sum |N_pm|^2 - 1
    #   = -4 Gamma^2 d0^2 / (((om+d0)^2+g^2) ((om-d0)^2+g^2));
    # the weak-coupling envelope 8 Gamma^2 / (d0^2 + g^2) holds inside
    # the anomalous-dispersion band but not at the gain peaks.
    rng = np.random.default_rng(13)
    for _ in range(60):
        gamma12 = rng.uniform(0.1, 5.0)
        gamma_opt = rng.uniform(0.01, 0.99) * gamma12
        delta0 = rng.uniform(0.01, 10.0)
        n_atoms = int(rng.integers(1, 40))
        p = MediumParams(gamma12, gamma_opt, delta0, atom_count=n_atoms)
        g = gamma12 - gamma_opt
        omegas = np.linspace(-3 * delta0, 3 * delta0, 501)
        m = probe_transfer(p, omegas)
        n_up, n_lo = noise_coefficients(p, omegas, NoiseModel.LOCAL)
        power = np.abs(m) ** 2
        defect = power - n_atoms * (np.abs(n_up) ** 2 + np.abs(n_lo) ** 2) - 1.0
        exact = (-4.0 * gamma_opt**2 * delta0**2
                 / (((omegas + delta0) ** 2 + g * g)
                    * ((omegas - delta0) ** 2 + g * g)))
        assert np.abs(defect - exact).max() <= 1e-12 * (power.max() + 1.0)
        band = np.abs(omegas) <= 0.5 * delta0
        envelope = 8.0 * gamma_opt**2 / (delta0**2 + g * g)
        assert np.abs(defect[band]).max() <= envelope


@pytest.mark.parametrize("model", list(NoiseModel))
def test_commutator_deficit_identity(model):
    # |M|^2 - B (|N+|^2 + |N-|^2) - 1 = -Gamma^2 |1/d+ - 1/d-|^2 with
    # d_pm = i(omega +- delta0) - (gamma12 - Gamma) and B the bath count:
    # the model's added noise falls short of the phase-insensitive
    # amplifier floor (Caves 1982) wherever delta0 > 0
    rng = np.random.default_rng(14)
    for _ in range(300):
        gamma12 = 10.0 ** rng.uniform(-2.0, 2.0)
        gamma_opt = rng.uniform(0.0, 0.99) * gamma12
        delta0 = rng.uniform(0.0, 10.0) * gamma12
        p = MediumParams(gamma12, gamma_opt, delta0, atom_count=int(rng.integers(1, 50)))
        omegas = rng.uniform(-3.0, 3.0, 16) * (delta0 + gamma12)
        baths = p.atom_count if model is NoiseModel.LOCAL else 1
        n_up, n_lo = noise_coefficients(p, omegas, model)
        gain = np.abs(probe_transfer(p, omegas)) ** 2
        noise = baths * (np.abs(n_up) ** 2 + np.abs(n_lo) ** 2)
        gap = gamma12 - gamma_opt
        d_plus = 1j * (omegas + delta0) - gap
        d_minus = 1j * (omegas - delta0) - gap
        deficit = -gamma_opt**2 * np.abs(1.0 / d_plus - 1.0 / d_minus) ** 2
        assert np.all(np.abs(gain - noise - 1.0 - deficit) <= 1e-14 * (gain + noise + 1.0))


# ---------------------------------------------------------------------------
# classification and validity
# ---------------------------------------------------------------------------

def test_classify_atomic_instability():
    assert classify_medium(MediumParams(1.0, 2.0, 1.0)) is MediumClass.ATOMIC_INSTABILITY


def test_classify_stationary():
    assert classify_medium(REF) is MediumClass.STATIONARY  # 4.81 >= 0.0025


def test_classify_non_stationary():
    p = MediumParams(1.0, 0.999, 0.01)
    assert classify_medium(p) is MediumClass.NON_STATIONARY  # 1.01e-4 < 0.2495


# on delta0^2 + (gamma12 - Gamma)^2 = Gamma^2 / 4 (9 + 16 = 100 / 4), and
# just inside it; every square and sum is exact, so no rounding decides
ON_THRESHOLD = (14.0, 10.0, 3.0)
INSIDE_THRESHOLD = (14.0, 10.0, 3.0 - 2.0**-20)


def test_classify_threshold():
    # the comparison is strict: a medium on the threshold is stationary,
    # at any power-of-two scale of its rates
    for power in (0, -900, 900):
        on, inside = (MediumParams(*(math.ldexp(rate, power) for rate in rates))
                      for rates in (ON_THRESHOLD, INSIDE_THRESHOLD))
        assert classify_medium(on) is MediumClass.STATIONARY
        assert classify_medium(inside) is MediumClass.NON_STATIONARY


def test_classify_large_finite_rates():
    # delta0**2 of a float overflows beyond about 1.3e154; the classes
    # of media at rates near 1e300 are those of the same media at unit
    # rates, and scaling every rate by a power of two changes no class
    assert classify_medium(MediumParams(1e300, 5e299, 1e300)) is MediumClass.STATIONARY
    assert classify_medium(MediumParams(1e300, 0.999e300, 1e297)) is MediumClass.NON_STATIONARY
    rng = np.random.default_rng(3)
    draws = [ON_THRESHOLD, INSIDE_THRESHOLD]
    for _ in range(200):
        gamma12 = rng.uniform(0.1, 10.0)
        draws.append((gamma12, rng.uniform(0.0, 1.2) * gamma12, rng.uniform(0.0, 10.0)))
    for rates in draws:
        p = MediumParams(*rates)
        for power in (-900, -300, 300, 1000):
            scaled = MediumParams(*(math.ldexp(rate, power) for rate in rates))
            assert classify_medium(scaled) is classify_medium(p)


def test_validity_margin_values():
    p = MediumParams(1.0, 0.0, 2.0)
    assert validity_margin(p, 0.0) == 0.0
    assert validity_margin(REF, 0.0) == pytest.approx(0.0025 / 4.81, rel=1e-12)
    # decays with detuning at fixed rates
    wide = MediumParams(1.0, 0.1, 2000.0)
    assert validity_margin(wide, 0.0) < 1e-6


def test_gain_peaks_near_detuning():
    # narrow-line media peak within 5 percent of the pump splitting
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 20:
        gamma12 = rng.uniform(0.1, 5.0)
        ratio = rng.uniform(10.0, 100.0)      # gamma_opt / gap
        gamma_opt = gamma12 * ratio / (1.0 + ratio)
        delta0 = rng.uniform(0.5, 20.0)
        p = MediumParams(gamma12, gamma_opt, delta0)
        if classify_medium(p) is not MediumClass.STATIONARY:
            continue
        checked += 1
        omegas = np.linspace(0.0, 2.0 * delta0, 20001)
        gain = np.abs(probe_transfer(p, omegas))
        peak = omegas[int(np.argmax(gain))]
        assert abs(peak - delta0) <= 0.05 * delta0


# ---------------------------------------------------------------------------
# detuning solver
# ---------------------------------------------------------------------------

def test_detuning_degenerate_single_pump_root():
    # g = 0: the x = 0 root is dropped, leaving sqrt(Gamma / tau)
    roots = solve_detuning(0.1, 0.1, 1.0)
    assert roots == (pytest.approx(math.sqrt(0.1), rel=1e-12),)


def test_detuning_double_root():
    # (gamma12 - Gamma)^2 == Gamma / (8 tau) exactly: single repeated root
    gap = math.sqrt(0.1)
    roots = solve_detuning(0.8 + gap, 0.8, 1.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.sqrt(0.3), rel=1e-12)


def test_detuning_infeasible():
    assert solve_detuning(2.0, 0.1, 1.0) == ()


def test_detuning_b_zero_has_no_root():
    # A = 2 g^2 exactly (g = 2, Gamma / tau = 8): the linear coefficient
    # vanishes and the product g^2 (g^2 + A) > 0 leaves no positive root
    assert solve_detuning(3.0, 1.0, 0.125) == ()


def test_detuning_small_root_exact():
    # A / g^2 = 1e10: the naive formula would cancel away most digits of
    # the small root x = delta0^2. The exact quadratic, in Fraction
    # arithmetic on the input floats, changes sign within 1e-12 of it.
    gamma12, gamma_opt, tau = 1.0001, 1.0, 1e-2
    small = solve_detuning(gamma12, gamma_opt, tau)[0]
    g2 = (Fraction(gamma12) - Fraction(gamma_opt)) ** 2
    a_rate = Fraction(gamma_opt) / Fraction(tau)

    def residual(x):
        return x * x + (2 * g2 - a_rate) * x + g2 * (g2 + a_rate)

    x = Fraction(small) ** 2
    assert residual(x * (1 - Fraction(1, 10**12))) > 0 > residual(x * (1 + Fraction(1, 10**12)))


# roots pinned to the last bit; at |b| = 1e160 > 2^500, b^2 overflows
# unless the coefficients are rescaled first
RECORDED_ROOTS = {
    "tie": ((1.116227766016838, 0.8, 1.0), (0.5477225575051661,)),
    "huge-b": ((2e50, 1e50, 1e-110), (1e+50, 1e+80)),
    # eta 0.4, xi 0.1 on the reference detector
    "survey-cell": ((2602.3650868055556, 1040.9460347222223, 1.3342563807926082e-05),
                    (1669.7648741983749, 8387.655748250387)),
}


@pytest.mark.parametrize("rates, roots", RECORDED_ROOTS.values(), ids=RECORDED_ROOTS)
def test_detuning_recorded_roots(rates, roots):
    assert solve_detuning(*rates) == roots


def test_detuning_residual_and_order():
    rng = np.random.default_rng(15)
    found = 0
    while found < 100:
        tau = rng.uniform(0.1, 10.0)
        gamma12 = rng.uniform(0.05, 20.0)
        gamma_opt = rng.uniform(0.01, 0.99) * gamma12
        roots = solve_detuning(gamma12, gamma_opt, tau)
        if not roots:
            continue
        found += 1
        assert list(roots) == sorted(roots)
        g2 = (gamma12 - gamma_opt) ** 2
        for d0 in roots:
            x = d0 * d0
            lhs = gamma_opt * (g2 - x) / (g2 + x) ** 2
            assert lhs == pytest.approx(-tau, rel=1e-9)


def test_detuning_feasibility_equivalence():
    # non-empty root set iff xi <= eta (30x30 slice of the full grid)
    tau = 1.0
    grid = np.linspace(0.02, 0.98, 30)
    for eta in grid:
        for xi in grid:
            gamma12, gamma_opt = map_eta_xi(eta, xi, tau)
            feasible = bool(solve_detuning(gamma12, gamma_opt, tau))
            assert feasible == (xi <= eta)


def test_phase_slope_cancels_at_roots():
    rng = np.random.default_rng(16)
    found = 0
    while found < 30:
        tau = rng.uniform(0.1, 10.0)
        gamma12 = rng.uniform(0.05, 20.0)
        gamma_opt = rng.uniform(0.01, 0.99) * gamma12
        roots = solve_detuning(gamma12, gamma_opt, tau)
        if not roots:
            continue
        found += 1
        for d0 in roots:
            p = MediumParams(gamma12, gamma_opt, d0)
            slope = derivative_central(
                lambda om: round_trip_phase(p, om, tau), 0.0, d0 * 1e-5)
            assert abs(slope) < 1e-6 * 2.0 * tau


# ---------------------------------------------------------------------------
# survey coordinates
# ---------------------------------------------------------------------------

def test_map_eta_xi_example():
    gamma12, gamma_opt = map_eta_xi(0.5, 0.32, 1.0)
    assert gamma12 == pytest.approx(0.16, rel=1e-14)
    assert gamma_opt == pytest.approx(0.08, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 1.0), st.floats(0.01, 100.0))
def test_map_eta_xi_round_trip(eta, xi, tau):
    gamma12, gamma_opt = map_eta_xi(eta, xi, tau)
    # the inverse map: eta = Gamma / gamma12, xi = 8 (gamma12 - Gamma)^2 tau / gamma12
    eta_back = gamma_opt / gamma12
    xi_back = 8.0 * (gamma12 - gamma_opt) ** 2 * tau / gamma12
    assert eta_back == pytest.approx(eta, rel=1e-12)
    assert xi_back == pytest.approx(xi, rel=1e-12)


def test_map_eta_xi_singular_line():
    with pytest.raises(ValueError, match="eta = 1 is unreachable"):
        map_eta_xi(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        map_eta_xi(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        map_eta_xi(0.5, 1.5, 1.0)


def test_map_eta_xi_underflow_names_the_cell():
    # 8 tau (1 - eta)^2 rounds to 0 for a tiny delay next to eta = 1
    with pytest.raises(ValueError, match=r"eta=0\.9999999999999999, xi=0\.5, tau=1e-300"):
        map_eta_xi(0.9999999999999999, 0.5, 1e-300)


@pytest.mark.parametrize("eta,xi,zero", [
    (1e-300, 1e-300, "gamma_opt_total=0.0"),  # Gamma = eta gamma12 underflows
    (0.5, 5e-324, "gamma12=0.0"),             # gamma12 itself rounds to 0
])
def test_map_eta_xi_rates_rounding_to_zero_name_the_cell(eta, xi, zero):
    # before, gamma_opt_total came back 0 and solve_detuning raised on it,
    # naming neither coordinate
    with pytest.raises(ValueError, match=rf"round to 0 at eta={eta}, xi={xi}, tau=1\.0: "
                                         rf".*{zero}"):
        map_eta_xi(eta, xi, 1.0)
    # the smallest rates that do not round to 0 still map
    assert map_eta_xi(0.5, 1e-300, 1.0) == (5e-301, 2.5e-301)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("call,name", [
    (lambda v: solve_detuning(v, 0.5, 1.0), "gamma12"),
    (lambda v: solve_detuning(1.0, v, 1.0), "gamma_opt_total"),
    (lambda v: solve_detuning(1.0, 0.5, v), "tau"),
    (lambda v: map_eta_xi(v, 0.5, 1.0), "eta"),
    (lambda v: map_eta_xi(0.5, v, 1.0), "xi"),
    (lambda v: map_eta_xi(0.5, 0.5, v), "tau"),
], ids=["solve-gamma12", "solve-gamma_opt_total", "solve-tau", "map-eta", "map-xi",
        "map-tau"])
def test_rates_and_tau_must_be_finite_and_positive(call, name, value):
    # before, solve_detuning returned () and map_eta_xi (nan, nan) or
    # (0, 0) for a non-finite argument
    with pytest.raises(ValueError, match=name):
        call(value)


def test_map_eta_xi_diverges_toward_unity():
    gamma_a, _ = map_eta_xi(0.9, 0.5, 1.0)
    gamma_b, _ = map_eta_xi(0.999, 0.5, 1.0)
    assert gamma_b > 1e3 * gamma_a


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(gamma12=0.0, gamma_opt_total=0.1, delta0=1.0),
    dict(gamma12=1.0, gamma_opt_total=-0.1, delta0=1.0),
    dict(gamma12=1.0, gamma_opt_total=0.1, delta0=-1.0),
    dict(gamma12=1.0, gamma_opt_total=0.1, delta0=1.0, atom_count=0),
    *({**dict(gamma12=1.0, gamma_opt_total=0.1, delta0=1.0), field: value}
      for field in ("gamma12", "gamma_opt_total", "delta0")
      for value in (math.nan, math.inf, -math.inf)),
])
def test_params_validation(kwargs):
    # a non-finite rate is named in the message
    bad = [name for name, value in kwargs.items() if not math.isfinite(value)]
    with pytest.raises(ValueError, match=bad[0] if bad else None):
        MediumParams(**kwargs)


VALID = dict(gamma12=1.0, gamma_opt_total=0.1, delta0=1.0)


@pytest.mark.parametrize("kwargs,message", [
    *(({**VALID, field: value}, f"{field} must be finite, got {value}")
      for field in ("gamma12", "gamma_opt_total", "delta0")
      for value in (math.nan, math.inf, -math.inf)),
    ({**VALID, "gamma12": 0.0}, "gamma12 must be positive, got 0.0"),
    ({**VALID, "gamma12": -1.0}, "gamma12 must be positive, got -1.0"),
    ({**VALID, "gamma_opt_total": -0.1}, "gamma_opt_total must be nonnegative, got -0.1"),
    ({**VALID, "delta0": -1.0}, "delta0 must be nonnegative, got -1.0"),
    ({**VALID, "atom_count": 0}, "atom_count must be >= 1, got 0"),
    # two bad fields: a non-finite rate is named before an out-of-range
    # one, and otherwise the fields are checked in declaration order
    ({**VALID, "gamma12": 0.0, "delta0": math.nan}, "delta0 must be finite, got nan"),
    ({**VALID, "gamma_opt_total": math.inf, "delta0": -math.inf},
     "gamma_opt_total must be finite, got inf"),
    ({**VALID, "gamma12": -1.0, "gamma_opt_total": -1.0},
     "gamma12 must be positive, got -1.0"),
    ({**VALID, "delta0": -1.0, "atom_count": 0}, "delta0 must be nonnegative, got -1.0"),
])
def test_params_validation_messages(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        MediumParams(**kwargs)
    assert str(excinfo.value) == message


def test_per_atom_rate():
    p = MediumParams(1.0, 0.5, 1.0, atom_count=10)
    assert p.gamma_opt_per_atom == pytest.approx(0.05)
