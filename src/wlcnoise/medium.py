"""Closed-form response of the double-pumped gain medium.

The medium is a three-level atomic ensemble driven by two control
lasers detuned by +-delta0 from their common center, which gives the
probe two gain peaks at sideband frequencies near +-delta0 and
anomalous (negative) dispersion in between. This module provides the
susceptibility, the probe transfer coefficient, the added-noise
coefficients of the amplification process under both bath models, the
stationarity classification, the weak-coupling validity margin, and
the solver for the detuning that cancels the arm propagation phase.

All rates and frequencies are plain floats in any consistent unit
system (tests use units of the arm delay, SI works equally well). The
frequency-dependent functions take omega as a float or a numpy array
and return NumPy values of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PoleError

__all__ = [
    "MediumParams",
    "MediumClass",
    "NoiseModel",
    "susceptibility",
    "probe_transfer",
    "noise_coefficients",
    "classify_medium",
    "validity_margin",
    "round_trip_phase",
    "solve_detuning",
    "map_eta_xi",
]


class MediumClass(Enum):
    STATIONARY = "stationary"
    ATOMIC_INSTABILITY = "atomic"
    NON_STATIONARY = "non-stationary"


class NoiseModel(Enum):
    """Bookkeeping of the decoherence baths.

    LOCAL: each atom couples to its own bath; the per-atom coefficients
    carry the pump rate divided by the atom count and there are
    atom_count independent channels. COLLECTIVE: one common bath with
    the full ensemble pump rate. The two models yield identical noise
    power, so the choice never changes the detector sensitivity.
    """

    LOCAL = "local"
    COLLECTIVE = "collective"


@dataclass(frozen=True)
class MediumParams:
    """Rates and detuning of the double-pumped gain medium.

    gamma12         effective |2> -> |1> transition rate
    gamma_opt_total pump-mediated anti-damping rate of the whole
                    ensemble (atom count already folded in)
    delta0          half the frequency splitting of the two control
                    fields; 0 selects single pumping
    atom_count      number of atoms; enters only the noise bookkeeping
    """

    gamma12: float
    gamma_opt_total: float
    delta0: float
    atom_count: int = 1

    def __post_init__(self) -> None:
        # valid input passes one chained comparison (NaN fails each);
        # the checks below only name the first bad field
        if (0.0 < self.gamma12 < math.inf > self.gamma_opt_total >= 0.0 <= self.delta0
                < math.inf and self.atom_count >= 1):
            return
        for name in ("gamma12", "gamma_opt_total", "delta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma12 <= 0.0:
            raise ValueError(f"gamma12 must be positive, got {self.gamma12}")
        if self.gamma_opt_total < 0.0:
            raise ValueError(
                f"gamma_opt_total must be nonnegative, got {self.gamma_opt_total}")
        if self.delta0 < 0.0:
            raise ValueError(f"delta0 must be nonnegative, got {self.delta0}")
        if self.atom_count < 1:
            raise ValueError(f"atom_count must be >= 1, got {self.atom_count}")

    @property
    def gamma_opt_per_atom(self) -> float:
        return self.gamma_opt_total / self.atom_count

    @property
    def damping_gap(self) -> float:
        """gamma12 - gamma_opt_total; positive for a non-lasing medium."""
        return self.gamma12 - self.gamma_opt_total


def _denominators(p: MediumParams, omega):
    """The two resonance denominators i(omega +- delta0) - gamma12 + Gamma."""
    return _resonances(np.asarray(omega), p.delta0, p.gamma_opt_total - p.gamma12)


def _resonances(omega, delta0, base):
    """The two resonance denominators i(omega +- delta0) + base, for
    base = Gamma - gamma12; delta0 and base are scalars or arrays like
    omega. For real omega their real part is base, so a pole needs a
    base to vanish and only then are the arrays scanned.
    """
    den_plus = 1j * (omega + delta0) + base
    den_minus = 1j * (omega - delta0) + base
    if np.any(base == 0.0) and (np.any(den_plus == 0) or np.any(den_minus == 0)):
        raise PoleError(
            "response evaluated on a pole: gamma12 == gamma_opt_total "
            "and omega == +-delta0")
    return den_plus, den_minus


def susceptibility(p: MediumParams, omega):
    """Probe susceptibility chi(omega) of the pumped ensemble.

    chi = 2i G / (i(omega + d0) - g12 + G) + 2i G / (i(omega - d0) - g12 + G)
    with G the ensemble pump rate. Purely imaginary at omega = 0 and
    vanishing for large |omega| or zero pumping.
    """
    den_plus, den_minus = _denominators(p, omega)
    return 2j * p.gamma_opt_total * (1.0 / den_plus + 1.0 / den_minus)


def probe_transfer(p: MediumParams, omega):
    """Transfer coefficient of a sideband passing once through the medium.

    Equals 1 + i chi / 2 identically; kept in the explicit two-pole form
    so the identity is a cross-check rather than a definition. Satisfies
    conj(M(-omega)) == M(omega) for real omega.
    """
    return _transfer(p.gamma_opt_total, *_denominators(p, omega))


def _transfer(gamma_opt_total, den_plus, den_minus):
    return 1.0 - gamma_opt_total / den_plus - gamma_opt_total / den_minus


def noise_coefficients(p: MediumParams, omega, model: NoiseModel):
    """Added-noise coefficients (upper, lower) of the amplifier.

    N_pm = sqrt(2 g12 g_pump) / (+-i d0 - i omega + g12 - G) where
    g_pump is the per-atom pump rate for the LOCAL model (to be summed
    over atom_count independent baths) and the full ensemble rate for
    the COLLECTIVE single-bath model. Both satisfy
    conj(N_plus(-omega)) == N_minus(omega).
    """
    return _noise_pair(_noise_amplitude(p, model), *_denominators(p, omega))


def _noise_amplitude(p: MediumParams, model: NoiseModel) -> float:
    """sqrt(2 g12 g_pump), the numerator of both noise coefficients."""
    g_pump = p.gamma_opt_per_atom if model is NoiseModel.LOCAL else p.gamma_opt_total
    return math.sqrt(2.0 * p.gamma12 * g_pump)


def _noise_pair(amp, den_plus, den_minus):
    # +i d0 - i omega + g12 - G == -(i(omega - d0) + G - g12), and the
    # -d0 channel likewise picks up the other resonance denominator
    return amp / (-den_minus), amp / (-den_plus)


def classify_medium(p: MediumParams) -> MediumClass:
    """Stationarity classification of the bare medium.

    Population inversion (gamma12 < Gamma) makes the ensemble lase on
    its own. Otherwise the beat of the two pumps at 2*delta0 must stay
    negligible, which requires delta0^2 + (gamma12 - Gamma)^2 to reach
    Gamma^2 / 4; a medium exactly on that threshold is stationary. The
    rates are scaled by the power of two that brings the largest below
    1, exactly, so no square overflows.
    """
    if p.gamma12 < p.gamma_opt_total:
        return MediumClass.ATOMIC_INSTABILITY
    exponent = -math.frexp(max(p.gamma12, p.delta0))[1]
    delta0, gap = math.ldexp(p.delta0, exponent), math.ldexp(p.damping_gap, exponent)
    if delta0**2 + gap**2 < math.ldexp(p.gamma_opt_total, exponent)**2 / 4.0:
        return MediumClass.NON_STATIONARY
    return MediumClass.STATIONARY


def validity_margin(p: MediumParams, omega):
    """Size of the neglected pump-beat correction, max of |f - 1|^2.

    f_pm - 1 = (Gamma / 2) / (gamma12 - Gamma + i(omega +- delta0)).
    Small values certify the weak-coupling input-output relation.
    """
    den_plus, den_minus = _denominators(p, omega)
    # f_pm - 1 = -(Gamma / 2) / conj(den_pm), so |f_pm - 1| = |(Gamma / 2) / den_pm|
    half = 0.5 * p.gamma_opt_total
    return np.maximum(np.abs(half / den_plus) ** 2, np.abs(half / den_minus) ** 2)


def round_trip_phase(p: MediumParams, omega, tau: float):
    """Phase accumulated per recycling round trip in the weak-coupling form.

    2 omega tau from the arm propagation plus Re(chi)/2 from the medium.
    At a phase-cancellation detuning the slope of this phase vanishes at
    omega = 0, which is the white-light condition.
    """
    return 2.0 * np.asarray(omega) * tau + 0.5 * np.real(susceptibility(p, omega))


def solve_detuning(gamma12: float, gamma_opt_total: float,
                   tau: float) -> tuple[float, ...]:
    """Detunings delta0 that cancel the arm propagation phase.

    With x = delta0^2, g = gamma12 - Gamma and A = Gamma / tau, the
    cancellation condition Gamma (g^2 - x) / (g^2 + x)^2 = -tau
    rearranges to x^2 + (2 g^2 - A) x + g^2 (g^2 + A) = 0. Strictly
    positive roots are returned as sqrt(x), ascending; a repeated root
    appears once; an empty tuple means the cancellation is infeasible
    (discriminant A (A - 8 g^2) < 0). The x = 0 root arising at g = 0
    is the single-pump degenerate case and is discarded.

    The roots in x are taken stably, q / a and c / q with
    q = -(b + sign(b) sqrt(disc)) / 2, after a power-of-two rescale
    where b^2 or 4ac would overflow or both underflow; a discriminant
    within 1e-10 of max(b^2, |4ac|) is a repeated root -b / 2a. At
    b = 0 (A = 2 g^2) the product c >= 0 leaves no positive root.
    """
    if not 0.0 < gamma12 < math.inf > gamma_opt_total > 0.0 < tau < math.inf:
        for name, value in (("gamma12", gamma12), ("gamma_opt_total", gamma_opt_total),
                            ("tau", tau)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
    g2 = (gamma12 - gamma_opt_total) ** 2
    a_rate = gamma_opt_total / tau
    a, b, c = 1.0, 2.0 * g2 - a_rate, g2 * (g2 + a_rate)
    if b == 0.0:
        return ()
    largest = 2 * math.frexp(b)[1]
    if c != 0.0:
        largest = max(largest, math.frexp(a)[1] + math.frexp(c)[1])
    if abs(largest) > 1000:
        norm = math.ldexp(1.0, largest // 2)
        a, b, c = a / norm, b / norm, c / norm
    disc = b * b - 4.0 * a * c
    scale = max(b * b, abs(4.0 * a * c))
    if scale > 0.0 and abs(disc) <= 1e-10 * scale:
        roots = [-b / (2.0 * a)]
    elif disc < 0.0:
        return ()
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = sorted(r for r in (q / a, c / q) if math.isfinite(r))
    return tuple(math.sqrt(x) for x in roots if x > 0.0)


def map_eta_xi(eta: float, xi: float, tau: float) -> tuple[float, float]:
    """Rates (gamma12, gamma_opt_total) for survey coordinates (eta, xi).

    eta = Gamma / gamma12 and xi = 8 (gamma12 - Gamma)^2 tau / gamma12,
    so gamma12 = xi / (8 tau (1 - eta)^2) and Gamma = eta gamma12. The
    map is singular along eta = 1 (zero damping gap); ValueError where
    8 tau (1 - eta)^2 underflows to 0, or gamma12 or Gamma rounds to 0.
    """
    if not 0.0 < eta < 1.0:
        if eta == 1.0:
            raise ValueError("eta = 1 is unreachable through this parametrization")
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")
    scale = 8.0 * tau * (1.0 - eta) ** 2
    if scale == 0.0:
        raise ValueError(f"8 tau (1 - eta)^2 underflows to 0 at eta={eta}, xi={xi}, "
                         f"tau={tau}")
    gamma12 = xi / scale
    gamma_opt = eta * gamma12
    if gamma_opt == 0.0:  # and so where gamma12 is 0
        raise ValueError(f"the rates round to 0 at eta={eta}, xi={xi}, tau={tau}: "
                         f"gamma12={gamma12}, gamma_opt_total={gamma_opt}")
    return gamma12, gamma_opt

