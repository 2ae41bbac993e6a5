"""Quadrature-domain model of the signal-recycled detector.

The differential mode of the interferometer maps onto a single cavity:
an arm round trip (pure delay e^{2 i omega tau} on both quadratures),
the gain medium (diagonal block M(omega) because conj(M(-omega)) ==
M(omega)), and the signal recycling mirror closing the loop with
amplitude reflectivity r_s. Test masses are taken infinitely heavy, so
radiation-pressure back-action is absent and the shot-noise-limited
strain spectral density follows in closed form from the scalar loop
gain plus the medium's added noise; its inverse, integrated over one
free spectral range, gives the sensitivity improvement factor rho_r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import medium as med_mod
from .errors import AccuracyError, MarginalStabilityError
from .medium import MediumParams, NoiseModel
from .numerics import _integrate_many

__all__ = [
    "IfoParams",
    "reference_detector",
    "open_loop_gain",
    "strain_psd",
    "baseline_integrated_inverse_psd",
    "improvement_factor",
]

# exact SI values: the speed of light in vacuum (m/s) and the reduced
# Planck constant h / 2 pi (J s)
SPEED_OF_LIGHT = 299792458.0
HBAR = 6.62607015e-34 / (2.0 * math.pi)


@dataclass(frozen=True)
class IfoParams:
    """Detector parameters (SI units unless the caller is consistent otherwise).

    arm_length                  L, one-way arm length
    circulating_power           P_c in the arms
    carrier_angular_frequency   omega_0 of the laser
    srm_amplitude_reflectivity  r_s in [0, 1); t_s^2 = 1 - r_s^2 (lossless)
    include_additional_noise    whether the medium's added noise enters
                                the strain spectral density
    """

    arm_length: float
    circulating_power: float
    carrier_angular_frequency: float
    srm_amplitude_reflectivity: float
    include_additional_noise: bool = True

    def __post_init__(self) -> None:
        for name in ("arm_length", "circulating_power", "carrier_angular_frequency",
                     "srm_amplitude_reflectivity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.arm_length <= 0.0:
            raise ValueError("arm_length must be positive")
        if self.circulating_power <= 0.0:
            raise ValueError("circulating_power must be positive")
        if self.carrier_angular_frequency <= 0.0:
            raise ValueError("carrier_angular_frequency must be positive")
        if not 0.0 <= self.srm_amplitude_reflectivity < 1.0:
            raise ValueError("srm_amplitude_reflectivity must lie in [0, 1)")
        if not isinstance(self.include_additional_noise, bool):
            raise ValueError(f"include_additional_noise must be a bool, "
                             f"got {self.include_additional_noise!r}")

    @property
    def tau(self) -> float:
        """One-way arm propagation delay L / c."""
        return self.arm_length / SPEED_OF_LIGHT

    @property
    def srm_amplitude_transmissivity(self) -> float:
        return math.sqrt(1.0 - self.srm_amplitude_reflectivity**2)

    @property
    def signal_strength(self) -> float:
        """P_c omega_0 L^2 / (hbar c^2), the shot-noise signal scale (a rate)."""
        return (self.circulating_power * self.carrier_angular_frequency
                * self.arm_length**2 / (HBAR * SPEED_OF_LIGHT**2))

    @property
    def free_spectral_range(self) -> float:
        """Angular free spectral range pi / tau used as integration limit."""
        return math.pi / self.tau

    # memoized: a frozen detector can be shared, so each (detector, rs^2)
    # is derived once however many media use it; an error is not cached
    @functools.lru_cache(maxsize=64)
    def with_power_reflectivity(self, rs2: float) -> "IfoParams":
        return replace(self, srm_amplitude_reflectivity=_amplitude_of(rs2))


def _amplitude_of(rs2: float) -> float:
    """The SRM amplitude reflectivity of the power reflectivity rs2."""
    if not 0.0 <= rs2 < 1.0:
        raise ValueError(f"SRM power reflectivity must lie in [0, 1), got {rs2}")
    return math.sqrt(rs2)


def reference_detector(srm_power_reflectivity: float = 0.8,
                       include_additional_noise: bool = True) -> IfoParams:
    """A 4 km, 800 kW, 1064 nm detector used for figure reproduction.

    The headline results are dimensionless and do not depend on these
    numbers; they are only a concrete SI anchor.
    """
    wavelength = 1064e-9
    return IfoParams(
        arm_length=4000.0,
        circulating_power=800e3,
        carrier_angular_frequency=2.0 * math.pi * SPEED_OF_LIGHT / wavelength,
        srm_amplitude_reflectivity=_amplitude_of(srm_power_reflectivity),
        include_additional_noise=include_additional_noise,
    )


def open_loop_gain(ifo: IfoParams, med: MediumParams, omega):
    """Scalar open-loop gain at omega (a float or an array): arm delay
    times medium transfer.

    The closed-loop scalar is 1 / (1 - r_s * open_loop_gain).
    """
    return _loop_gain(np.asarray(omega), ifo.tau, med.gamma_opt_total,
                      med_mod._denominators(med, omega))


def _loop_gain(omega, tau, gamma_opt_total, dens):
    return np.exp(2j * omega * tau) * med_mod._transfer(gamma_opt_total, *dens)


def strain_psd(ifo: IfoParams, med: MediumParams, model: NoiseModel, omega):
    """Shot-noise-limited strain spectral density at omega (a float or
    an array, evaluated elementwise).

    Every loop block is a scalar multiple of the identity except the
    noise blocks, and the medium is phase insensitive, so the block
    chain collapses to the open-loop gain G:

        S = (|G - r_s|^2 + B t_s^2 (|N+|^2 + |N-|^2)) / (2 K t_s^2)

    with K the signal strength, read in the phase quadrature, and B the
    bath count (atom_count for LOCAL, 1 for COLLECTIVE); the noise term
    is dropped when the added noise is switched off. The atom count
    cancels between B and the per-bath coefficients, making the result
    independent of it.

    Raises MarginalStabilityError, naming the first such omega, when the
    closed loop is singular (|1 - r_s G| <= 1e-6).
    """
    return _strain_noise(np.asarray(omega), *_strain_terms(ifo, med, model))


def _strain_terms(ifo: IfoParams, med: MediumParams, model: NoiseModel) -> tuple[float, ...]:
    """The scalars of one configuration's strain noise, in the order
    _strain_noise takes them: tau, r_s, delta0, Gamma - gamma12, Gamma,
    the noise amplitude, B t_s^2 (0 without the added noise) and
    2 K t_s^2."""
    ts2 = ifo.srm_amplitude_transmissivity**2
    amp = weight = 0.0
    if ifo.include_additional_noise:
        amp = med_mod._noise_amplitude(med, model)
        weight = (med.atom_count if model is NoiseModel.LOCAL else 1) * ts2
    return (ifo.tau, ifo.srm_amplitude_reflectivity, med.delta0,
            med.gamma_opt_total - med.gamma12, med.gamma_opt_total, amp, weight,
            2.0 * ifo.signal_strength * ts2)


def _strain_noise(omega, tau, rs, delta0, base, gamma_opt_total, amp, weight, scale):
    """strain_psd's formula on _strain_terms, each term a scalar or an
    array like omega: elementwise, so a point's value has the same bits
    whether its terms come as scalars or broadcast to an array."""
    dens = med_mod._resonances(omega, delta0, base)
    gain = _loop_gain(omega, tau, gamma_opt_total, dens)
    closed = np.ravel(np.abs(1.0 - rs * gain))
    # look for the index only when the minimum (or a NaN) calls for it
    if not closed.min(initial=math.inf) > 1e-6:
        singular = np.flatnonzero(closed <= 1e-6)
        if singular.size:
            k = singular[0]
            raise MarginalStabilityError(
                f"closed loop singular at omega = {float(np.ravel(omega)[k])!r} "
                f"(|1 - r_s G| = {closed[k]:.3e})")

    power = np.abs(gain - rs) ** 2
    if np.any(weight):
        n_up, n_lo = med_mod._noise_pair(amp, *dens)
        # a zero weight adds +0.0, which leaves power's bits as they are
        power += weight * (np.abs(n_up) ** 2 + np.abs(n_lo) ** 2)
    return power / scale


def baseline_integrated_inverse_psd(ifo: IfoParams) -> float:
    """Frequency-integrated inverse strain noise of the bare detector.

    Integral of 1/S_hh over one free spectral range for the detector
    without the medium: 2 pi L P_c omega_0 / (hbar c). Independent of
    the recycling mirror, it only depends on the circulating power and
    the arm length.
    """
    return (2.0 * math.pi * ifo.arm_length * ifo.circulating_power
            * ifo.carrier_angular_frequency / (HBAR * SPEED_OF_LIGHT))


def _integration_breakpoints(delta0: np.ndarray, gap: np.ndarray,
                             fsr: np.ndarray) -> np.ndarray:
    """Panel seeds at the known sharp features of the inverse noise
    curve on [0, fsr], unsorted, a row per medium (rates and fsr as
    arrays): the quarters of fsr, and k widths (k = 1, 3, 10, 30) above
    0, below fsr and about delta0, with delta0 and its halfway points.
    At delta0 = 0 the seeds about it fall on the others or outside
    (0, fsr), where _integrate_many drops them."""
    width = np.maximum(np.maximum(gap, 1e-6 * delta0), 1e-12 * fsr)[:, None]
    steps = width * np.array([1.0, 3.0, 10.0, 30.0])
    return np.concatenate([fsr[:, None] * np.array([0.25, 0.5, 0.75]), steps,
                           fsr[:, None] - steps, delta0[:, None] - steps,
                           delta0[:, None] + steps,
                           delta0[:, None] * np.array([0.5, 1.0, 1.5])], axis=1)


def _configurations(ifo, med) -> tuple[bool, tuple, tuple]:
    """Whether ifo and med are one configuration, and the detectors and
    media as equal-length tuples; TypeError when only one of the two is
    a sequence, ValueError when their lengths differ."""
    single = isinstance(ifo, IfoParams)
    if single is not isinstance(med, MediumParams):
        raise TypeError(f"ifo and med must both be one configuration or both sequences, "
                        f"got {type(ifo).__name__} and {type(med).__name__}")
    detectors, media = ((ifo,), (med,)) if single else (tuple(ifo), tuple(med))
    if len(detectors) != len(media):
        raise ValueError(f"{len(detectors)} detectors for {len(media)} media")
    return single, detectors, media


def improvement_factor(ifo: IfoParams | Sequence[IfoParams],
                       med: MediumParams | Sequence[MediumParams], model: NoiseModel,
                       rel_tol: float = 1e-4) -> float | list[float | AccuracyError]:
    """Integrated sensitivity gain over the conventional detector, rho_r.

    Ratio of the integral of 1/S_hh (strain_psd) over one free spectral
    range to baseline_integrated_inverse_psd. Meaningful only for stable
    configurations, which the caller classifies (classify_system).
    Raises AccuracyError when a quadrature panel reaches the maximum
    depth unconverged; its best and error estimates are in the units of
    the ratio. A converged quadrature can still miss rel_tol, without
    raising.

    ifo and med may also be equal-length sequences of detectors and
    media: their integrals are then taken in lockstep, each to the same
    bits as alone, and the call returns a list holding each
    configuration's ratio, or its AccuracyError in its place; any other
    error (a singular closed loop) is raised for the whole call.
    """
    single, detectors, media = _configurations(ifo, med)
    terms = np.array([_strain_terms(ifo, med, model) for ifo, med in zip(detectors, media)]
                     ).reshape(-1, 8).T
    # tau, delta0 and Gamma - gamma12 are terms 0, 2 and 3
    fsr = math.pi / terms[0]
    results = _integrate_many(
        lambda omega, owner: 1.0 / _strain_noise(omega, *terms[:, owner]),
        np.zeros(fsr.size), fsr, _integration_breakpoints(terms[2], -terms[3], fsr),
        rel_tol=rel_tol)
    rho = []
    for ifo, result in zip(detectors, results):
        baseline = baseline_integrated_inverse_psd(ifo)
        if isinstance(result, AccuracyError):
            rho.append(AccuracyError(str(result), best_estimate=result.best_estimate / baseline,
                                     error_estimate=result.error_estimate / baseline))
        else:
            rho.append(result.value / baseline)
    if not single:
        return rho
    if isinstance(rho[0], AccuracyError):
        raise rho[0]
    return rho[0]
