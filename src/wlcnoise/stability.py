"""Nyquist stability of the recycled loop with the gain medium.

The closed loop lases when 1 - r_s G_o(omega) has a zero in the upper
half of the complex frequency plane. With a stationary medium the open
loop gain G_o = e^{2 i omega tau} M(omega) is analytic there, so the
zero count equals the winding number of r_s G_o about the point (1, 0)
along the real axis closed through the decaying upper arc. That winding
is the signed count of crossings of the ray [1, inf), which can only
happen where |r_s G_o| > 1; classify_system counts them in closed form
inside that gain window. The closest approach to (1, 0) is exact:
the distance |1 - r_s G_o| is sampled where |r_s G_o| is near 1, and
each sampled descent into a minimum is polished by a safeguarded
Newton search with closed-form derivatives. nyquist_contour samples
the whole contour for output and as a reference. An independent
argument-principle oracle counts the same zeros by integrating the
logarithmic derivative of 1 - r_s G_o around a rectangle in the upper
half plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import medium as med_mod
from .errors import AccuracyError, MarginalStabilityError, MediumNotStationaryError
from .interferometer import IfoParams, open_loop_gain
from .medium import MediumClass, MediumParams
from .numerics import _refine_curve, solve_quadratic

__all__ = [
    "Classification",
    "StabilityReport",
    "default_omega_max",
    "nyquist_contour",
    "classify_system",
    "root_count_oracle",
]

CRITICAL_POINT = 1.0 + 0.0j
MARGINAL_ERROR_DISTANCE = 1e-9
MARGINAL_FLAG_DISTANCE = 1e-6
REFINE_NEAR_DISTANCE = 0.1


class Classification(Enum):
    STABLE = "stable"
    ATOMIC_INSTABILITY = "atomic"
    OPTICAL_INSTABILITY = "optical"
    NON_STATIONARY = "non-stationary"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the full-system stability test.

    classification  final verdict; medium-level classes take precedence
    winding         encirclements of (1, 0) by r_s G_o (0 when the
                    medium is not stationary)
    min_distance_to_critical  closest approach of the contour to (1, 0)
                    where that is below 1 - level, else the lower bound
                    1 - level, with level = max(0.9, (1 + r_s) / 2); 1
                    when r_s = 0, inf when the medium is not stationary
    omega_range_used          the searched near window (lo, hi), omega >= 0,
                    where |r_s G_o| >= level (mirrored onto omega < 0);
                    (0, 0) when it is empty
    marginal        contour approached (1, 0) closer than 1e-6; surveys
                    treat such cells as unstable
    """

    classification: Classification
    winding: int
    min_distance_to_critical: float
    omega_range_used: tuple[float, float]
    marginal: bool = False

    @property
    def stable(self) -> bool:
        return self.classification is Classification.STABLE


def default_omega_max(med: MediumParams, tau: float) -> float:
    """Sampling limit covering every rate scale of the loop."""
    return 50.0 * max(med.delta0, med.gamma12, med.gamma_opt_total, 1.0 / tau)


def _require_damped(med: MediumParams) -> None:
    """Loop poles sit on the real axis when the damping gap closes."""
    if med.damping_gap <= 0.0:
        raise MarginalStabilityError(
            "medium is on the lasing threshold (gamma12 == gamma_opt_total); "
            "the loop poles lie on the real frequency axis")


def _base_grid(med: MediumParams, tau: float, omega_max: float) -> np.ndarray:
    """Initial omega samples on [0, omega_max].

    Uniform coverage dense enough for the delay turns, plus clusters
    around the gain peak at delta0 (width set by the damping gap) and
    around the band center.
    """
    turns = omega_max * tau / math.pi
    samples = int(min(max(4096, 16 * turns), 2**21))
    pieces = [np.linspace(0.0, omega_max, samples)]
    width = max(med.damping_gap, 1e-3 * med.delta0, 1e-12 / tau)
    if med.delta0 > 0.0:
        pieces.append(med.delta0 + width * np.linspace(-30.0, 30.0, 241))
        pieces.append(np.abs(med.delta0 + width * np.linspace(-1.0, 1.0, 81)))
    pieces.append(width * np.linspace(0.0, 30.0, 121))
    grid = np.concatenate(pieces)
    grid = grid[(grid >= 0.0) & (grid <= omega_max)]
    return np.unique(grid)


def _closed_contour(half: np.ndarray) -> np.ndarray:
    """Close the half-axis image through the origin and mirror it.

    The negative-frequency image is the complex conjugate of the
    positive one, and the infinite upper arc maps to the origin because
    the delay factor decays there.
    """
    z_end = half[-1]
    s = np.linspace(0.0, 1.0, 9)[1:]
    down = z_end * (1.0 - s)
    up = np.conj(z_end) * s
    mirrored = np.conj(half[-2::-1])
    return np.concatenate([half, down, up, mirrored])


def nyquist_contour(ifo: IfoParams, med: MediumParams) -> np.ndarray:
    """Closed image of r_s G_o along the real axis plus the closing arc.

    Samples omega in [0, default_omega_max], extended to twice the upper
    end of the gain window |r_s G_o| > 1 when the window reaches that
    limit. Beyond the window |r_s G_o| < 1, so the dropped tail and the
    closing chord through the origin cannot wind about (1, 0). Sampling
    is refined wherever the turning angle about (1, 0) per segment
    reaches pi/2 or a segment passes within 0.1 of (1, 0). Requires a
    stationary medium, whose response poles then lie in the lower half
    plane. The returned polyline starts and ends at the omega = 0 point
    (real) and is traversed with omega increasing.
    """
    if med_mod.classify_medium(med) is not MediumClass.STATIONARY:
        raise MediumNotStationaryError(
            "Nyquist contour requires a stationary medium")
    _require_damped(med)
    omega_max = default_omega_max(med, ifo.tau)
    window = _gain_window(ifo, med, 1.0)
    if window is not None and window[1] >= omega_max:
        omega_max = 2.0 * window[1]
    omegas = _base_grid(med, ifo.tau, omega_max)
    rs = ifo.srm_amplitude_reflectivity

    def producer(w):
        return rs * open_loop_gain(ifo, med, w)

    half, _ = _refine_curve(producer(omegas), omegas, producer, CRITICAL_POINT,
                            near_distance=REFINE_NEAR_DISTANCE)
    return _closed_contour(half)


def _gain_window(ifo: IfoParams, med: MediumParams,
                 level: float) -> tuple[float, float] | None:
    """Frequencies omega >= 0 where |r_s G_o(omega)| > level, as (lo, hi).

    With g = gamma12 - Gamma, M = num / (den_+ den_-) where
    num = -omega^2 - 2i(g + Gamma) omega + c0 and
    den_+ den_- = -omega^2 - 2i g omega + e0, so |r_s M|^2 > level^2 is
    a quadratic inequality in y = omega^2 whose leading coefficient
    r_s^2 - level^2 is negative for level > r_s: the set is one interval
    in y, mirrored onto omega < 0. Rates are scaled by their largest
    before squaring. None when the set is empty or a single point.
    """
    rs = ifo.srm_amplitude_reflectivity
    scale = max(med.delta0, med.damping_gap, med.gamma_opt_total)
    d, g, gam = med.delta0 / scale, med.damping_gap / scale, med.gamma_opt_total / scale
    c0 = d * d + g * g + 2.0 * gam * g
    e0 = d * d + g * g
    r2, l2 = rs * rs, level * level
    # r2 [(c0 - y)^2 + 4 (g + Gamma)^2 y] - l2 [(e0 - y)^2 + 4 g^2 y] > 0
    roots = solve_quadratic(r2 - l2,
                            r2 * (4.0 * (g + gam) ** 2 - 2.0 * c0)
                            - l2 * (4.0 * g * g - 2.0 * e0),
                            r2 * c0 * c0 - l2 * e0 * e0).roots
    if len(roots) < 2 or roots[1] <= 0.0:
        return None
    return math.sqrt(max(roots[0], 0.0)) * scale, math.sqrt(roots[1]) * scale


def _loop_phase_turns(ifo: IfoParams, med: MediumParams, omega: float) -> float:
    """Continuous phase of G_o at real omega >= 0, in turns, 0 at omega = 0.

    The phase is 2 omega tau + arg num - arg den_+ - arg den_- on
    branches that never jump on the real axis: arg den_pm =
    pi - atan((omega +- delta0) / g), and arg num = pi + the args of
    omega - r_k for the two roots r_k = -i(g + Gamma) +- sqrt(delta0^2 -
    Gamma^2) of num, which lie in the lower half plane, so each
    omega - r_k stays in the upper one.
    """
    g, gam, d = med.damping_gap, med.gamma_opt_total, med.delta0
    h = g + gam
    if d >= gam:
        s = math.sqrt((d - gam) * (d + gam))
        arg_num = math.atan2(h, omega - s) + math.atan2(h, omega + s)
    else:
        t = math.sqrt((gam - d) * (gam + d))
        # h - t from the product (h - t)(h + t) = c0, free of cancellation
        arg_num = (math.atan2((d * d + g * g + 2.0 * gam * g) / (h + t), omega)
                   + math.atan2(h + t, omega))
    phase = (2.0 * omega * ifo.tau + arg_num - math.pi
             + math.atan((omega + d) / g) + math.atan((omega - d) / g))
    return phase / (2.0 * math.pi)


def _ray_crossings(ifo: IfoParams, med: MediumParams) -> int:
    """Winding of r_s G_o about (1, 0) as signed crossings of [1, inf).

    A crossing needs |r_s G_o| > 1, so it lies in the gain window; on
    [lo, hi] the signed count is floor(phase(hi)) - floor(phase(lo)) in
    turns, and the conjugate half omega < 0 adds as many. A window
    starting at omega = 0 is one interval symmetric about zero that
    crosses the ray at omega = 0 itself, where G_o = M(0) > 0.
    """
    window = _gain_window(ifo, med, 1.0)
    if window is None:
        return 0
    lo, hi = window
    turns_hi = math.floor(_loop_phase_turns(ifo, med, hi))
    if lo == 0.0:
        return 2 * turns_hi + 1
    return 2 * (turns_hi - math.floor(_loop_phase_turns(ifo, med, lo)))


def _loop_series(ifo: IfoParams, med: MediumParams, omega, exp=np.exp):
    """F = 1 - r_s G_o and its first two omega-derivatives at real omega.

    With G_o = e^{k omega} M, k = 2 i tau, and M = 1 - Gamma (1/d_+ +
    1/d_-) for d_pm = i(omega +- delta0) - g, each derivative of M is a
    sum of powers of 1/d_pm. omega is an array (exp=np.exp) or a float
    (exp=cmath.exp, which keeps the Newton steps in plain Python).
    """
    gam, g = med.gamma_opt_total, med.damping_gap
    k = 2j * ifo.tau
    inv_p = 1.0 / (1j * (omega + med.delta0) - g)
    inv_m = 1.0 / (1j * (omega - med.delta0) - g)
    m = 1.0 - gam * (inv_p + inv_m)
    dm = 1j * gam * (inv_p * inv_p + inv_m * inv_m)
    ddm = 2.0 * gam * (inv_p * inv_p * inv_p + inv_m * inv_m * inv_m)
    e = -ifo.srm_amplitude_reflectivity * exp(k * omega)
    return 1.0 + e * m, e * (k * m + dm), e * (k * (k * m + 2.0 * dm) + ddm)


def _polish_minimum(ifo: IfoParams, med: MediumParams,
                    lo: float, hi: float) -> float:
    """Smallest |F| met by a safeguarded Newton search on [lo, hi].

    Seeks the zero of g = Re(conj(F) F') = d|F|^2/2 domega, which runs
    from negative at lo to positive at hi; a step that leaves the
    bracket or shrinks it too slowly is replaced by bisection. Stops
    once a step is within 1e-14 hi, some 50 ulps of omega.
    """
    best = math.inf
    tol = 1e-14 * hi
    x, step_old = 0.5 * (lo + hi), hi - lo
    step = step_old
    for _ in range(100):
        f, df, ddf = _loop_series(ifo, med, x, cmath.exp)
        best = min(best, abs(f))
        slope = (f.conjugate() * df).real
        curve = abs(df) ** 2 + (f.conjugate() * ddf).real
        if slope < 0.0:
            lo = x
        else:
            hi = x
        if (((x - hi) * curve - slope) * ((x - lo) * curve - slope) > 0.0
                or abs(2.0 * slope) > abs(step_old * curve)):
            step_old, step = step, 0.5 * (hi - lo)
            x = lo + step
        else:
            step_old, step = step, slope / curve
            x -= step
        if abs(step) <= tol:
            break
    return best


def _closest_approach(ifo: IfoParams,
                      med: MediumParams) -> tuple[float, tuple[float, float]]:
    """Closest approach of r_s G_o to (1, 0) and the searched omega range.

    Only the near window where |r_s G_o| >= level, with level =
    max(1 - REFINE_NEAR_DISTANCE, (1 + r_s) / 2), is searched; everywhere
    else the distance exceeds 1 - level, which is returned instead when
    the window is empty or the approach is farther. |F| = |1 - r_s G_o|
    is sampled on the window (16 points per delay turn plus a cluster at
    the gain peak delta0), and every sample interval over which
    d|F|/domega turns from negative to positive is polished to its
    minimum by _polish_minimum. At omega = 0 the slope vanishes by
    symmetry, so there the sign of the curvature stands in for it.
    Searching omega >= 0 suffices because the other half is the complex
    conjugate.
    """
    rs = ifo.srm_amplitude_reflectivity
    level = max(1.0 - REFINE_NEAR_DISTANCE, 0.5 * (1.0 + rs))
    window = _gain_window(ifo, med, level)
    if window is None:
        return 1.0 - level, (0.0, 0.0)
    lo, hi = window
    count = 33 + int(16.0 * (hi - lo) * ifo.tau / math.pi)
    width = max(med.damping_gap, 1e-3 * med.delta0)
    peak = med.delta0 + width * np.linspace(-30.0, 30.0, 61)
    omegas = np.union1d(np.linspace(lo, hi, count), peak[(peak > lo) & (peak < hi)])
    f, df, ddf = _loop_series(ifo, med, omegas)
    slope = np.real(np.conj(f) * df)
    slope = np.where(slope == 0.0, np.abs(df) ** 2 + np.real(np.conj(f) * ddf), slope)
    dist = float(np.abs(f).min())
    for k in np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] > 0.0)):
        dist = min(dist, _polish_minimum(ifo, med, float(omegas[k]),
                                         float(omegas[k + 1])))
    return min(dist, 1.0 - level), (lo, hi)


def classify_system(ifo: IfoParams, med: MediumParams,
                    margin: float = 1.0) -> StabilityReport:
    """Stability verdict for the full interferometer-plus-medium loop.

    Medium-level instabilities are reported before any loop quantity is
    computed. For a stationary medium the verdict is the Nyquist
    winding about (1, 0), counted in closed form from the crossings of
    the ray [1, inf) inside the gain window: zero means stable,
    anything else is an optical (loop) instability. The closest
    approach to (1, 0) is searched only where |r_s G_o| is near or
    above 1; elsewhere it is reported as the bound 1 - level (see
    _closest_approach). An approach within 1e-9 raises
    MarginalStabilityError; within 1e-6 the report is flagged marginal.
    """
    med_class = med_mod.classify_medium(med, margin=margin)
    if med_class is MediumClass.ATOMIC_INSTABILITY:
        return StabilityReport(Classification.ATOMIC_INSTABILITY, 0, math.inf,
                               (0.0, 0.0))
    if med_class is MediumClass.NON_STATIONARY:
        return StabilityReport(Classification.NON_STATIONARY, 0, math.inf,
                               (0.0, 0.0))
    _require_damped(med)
    if ifo.srm_amplitude_reflectivity == 0.0:
        # the open loop is cut: the contour is the origin itself
        return StabilityReport(Classification.STABLE, 0, 1.0, (0.0, 0.0))

    dist, omega_range = _closest_approach(ifo, med)
    if dist < MARGINAL_ERROR_DISTANCE:
        raise MarginalStabilityError(
            f"Nyquist contour passes within {dist:.3e} of (1, 0)")
    winding = _ray_crossings(ifo, med)
    classification = (Classification.STABLE if winding == 0
                      else Classification.OPTICAL_INSTABILITY)
    return StabilityReport(classification, winding, dist, omega_range,
                           marginal=dist < MARGINAL_FLAG_DISTANCE)


# ---------------------------------------------------------------------------
# argument-principle oracle
# ---------------------------------------------------------------------------

def _loop_denominator_and_derivative(ifo: IfoParams, med: MediumParams, w):
    """F = 1 - r_s G_o and dF/domega at complex frequency w."""
    rs = ifo.srm_amplitude_reflectivity
    tau = ifo.tau
    gamma = med.gamma_opt_total
    base = gamma - med.gamma12
    den_p = 1j * (w + med.delta0) + base
    den_m = 1j * (w - med.delta0) + base
    m = 1.0 - gamma / den_p - gamma / den_m
    dm = 1j * gamma * (1.0 / den_p**2 + 1.0 / den_m**2)
    delay = np.exp(2j * w * tau)
    f = 1.0 - rs * delay * m
    df = -rs * delay * (2j * tau * m + dm)
    return f, df


def _edge_integral(ifo: IfoParams, med: MediumParams, start: complex,
                   stop: complex, samples: int) -> tuple[complex, float]:
    """Integral of d log F along a straight edge from dense samples.

    Segments are bisected, for at most 40 rounds or up to 2^22 samples,
    until F changes by less than half a radian in phase and half a unit
    in log magnitude across each of them, which concentrates samples
    around zeros lying near the edge. On such a partition the
    per-segment integral of the logarithmic derivative is the
    principal-value log difference, so the sum is exact up to the
    no-phase-wrap resolution of the partition. Also returns the minimum
    |F| encountered.
    """
    w = np.linspace(start, stop, samples)
    f, _ = _loop_denominator_and_derivative(ifo, med, w)
    for _ in range(40):
        ratio = f[1:] / f[:-1]
        big = (np.abs(np.angle(ratio)) >= 0.5) | (np.abs(np.log(np.abs(ratio))) >= 0.5)
        if not big.any() or w.size >= 2**22:
            break
        idx = np.nonzero(big)[0]
        w_mid = 0.5 * (w[idx] + w[idx + 1])
        f_mid, _ = _loop_denominator_and_derivative(ifo, med, w_mid)
        w = np.insert(w, idx + 1, w_mid)
        f = np.insert(f, idx + 1, f_mid)
    value = complex(np.log(f[1:] / f[:-1]).sum())
    return value, float(np.abs(f).min())


def root_count_oracle(ifo: IfoParams, med: MediumParams,
                      rect: tuple[float, float, float, float] | None = None) -> int:
    """Zeros of 1 - r_s G_o inside a rectangle of the upper half plane.

    Counts via (1 / 2 pi i) of the contour integral of the logarithmic
    derivative, evaluated from adaptively refined dense sampling along
    the rectangle edges; the result must land within 0.01 of a
    nonnegative integer, and the telescoping real part of the closed
    log integral must vanish. Independent from the Nyquist contour
    machinery.

    rect is (re_lo, re_hi, im_lo, im_hi); the default covers
    [-omega_max, omega_max] x [0, 10 max-rate].
    """
    _require_damped(med)
    tau = ifo.tau
    if rect is None:
        omega_max = default_omega_max(med, tau)
        height = 10.0 * max(med.delta0, med.gamma12, med.gamma_opt_total, 1.0 / tau)
        rect = (-omega_max, omega_max, 0.0, height)
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi and im_lo >= 0.0):
        raise ValueError(f"rectangle {rect} must lie in the upper half plane")

    turns = (re_hi - re_lo) * tau / math.pi
    n_horiz = int(min(max(1024, 8 * turns), 2**20))
    n_vert = 256

    corners = [re_lo + 1j * im_lo, re_hi + 1j * im_lo,
               re_hi + 1j * im_hi, re_lo + 1j * im_hi]
    total = 0.0 + 0.0j
    min_f = math.inf
    for k in range(4):
        samples = n_horiz if k % 2 == 0 else n_vert
        value, edge_min = _edge_integral(
            ifo, med, corners[k], corners[(k + 1) % 4], samples)
        total += value
        min_f = min(min_f, edge_min)
    if min_f < 1e-9:
        raise MarginalStabilityError(
            f"zero of the loop denominator on the contour (|F| = {min_f:.3e})")
    count = total / (2j * math.pi)
    value = float(np.real(count))
    nearest = round(value)
    if abs(value - nearest) > 0.01 or abs(float(np.imag(count))) > 0.01:
        raise AccuracyError(
            f"root-counting integral {count:.4f} is not close to an integer",
            best_estimate=value)
    if nearest < 0:
        raise AccuracyError(
            f"negative zero count {nearest}; contour orientation broken",
            best_estimate=value)
    return int(nearest)

