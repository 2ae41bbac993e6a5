"""Nyquist stability of the recycled loop with the gain medium.

The closed loop lases when 1 - r_s G_o(omega) has a zero in the upper
half of the complex frequency plane. With a stationary medium the open
loop gain G_o = e^{2 i omega tau} M(omega) is analytic there, so the
zero count equals the winding number of r_s G_o about the point (1, 0)
along the real axis closed through the decaying upper arc. That winding
is the signed count of crossings of the ray [1, inf), which can only
happen where |r_s G_o| > 1; they are counted in closed form inside
that gain window. The closest approach to (1, 0) is exact: the
distance |1 - r_s G_o| is sampled where |r_s G_o| is near 1, and each
sampled descent into a minimum is polished by a safeguarded Newton
search with closed-form derivatives. The closed forms and the sampler
are elementwise, and one routine, _verdicts, takes the verdicts of
many configurations (a survey row) from a few array calls;
classify_system is its call on one configuration. nyquist_contour
samples the whole contour for output and as a reference, bisecting it
wherever a segment turns by pi/2 or more about (1, 0). An independent
argument-principle oracle counts the same zeros by integrating the
logarithmic derivative of 1 - r_s G_o around a rectangle in the upper
half plane. Both references take their frequency range from one place,
_omega_range, which passes the gain window. One closed-form bound,
_quiet_reach, says where |r_s G_o| < 1: there the oracle takes a piece
of its rectangle as one exact segment, and _omega_range skips the gain
window. Both references seed their real lines with _axis_nodes and
refine in one segment pool, _bisect_pool, each with its own test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import medium as med_mod
from .errors import AccuracyError, MarginalStabilityError, MediumNotStationaryError
from .interferometer import IfoParams, open_loop_gain
from .medium import MediumClass, MediumParams

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
NEAR_DISTANCE = 0.1  # the closest approach is searched where |F| may be below it
MAX_SAMPLES = 2**22  # per sampled near window, and per contour reference
_PEAK_CLUSTER = np.linspace(-30.0, 30.0, 241)  # gain-peak offsets, in widths


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


_UNDAMPED = ("medium is on the lasing threshold (gamma12 == gamma_opt_total); "
             "the loop poles lie on the real frequency axis")


def _require_damped(med: MediumParams) -> None:
    """Loop poles sit on the real axis when the damping gap closes."""
    if med.damping_gap <= 0.0:
        raise MarginalStabilityError(_UNDAMPED)


def _uniform_count(ifo: IfoParams, lo: float, hi: float) -> int:
    """8 nodes per delay turn of [lo, hi], at least 1024 (AccuracyError beyond MAX_SAMPLES)."""
    turns = (hi - lo) * ifo.tau / math.pi
    if 8.0 * turns > MAX_SAMPLES:
        raise AccuracyError(f"the range spans {turns:.3g} delay turns; "
                            f"8 samples per turn exceed {MAX_SAMPLES}")
    return max(1024, int(8.0 * turns))


def _axis_nodes(ifo: IfoParams, med: MediumParams, lo: float, hi: float,
                reach: float) -> np.ndarray:
    """Start nodes of a contour reference on the real segment [lo, hi].

    The uniform nodes of _uniform_count within +-reach, plus the nearest
    one outside on either side, merged in order with the clusters
    +-delta0 + max(gap, 1e-3 delta0) * _PEAK_CLUSTER about the gain peaks
    that lie between the kept ends. There zeros close to the axis would
    otherwise hide a whole turn between two uniform nodes. A repeated
    node only adds a segment whose ratio is exactly 1.
    """
    uniform = np.linspace(lo, hi, _uniform_count(ifo, lo, hi))
    first = max(np.searchsorted(uniform, -reach, side="right") - 1, 0)
    last = min(np.searchsorted(uniform, reach), uniform.size - 1)
    kept = uniform[first:last + 1]
    width = max(med.damping_gap, 1e-3 * med.delta0)
    peaks = (np.array([[-med.delta0], [med.delta0]]) + width * _PEAK_CLUSTER).ravel()
    return np.sort(np.concatenate([kept, peaks[(peaks > kept[0]) & (peaks < kept[-1])]]))


def _bisect_pool(evaluate: Callable, test: Callable, w: np.ndarray, f: np.ndarray,
                 what: str, settled: np.ndarray | None = None) -> tuple[list, list, list]:
    """Bisect the segments of the polyline through the nodes w, with
    values f = evaluate(w), until test passes every one.

    test(fa, fb) takes the end values of some segments and returns which
    of them fail, and a tuple of arrays (none or more) with a term per
    segment, each summed over the passing segments. Settled segments
    pass untested. The segments share one pool: each round tests only
    the halves the last round made, and evaluate takes all their
    midpoints in one call. Returns the lists of the nodes and values
    evaluated, w and f first, and the list of sums. Raises AccuracyError,
    naming what, when segments still fail after 40 rounds, or once the
    pool has held MAX_SAMPLES segments.
    """
    nodes, values = [w], [f]
    a, b, fa, fb = w[:-1], w[1:], f[:-1], f[1:]
    split, terms = test(fa, fb)
    if settled is not None:
        split &= ~settled
    total = [0.0] * len(terms)
    segments = w.size - 1
    for rounds in range(41):
        if not split.any():
            return nodes, values, [t + term.sum() for t, term in zip(total, terms)]
        passed = ~split
        total = [t + term[passed].sum() for t, term in zip(total, terms)]
        a, b, fa, fb = a[split], b[split], fa[split], fb[split]
        if rounds == 40 or segments >= MAX_SAMPLES:
            raise AccuracyError(f"{a.size} {what} after {rounds} rounds "
                                f"({segments} segments)")
        segments += a.size
        mid = 0.5 * (a + b)
        f_mid = evaluate(mid)
        nodes.append(mid)
        values.append(f_mid)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa, f_mid]), np.concatenate([f_mid, fb])
        split, terms = test(fa, fb)


def _turn_test(za: np.ndarray, zb: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The contour's test: a segment fails where it turns by pi/2 or more
    about (1, 0). The contour sums no term."""
    turn = np.angle((zb - CRITICAL_POINT) / (za - CRITICAL_POINT))
    return np.abs(turn) >= 0.5 * math.pi, ()


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


def _quiet_reach(ifo: IfoParams, med: MediumParams, y: float) -> float:
    """The |Re w| beyond which |r_s G_o| < 1 on the line Im w = y >= 0.

    There |e^{2 i w tau}| = e^{-2 y tau}, and the denominators d_pm =
    i(w +- delta0) - gap of M have |d_pm| >= sqrt((y + gap)^2 + s^2), s
    the distance of Re w from the nearer gain peak +-delta0, so
    |r_s G_o| <= c (1 + 2 Gamma / sqrt((y + gap)^2 + s^2)) with c =
    r_s e^{-2 y tau}. That bound is below 1 where the square root
    exceeds the radius 2 Gamma c / (1 - c): at every |Re w| >= the
    returned reach, and on the whole line where the reach is 0 (the
    radius is below y + gap). The radius and the reach are both grown
    by 1e-9 against rounding. On a quiet piece |F - 1| < 1, so Re F > 0
    and F cannot wind.
    """
    c = ifo.srm_amplitude_reflectivity * math.exp(-2.0 * y * ifo.tau)
    radius = 2.0 * med.gamma_opt_total * c / (1.0 - c) * (1.0 + 1e-9)
    low = y + med.damping_gap
    if radius < low:
        return 0.0
    return (med.delta0 + math.sqrt((radius - low) * (radius + low))) * (1.0 + 1e-9)


def _omega_range(ifo: IfoParams, med: MediumParams) -> float:
    """Upper end of the frequency range both contour references cover.

    default_omega_max, or twice the upper end hi of the gain window
    |r_s G_o| > 1 when the window reaches that limit. The window is not
    computed where the real axis is quiet from below omega_max on
    (_quiet_reach at y = 0): it then ends before omega_max.
    """
    omega_max = default_omega_max(med, ifo.tau)
    if _quiet_reach(ifo, med, 0.0) >= omega_max:
        hi = float(_gain_window(_Loop.of(ifo, med), 1.0)[1])
        if hi >= omega_max:
            return 2.0 * hi
    return omega_max


def nyquist_contour(ifo: IfoParams, med: MediumParams) -> np.ndarray:
    """Closed image of r_s G_o along the real axis plus the closing arc.

    Samples omega in [0, _omega_range], from _axis_nodes with no reach.
    Beyond that range |r_s G_o| < 1, so the dropped tail and the closing
    chord through the origin cannot wind about (1, 0). _bisect_pool
    bisects every segment that turns by pi/2 or more about (1, 0), and
    every evaluated point is kept, in omega order. Requires a stationary
    medium, whose response poles then lie in the lower half plane. The
    returned polyline starts and ends at the omega = 0 point (real) and
    is traversed with omega increasing.
    """
    if med_mod.classify_medium(med) is not MediumClass.STATIONARY:
        raise MediumNotStationaryError(
            "Nyquist contour requires a stationary medium")
    _require_damped(med)

    def evaluate(omega: np.ndarray) -> np.ndarray:
        z = ifo.srm_amplitude_reflectivity * open_loop_gain(ifo, med, omega)
        if np.any(z == CRITICAL_POINT):
            raise MarginalStabilityError("contour passes exactly through (1, 0)")
        return z

    omegas = _axis_nodes(ifo, med, 0.0, _omega_range(ifo, med), math.inf)
    omegas, z, _ = _bisect_pool(evaluate, _turn_test, omegas, evaluate(omegas),
                                "contour segments still turn by pi/2 or more about (1, 0)")
    omegas, z = np.concatenate(omegas), np.concatenate(z)
    return _closed_contour(z[np.argsort(omegas, kind="stable")])


class _Loop(NamedTuple):
    """Parameters of the loop r_s G_o, as floats or as equal-length arrays
    with one element per configuration (or per sample)."""

    rs: float | np.ndarray
    tau: float | np.ndarray
    delta0: float | np.ndarray
    gap: float | np.ndarray  # gamma12 - Gamma
    gamma: float | np.ndarray

    @classmethod
    def of(cls, ifo: IfoParams, med: MediumParams) -> "_Loop":
        return cls(ifo.srm_amplitude_reflectivity, ifo.tau, med.delta0,
                   med.damping_gap, med.gamma_opt_total)

    @classmethod
    def stack(cls, loops: Sequence["_Loop"]) -> "_Loop":
        return cls(*map(np.array, zip(*loops)))


def _gain_window(loop: _Loop, level):
    """Frequencies omega >= 0 where |r_s G_o(omega)| > level, as (lo, hi).

    With g = gamma12 - Gamma, M = num / (den_+ den_-) where
    num = -omega^2 - 2i(g + Gamma) omega + c0 and
    den_+ den_- = -omega^2 - 2i g omega + e0, so |r_s M|^2 > level^2 is
    a quadratic inequality in y = omega^2 whose leading coefficient
    r_s^2 - level^2 is negative for level > r_s: the set is one interval
    in y, mirrored onto omega < 0. Rates are scaled by their largest
    before squaring, and the roots in y are taken stably: the larger in
    magnitude from q = -(b + sign(b) sqrt(disc)) / 2, the other from the
    root product. Elementwise, broadcasting loop against level; (0, 0)
    where the set is empty or a single point (a discriminant within
    1e-10 of the larger of b^2 and |4ac|).
    """
    scale = np.maximum(np.maximum(loop.delta0, loop.gap), loop.gamma)
    d, g, gam = loop.delta0 / scale, loop.gap / scale, loop.gamma / scale
    c0 = d * d + g * g + 2.0 * gam * g
    e0 = d * d + g * g
    r2, l2 = loop.rs * loop.rs, level * level
    # r2 [(c0 - y)^2 + 4 (g + Gamma)^2 y] - l2 [(e0 - y)^2 + 4 g^2 y] > 0;
    # float_power squares with the C library's pow, as float ** 2 does,
    # where an array's ** 2 multiplies and at times differs in the last bit
    a = r2 - l2
    b = (r2 * (4.0 * np.float_power(g + gam, 2.0) - 2.0 * c0)
         - l2 * (4.0 * g * g - 2.0 * e0))
    c = r2 * c0 * c0 - l2 * e0 * e0
    b2, ac4 = b * b, 4.0 * a * c
    disc = b2 - ac4
    found = disc > 1e-10 * np.maximum(b2, abs(ac4))
    q = np.where(found, -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b)), 1.0)
    y1, y2 = q / a, c / q
    y_hi = np.maximum(y1, y2)
    found &= y_hi > 0.0  # and zeroes both ends where it is false
    lo = np.sqrt(np.maximum(np.minimum(y1, y2), 0.0) * found) * scale
    hi = np.sqrt(np.maximum(y_hi, 0.0) * found) * scale
    return lo, hi


def _loop_phase_turns(loop: _Loop, omega):
    """Continuous phase of G_o at real omega >= 0, in turns, 0 at omega = 0.

    The phase is 2 omega tau + arg num - arg den_+ - arg den_- on
    branches that never jump on the real axis: arg den_pm =
    pi - atan((omega +- delta0) / g), and arg num = pi + the args of
    omega - r_k for the two roots r_k = -i(g + Gamma) +- sqrt(delta0^2 -
    Gamma^2) of num, which lie in the lower half plane, so each
    omega - r_k stays in the upper one. Elementwise, broadcasting loop
    against omega.
    """
    g, gam, d = loop.gap, loop.gamma, loop.delta0
    h = g + gam
    # sqrt(delta0^2 - Gamma^2) where real, else the size of the imaginary one
    s = np.sqrt(abs((d - gam) * (d + gam)))
    # h - s from the product (h - s)(h + s) = c0, free of cancellation
    arg_num = np.where(d >= gam,
                       np.arctan2(h, omega - s) + np.arctan2(h, omega + s),
                       np.arctan2((d * d + g * g + 2.0 * gam * g) / (h + s), omega)
                       + np.arctan2(h + s, omega))
    phase = (2.0 * omega * loop.tau + arg_num - math.pi
             + np.arctan((omega + d) / g) + np.arctan((omega - d) / g))
    return phase / (2.0 * math.pi)


def _ray_crossings(loop: _Loop, lo, hi):
    """Winding of r_s G_o about (1, 0) as signed crossings of [1, inf).

    A crossing needs |r_s G_o| > 1, so it lies in the gain window
    [lo, hi] of _gain_window at level 1; there the signed count is
    floor(phase(hi)) - floor(phase(lo)) in turns, and the conjugate half
    omega < 0 adds as many. A window starting at omega = 0 is one
    interval symmetric about zero that crosses the ray at omega = 0
    itself, where G_o = M(0) > 0. Elementwise; 0 where the window is
    empty.
    """
    turns_lo, turns_hi = np.floor(_loop_phase_turns(loop, np.stack([lo, hi])))
    crossings = np.where(lo == 0.0, 2.0 * turns_hi + 1.0, 2.0 * (turns_hi - turns_lo))
    return np.where(hi > 0.0, crossings, 0.0).astype(int)


def _loop_series(loop: _Loop, omega, exp=np.exp):
    """F = 1 - r_s G_o and its first two omega-derivatives at real omega.

    With G_o = e^{k omega} M, k = 2 i tau, and M = 1 - Gamma (1/d_+ +
    1/d_-) for d_pm = i(omega +- delta0) - g, each derivative of M is a
    sum of powers of 1/d_pm. omega and loop hold arrays (exp=np.exp) or
    floats (exp=cmath.exp, which keeps the Newton steps in plain Python).
    """
    gam, g = loop.gamma, loop.gap
    k = 2j * loop.tau
    inv_p = 1.0 / (1j * (omega + loop.delta0) - g)
    inv_m = 1.0 / (1j * (omega - loop.delta0) - g)
    m = 1.0 - gam * (inv_p + inv_m)
    dm = 1j * gam * (inv_p * inv_p + inv_m * inv_m)
    ddm = 2.0 * gam * (inv_p * inv_p * inv_p + inv_m * inv_m * inv_m)
    e = -loop.rs * exp(k * omega)
    return 1.0 + e * m, e * (k * m + dm), e * (k * (k * m + 2.0 * dm) + ddm)


def _polish_minimum(loop: _Loop, lo: float, hi: float) -> float:
    """Smallest |F| met by a safeguarded Newton search on [lo, hi].

    Seeks the zero of g = Re(conj(F) F') = d|F|^2/2 domega, which runs
    from negative at lo to positive at hi; a step that leaves the
    bracket or shrinks it too slowly is replaced by bisection. Stops
    once a step is within 1e-14 hi, some 50 ulps of omega. loop holds
    plain floats.
    """
    best = math.inf
    tol = 1e-14 * hi
    x, step_old = 0.5 * (lo + hi), hi - lo
    step = step_old
    for _ in range(100):
        f, df, ddf = _loop_series(loop, x, cmath.exp)
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


def _closest_approach(loop: _Loop, lo, hi, level):
    """Closest approach of r_s G_o to (1, 0), for every configuration of
    the arrays in loop at once.

    Only the near window [lo, hi] where |r_s G_o| >= level is searched;
    everywhere else the distance exceeds 1 - level, which is returned
    instead when the window is empty (hi = 0) or the approach is
    farther. |F| = |1 - r_s G_o| is sampled on every window in one array
    call: 16 points per delay turn, spaced as np.linspace spaces them,
    plus one per width of _PEAK_CLUSTER about the gain peak delta0
    (AccuracyError when a window needs more than MAX_SAMPLES). Every
    sample interval of a window over which d|F|/domega turns from
    negative to positive is polished to its minimum by _polish_minimum.
    At omega = 0 the slope vanishes by symmetry, so there the sign of
    the curvature stands in for it. Searching omega >= 0 suffices
    because the other half is the complex conjugate.
    """
    span = hi - lo
    turns = span * loop.tau / math.pi
    if 33 + 16.0 * turns.max() > MAX_SAMPLES:
        raise AccuracyError(f"the near window spans {turns.max():.3g} delay turns; "
                            f"16 samples per turn exceed {MAX_SAMPLES}")
    counts = (33 + (16.0 * turns).astype(int)) * (hi > 0.0)
    ends = counts.cumsum()
    owner = np.arange(counts.size).repeat(counts)
    step = span / np.maximum(counts - 1, 1)
    omegas = (np.arange(ends[-1]) - (ends - counts)[owner]) * step[owner] + lo[owner]
    searched = counts > 0
    omegas[ends[searched] - 1] = hi[searched]
    peak = (loop.delta0[:, None]
            + np.maximum(loop.gap, 1e-3 * loop.delta0)[:, None] * _PEAK_CLUSTER[::4])
    inside = (peak > lo[:, None]) & (peak < hi[:, None])
    owner = np.concatenate([owner, inside.nonzero()[0]])
    omegas = np.concatenate([omegas, peak[inside]])
    order = np.lexsort((omegas, owner))
    owner, omegas = owner[order], omegas[order]

    f, df, ddf = _loop_series(_Loop(*(p[owner] for p in loop)), omegas)
    slope = (f.conj() * df).real
    if (flat := np.flatnonzero(slope == 0.0)).size:
        slope[flat] = abs(df[flat]) ** 2 + (f[flat].conj() * ddf[flat]).real
    dist = np.full(counts.size, math.inf)
    np.minimum.at(dist, owner, abs(f))
    floats = list(zip(*(p.tolist() for p in loop)))
    for k in np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] > 0.0)
                            & (owner[:-1] == owner[1:])).tolist():
        c = owner[k]
        dist[c] = min(dist[c], _polish_minimum(_Loop(*floats[c]), float(omegas[k]),
                                               float(omegas[k + 1])))
    return np.minimum(dist, 1.0 - level)


def _verdicts(configs: Sequence[tuple[IfoParams, MediumParams]], margin: float = 1.0
              ) -> list[StabilityReport | MarginalStabilityError]:
    """Stability verdicts of many (ifo, medium) configurations at once.

    Each verdict is the report classify_system returns, or the
    MarginalStabilityError it raises. A medium-level class, the lasing
    threshold and the open loop r_s = 0 need no loop quantity. The
    other configurations share the array calls: both gain windows (at
    the near level of _closest_approach and at 1) in one, then the
    closest approach and the ray crossings.
    """
    verdicts: list = []
    for ifo, med in configs:
        med_class = med_mod.classify_medium(med, margin=margin)
        if med_class is not MediumClass.STATIONARY:
            verdicts.append(StabilityReport(Classification(med_class.value), 0, math.inf,
                                            (0.0, 0.0)))
        elif med.damping_gap <= 0.0:
            verdicts.append(MarginalStabilityError(_UNDAMPED))
        elif ifo.srm_amplitude_reflectivity == 0.0:
            # the open loop is cut: the contour is the origin itself
            verdicts.append(StabilityReport(Classification.STABLE, 0, 1.0, (0.0, 0.0)))
        else:
            verdicts.append(None)
    looped = [i for i, verdict in enumerate(verdicts) if verdict is None]
    if not looped:
        return verdicts
    loop = _Loop.stack([_Loop.of(*configs[i]) for i in looped])
    # the closest approach is searched where |r_s G_o| is above this level
    level = np.maximum(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + loop.rs))
    (near_lo, gain_lo), (near_hi, gain_hi) = _gain_window(
        loop, np.stack([level, np.ones_like(level)]))
    dist = _closest_approach(loop, near_lo, near_hi, level)
    windings = _ray_crossings(loop, gain_lo, gain_hi)
    # equal distances share one float: over half of them are a bound
    # 1 - level, and a retained survey keeps one per outcome
    shared: dict[float, float] = {}
    for i, d, lo, hi, winding in zip(looped, dist.tolist(), near_lo.tolist(),
                                     near_hi.tolist(), windings.tolist()):
        if d < MARGINAL_ERROR_DISTANCE:
            verdicts[i] = MarginalStabilityError(
                f"Nyquist contour passes within {d:.3e} of (1, 0)")
            continue
        classification = (Classification.STABLE if winding == 0
                          else Classification.OPTICAL_INSTABILITY)
        verdicts[i] = StabilityReport(classification, winding, shared.setdefault(d, d),
                                      (lo, hi), marginal=d < MARGINAL_FLAG_DISTANCE)
    return verdicts


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
    The verdict is the one _verdicts gives a one-element list.
    """
    (verdict,) = _verdicts([(ifo, med)], margin)
    if isinstance(verdict, MarginalStabilityError):
        raise verdict
    return verdict


# ---------------------------------------------------------------------------
# argument-principle oracle
# ---------------------------------------------------------------------------

def _loop_denominator(ifo: IfoParams, med: MediumParams, w):
    """F = 1 - r_s G_o at complex frequencies w; MarginalStabilityError
    when a sample has |F| < 1e-9, before any ratio of samples is formed."""
    # M = 1 - Gamma (1/(u + i delta0) + 1/(u - i delta0)), u = i w - gap,
    # as one fraction
    u = 1j * w - med.damping_gap
    m = 1.0 - 2.0 * med.gamma_opt_total * u / (u * u + med.delta0 * med.delta0)
    f = 1.0 - ifo.srm_amplitude_reflectivity * np.exp(2j * w * ifo.tau) * m
    min_f = np.abs(f).min()
    if min_f < 1e-9:
        raise MarginalStabilityError(
            f"zero of the loop denominator on the contour (|F| = {min_f:.3e})")
    return f


def _edge(ifo: IfoParams, med: MediumParams, lo: float, hi: float, y: float) -> tuple:
    """The oracle's nodes from lo to hi on the line Im w = y, ends
    included, and which of their segments are quiet: the whole line where
    _quiet_reach is 0, else the stretches beyond _axis_nodes to lo and hi.
    """
    reach = _quiet_reach(ifo, med, y)
    if reach == 0.0:  # Python lists: NumPy calls on two nodes cost more
        return [complex(lo, y), complex(hi, y)], [True]
    x = _axis_nodes(ifo, med, lo, hi, reach)
    head, tail = bool(x[0] > lo), bool(x[-1] < hi)
    quiet = np.zeros(x.size - 1 + head + tail, dtype=bool)
    quiet[0] = head
    quiet[-1] |= tail
    return np.concatenate([[lo] * head, x, [hi] * tail]) + 1j * y, quiet


def _log_test(fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The oracle's test: a segment fails where F turns by half a radian
    or more, or its log modulus changes by half a unit or more; its term
    is the principal log of F(end) / F(start), as its real and imaginary
    parts (np.log of a complex array is many times slower)."""
    ratio = fb / fa
    log_mod, arg = np.log(np.abs(ratio)), np.angle(ratio)
    return np.maximum(np.abs(log_mod), np.abs(arg)) >= 0.5, (log_mod, arg)


def _rectangle_integral(ifo: IfoParams, med: MediumParams,
                        rect: tuple[float, float, float, float]) -> complex:
    """Integral of d log F once counterclockwise around rect.

    The rectangle is one closed polyline. Where _quiet_reach proves
    |r_s G_o| < 1, Re F > 0, so the principal log of the ratio F(end) /
    F(start) of a quiet segment is the exact integral along it. The
    horizontal edges come from _edge; a side whose bottom corner lies
    beyond the bottom line's reach is quiet (the bound falls as y grows),
    and a side that is not holds 256 nodes. F on all nodes comes from one
    call, and the other segments go to _bisect_pool with _log_test. The
    sum is exact up to the no-phase-wrap resolution of the partition.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    _uniform_count(ifo, re_lo, re_hi)  # even where both lines are quiet
    reach = _quiet_reach(ifo, med, im_lo)
    bottom, top = (_edge(ifo, med, re_lo, re_hi, y) for y in (im_lo, im_hi))

    def side(re: float) -> tuple:
        if abs(re) >= reach:
            return [complex(re, im_lo), complex(re, im_hi)], [True]
        return re + 1j * np.linspace(im_lo, im_hi, 256), np.zeros(255, dtype=bool)

    # counterclockwise from the corner re_lo + i im_lo; each edge's last
    # node starts the next one
    edges = [bottom, side(re_hi), *((nodes[::-1], quiet[::-1])
                                    for nodes, quiet in (top, side(re_lo)))]
    w = np.concatenate([nodes[:-1] for nodes, _ in edges] + [bottom[0][:1]])
    quiet = np.concatenate([q for _, q in edges])
    return complex(*_bisect_pool(
        lambda mid: _loop_denominator(ifo, med, mid), _log_test, w,
        _loop_denominator(ifo, med, w),
        "oracle segments still turn by half a radian or half a unit of log|F|",
        settled=quiet)[2])


def root_count_oracle(ifo: IfoParams, med: MediumParams,
                      rect: tuple[float, float, float, float] | None = None) -> int:
    """Zeros of 1 - r_s G_o inside a rectangle of the upper half plane.

    Counts via (1 / 2 pi i) of the contour integral of the logarithmic
    derivative along the rectangle edges (_rectangle_integral): a piece
    where a closed-form bound keeps |r_s G_o| below 1 is one exact
    segment, the rest is sampled with adaptive refinement. The result
    must land within 0.01 of a nonnegative integer, and the telescoping
    real part of the closed log integral must vanish. A sample with
    |F| < 1e-9 raises MarginalStabilityError. The count is independent
    from the Nyquist contour machinery; only the default range is
    shared.

    rect is (re_lo, re_hi, im_lo, im_hi), finite; the default covers
    [-omega_max, omega_max] x [0, 10 max-rate], omega_max the range of
    nyquist_contour (_omega_range).
    """
    _require_damped(med)
    if rect is None:
        omega_max = _omega_range(ifo, med)
        height = 10.0 * max(med.delta0, med.gamma12, med.gamma_opt_total, 1.0 / ifo.tau)
        rect = (-omega_max, omega_max, 0.0, height)
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"rect {rect} must be finite")
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi and im_lo >= 0.0):
        raise ValueError(f"rectangle {rect} must lie in the upper half plane")

    count = _rectangle_integral(ifo, med, rect) / (2j * math.pi)
    value = count.real
    nearest = round(value)
    if abs(value - nearest) > 0.01 or abs(count.imag) > 0.01:
        raise AccuracyError(
            f"root-counting integral {count:.4f} is not close to an integer",
            best_estimate=value)
    if nearest < 0:
        raise AccuracyError(
            f"negative zero count {nearest}; contour orientation broken",
            best_estimate=value)
    return int(nearest)
