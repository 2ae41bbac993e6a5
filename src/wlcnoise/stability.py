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
search with closed-form derivatives where a floor on |F| over it
(_polish_floor) does not show that it cannot lower the report.
classify_system takes the verdicts of many configurations (a survey
row) from a few array calls, and those of one configuration from the
same closed forms on Python floats (_FloatMath), sampling its own near
window, with the same bits.
nyquist_contour samples the whole contour for output and as a
reference, bisecting it wherever a segment turns by pi/2 or more about
(1, 0). An independent argument-principle oracle counts the same zeros
by integrating the logarithmic derivative of 1 - r_s G_o around a
rectangle in the upper half plane; on one symmetric about Re w = 0 it
integrates the right half only, since F(-conj w) = conj F(w) bit for
bit, the symmetry _closed_contour and _ray_crossings use too. Both
references take their frequency range from one place, _omega_range,
which passes the gain window. One closed-form bound, _quiet_reach,
says where |r_s G_o| < 1: there the oracle takes a piece of its
rectangle as one exact segment, and _omega_range skips the gain window. Both references seed their
real lines with _axis_nodes and refine in one segment pool,
_bisect_pool, each with its own test. Inside, the arm delay tau is the
time unit: rates are times tau, frequencies w = omega tau, and _Loop.of
is the one place that multiplies by tau.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import medium as med_mod
from .errors import AccuracyError, MarginalStabilityError
from .interferometer import IfoParams
from .medium import MediumClass, MediumParams
from .numerics import _ROW_SAMPLES

__all__ = [
    "Classification",
    "StabilityReport",
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
_NEAR_CLUSTER = _PEAK_CLUSTER[::4]  # those of the near windows' samples
# the clusters about -delta0 and +delta0, then the node 0, of _axis_nodes:
# width * _PEAK_NODES + delta0 * _PEAK_SIGNS
_PEAK_NODES = np.concatenate([_PEAK_CLUSTER, _PEAK_CLUSTER, [0.0]])
_PEAK_SIGNS = np.concatenate([np.full(241, -1.0), np.ones(241), [0.0]])


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


class _Loop(NamedTuple):
    """Parameters of the loop r_s G_o, rates in units of 1/tau, as floats
    or as equal-length arrays with one element per configuration (or
    per sample)."""

    rs: float | np.ndarray
    delta0: float | np.ndarray
    gap: float | np.ndarray  # gamma12 - Gamma
    gamma: float | np.ndarray

    @classmethod
    def of(cls, ifo: IfoParams, med: MediumParams) -> "_Loop":
        tau = ifo.tau
        return cls(ifo.srm_amplitude_reflectivity, med.delta0 * tau,
                   med.damping_gap * tau, med.gamma_opt_total * tau)

    @classmethod
    def stack(cls, loops: Sequence["_Loop"]) -> "_Loop":
        return cls(*map(np.array, zip(*loops)))


def _rate_scale(loop: _Loop) -> float:
    """The largest rate scale of a damped loop: max(delta0, gamma12, 1)."""
    return max(loop.delta0, loop.gap + loop.gamma, 1.0)


_UNDAMPED = ("medium is on the lasing threshold (gamma12 == gamma_opt_total); "
             "the loop poles lie on the real frequency axis")


def _require_damped(med: MediumParams) -> None:
    """Loop poles sit on the real axis when the damping gap closes."""
    if med.damping_gap <= 0.0:
        raise MarginalStabilityError(_UNDAMPED)


def _uniform_count(lo: float, hi: float) -> int:
    """8 nodes per delay turn of [lo, hi], at least 1024 (AccuracyError beyond MAX_SAMPLES)."""
    turns = (hi - lo) / math.pi
    if 8.0 * turns > MAX_SAMPLES:
        raise AccuracyError(f"the range spans {turns:.3g} delay turns; "
                            f"8 samples per turn exceed {MAX_SAMPLES}")
    return max(1024, int(8.0 * turns))


def _axis_nodes(loop: _Loop, lo: float, hi: float, reach: float,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """Start nodes of a contour reference on the real segment [lo, hi].

    Of count uniform nodes (_uniform_count), those within +-reach, plus
    the nearest one outside on either side (only these are built, by
    index, as np.linspace builds them), merged in order with the
    clusters +-delta0 + max(gap, 1e-3 delta0) * _PEAK_CLUSTER about the
    gain peaks and the node 0, where they lie between the kept ends, and
    with lo and hi where they lie beyond them. There zeros close to the
    axis would otherwise hide a whole turn between two uniform nodes: at
    the peaks, and at the white-light point omega = 0 inside [lo, hi]
    (an asymmetric oracle rectangle; the contour and a folded rectangle
    start there), where uniform nodes symmetric about 0 would leave one
    segment from -h to h whose ends have equal |F|, since F(-omega) =
    conj F(omega). A repeated node only adds a segment whose ratio is
    exactly 1. Returns the nodes and which of their segments are quiet:
    those to lo and hi where they were added, which lie beyond the
    reach.
    """
    step = (hi - lo) / (count - 1)

    def place(x: float) -> float:  # x's place among the uniform nodes, clamped to them
        return min(max((x - lo) / step, 0.0), count - 1.0)

    # the nodes from a guard node before -reach to one after reach
    start = max(math.floor(place(-reach)) - 1, 0)
    stop = min(math.ceil(place(reach)) + 1, count - 1)
    uniform = np.arange(start, stop + 1) * step + lo
    if stop == count - 1:
        uniform[-1] = hi
    first = max(uniform.searchsorted(-reach, side="right") - 1, 0)
    last = min(uniform.searchsorted(reach), uniform.size - 1)
    kept = uniform[first:last + 1]
    start, stop = kept[0], kept[-1]
    head, tail = bool(start > lo), bool(stop < hi)
    peaks = max(loop.gap, 1e-3 * loop.delta0) * _PEAK_NODES + loop.delta0 * _PEAK_SIGNS
    nodes = np.concatenate([kept, peaks[(peaks > start) & (peaks < stop)],
                            [lo] * head + [hi] * tail])
    nodes.sort()
    quiet = np.zeros(nodes.size - 1, dtype=bool)
    quiet[0] = head
    quiet[-1] |= tail
    return nodes, quiet


def _bisect_pool(evaluate: Callable, test: Callable, w: np.ndarray, f: np.ndarray,
                 what: str, settled: np.ndarray | None = None) -> tuple[list, list, list]:
    """Bisect the segments of the polyline through the nodes w, with
    values f = evaluate(w), until test passes every one.

    test(fa, fb) takes the end values of some segments and returns which
    of them fail, and a tuple of new arrays (none or more) with a term
    per segment, each summed over the passing segments (a failing one's
    term is set to 0). Settled segments pass untested. The segments
    share one pool: each round tests only the halves the last round
    made, and evaluate takes all their midpoints in one call. Returns
    the lists of the nodes and values evaluated, w and f first, and the
    list of sums. Raises AccuracyError, naming what, when segments still
    fail after 40 rounds, or once the pool has held MAX_SAMPLES segments.
    """
    nodes, values = [w], [f]
    a, b, fa, fb = w[:-1], w[1:], f[:-1], f[1:]
    split, terms = test(fa, fb)
    if settled is not None:
        split[settled] = False
    total = [0.0] * len(terms)
    segments = w.size - 1
    for rounds in range(41):
        idx = split.nonzero()[0]
        for term in terms:
            term[idx] = 0.0
        total = [t + term.sum() for t, term in zip(total, terms)]
        if not idx.size:
            return nodes, values, total
        a, b, fa, fb = a[idx], b[idx], fa[idx], fb[idx]
        if rounds == 40 or segments >= MAX_SAMPLES:
            raise AccuracyError(f"{idx.size} {what} after {rounds} rounds "
                                f"({segments} segments)")
        segments += idx.size
        mid = 0.5 * (a + b)
        f_mid = evaluate(mid)
        nodes.append(mid)
        values.append(f_mid)
        # the halves [a, mid] and [mid, b], as two views of one array each
        ends, f_ends = np.concatenate([a, mid, b]), np.concatenate([fa, f_mid, fb])
        n = idx.size
        a, b, fa, fb = ends[:2 * n], ends[n:], f_ends[:2 * n], f_ends[n:]
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


def _quiet_reach(loop: _Loop, y: float) -> float:
    """The |Re w| beyond which |r_s G_o| < 1 on the line Im w = y >= 0.

    There |e^{2 i w}| = e^{-2 y}, and the denominators d_pm =
    i(w +- delta0) - gap of M have |d_pm| >= sqrt((y + gap)^2 + s^2), s
    the distance of Re w from the nearer gain peak +-delta0, so
    |r_s G_o| <= c (1 + 2 Gamma / sqrt((y + gap)^2 + s^2)) with c =
    r_s e^{-2 y}. That bound is below 1 where the square root
    exceeds the radius 2 Gamma c / (1 - c): at every |Re w| >= the
    returned reach, and on the whole line where the reach is 0 (the
    radius is below y + gap). The radius and the reach are both grown
    by 1e-9 against rounding. On a quiet piece |F - 1| < 1, so Re F > 0
    and F cannot wind.
    """
    c = loop.rs * math.exp(-2.0 * y)
    radius = 2.0 * loop.gamma * c / (1.0 - c) * (1.0 + 1e-9)
    low = y + loop.gap
    if radius < low:
        return 0.0
    return (loop.delta0 + math.sqrt((radius - low) * (radius + low))) * (1.0 + 1e-9)


def _omega_range(loop: _Loop) -> float:
    """Upper end of the frequency range both contour references cover.

    w_max, 50 times _rate_scale, or twice the upper end hi of the gain
    window |r_s G_o| > 1 when the window reaches that limit. The window
    is not computed where the real axis is quiet from below w_max on
    (_quiet_reach at y = 0): it then ends before w_max.
    """
    w_max = 50.0 * _rate_scale(loop)
    if _quiet_reach(loop, 0.0) >= w_max:
        hi = _gain_window(loop, 1.0, _FloatMath)[1]
        if hi >= w_max:
            return 2.0 * hi
    return w_max


def _loop_gain(loop: _Loop, w):
    """r_s G_o at complex frequencies w, with M = 1 - Gamma (1/(u + i delta0)
    + 1/(u - i delta0)), u = i w - gap, as one fraction in v = -i u = w + i gap."""
    v = w + 1j * loop.gap
    rs_m = loop.rs - (2j * loop.rs * loop.gamma) * v / (loop.delta0 * loop.delta0 - v * v)
    return np.exp(2j * w) * rs_m


def nyquist_contour(ifo: IfoParams, med: MediumParams) -> np.ndarray:
    """Closed image of r_s G_o along the real axis plus the closing arc.

    Samples w = omega tau in [0, _omega_range], from _axis_nodes with no
    reach. Beyond that range |r_s G_o| < 1, so the dropped tail and the
    closing chord through the origin cannot wind about (1, 0).
    _bisect_pool bisects every segment that turns by pi/2 or more about
    (1, 0), and every evaluated point is kept, in omega order. Requires a
    stationary medium, whose response poles then lie in the lower half
    plane. The returned polyline starts and ends at the omega = 0 point
    (real) and is traversed with omega increasing.
    """
    if med_mod.classify_medium(med) is not MediumClass.STATIONARY:
        raise ValueError("Nyquist contour requires a stationary medium")
    _require_damped(med)
    loop = _Loop.of(ifo, med)

    def evaluate(w: np.ndarray) -> np.ndarray:
        z = _loop_gain(loop, w)
        if np.any(z == CRITICAL_POINT):
            raise MarginalStabilityError("contour passes exactly through (1, 0)")
        return z

    hi = _omega_range(loop)
    w = _axis_nodes(loop, 0.0, hi, math.inf, _uniform_count(0.0, hi))[0]
    w, z, _ = _bisect_pool(evaluate, _turn_test, w, evaluate(w),
                           "contour segments still turn by pi/2 or more about (1, 0)")
    w, z = np.concatenate(w), np.concatenate(z)
    return _closed_contour(z[np.argsort(w, kind="stable")])


class _FloatMath:
    """NumPy's calls in the closed forms below, on Python floats, which
    skip the fixed cost of one-element arrays. The window ends are the
    same bits; math.atan, atan2 and hypot at times differ from NumPy's in
    the last bit, but only whole turns of the phase reach a report, and a
    polish floor only decides which polishes run."""

    maximum, minimum, sqrt, copysign = max, min, math.sqrt, math.copysign
    float_power, arctan, arctan2, floor = math.pow, math.atan, math.atan2, math.floor
    hypot = math.hypot

    @staticmethod
    def where(condition, a, b):
        return a if condition else b


def _gain_window(loop: _Loop, level, xp=np):
    """Frequencies w >= 0 where |r_s G_o(w)| > level, as (lo, hi).

    With g = gamma12 - Gamma, M = num / (den_+ den_-) where
    num = -w^2 - 2i(g + Gamma) w + c0 and
    den_+ den_- = -w^2 - 2i g w + e0, so |r_s M|^2 > level^2 is
    a quadratic inequality in y = w^2 whose leading coefficient
    r_s^2 - level^2 is negative for level > r_s: the set is one interval
    in y, mirrored onto w < 0. Rates are scaled by their largest
    before squaring, and the roots in y are taken stably: the larger in
    magnitude from q = -(b + sign(b) sqrt(disc)) / 2, the other from the
    root product. Elementwise on arrays (xp=np), broadcasting loop
    against level, or on floats (xp=_FloatMath); (0, 0) where the set is
    empty or a single point (a discriminant within 1e-10 of the larger
    of b^2 and |4ac|).
    """
    scale = xp.maximum(xp.maximum(loop.delta0, loop.gap), loop.gamma)
    d, g, gam = loop.delta0 / scale, loop.gap / scale, loop.gamma / scale
    c0 = d * d + g * g + 2.0 * gam * g
    e0 = d * d + g * g
    r2, l2 = loop.rs * loop.rs, level * level
    # r2 [(c0 - y)^2 + 4 (g + Gamma)^2 y] - l2 [(e0 - y)^2 + 4 g^2 y] > 0;
    # float_power squares with the C library's pow, as float ** 2 does,
    # where an array's ** 2 multiplies and at times differs in the last bit
    a = r2 - l2
    b = (r2 * (4.0 * xp.float_power(g + gam, 2.0) - 2.0 * c0)
         - l2 * (4.0 * g * g - 2.0 * e0))
    c = r2 * c0 * c0 - l2 * e0 * e0
    b2, ac4 = b * b, 4.0 * a * c
    disc = b2 - ac4
    found = disc > 1e-10 * xp.maximum(b2, abs(ac4))
    q = xp.where(found, -0.5 * (b + xp.copysign(xp.sqrt(xp.maximum(disc, 0.0)), b)), 1.0)
    y1, y2 = q / a, c / q
    y_hi = xp.maximum(y1, y2)
    found &= y_hi > 0.0  # and zeroes both ends where it is false
    lo = xp.sqrt(xp.maximum(xp.minimum(y1, y2), 0.0) * found) * scale
    hi = xp.sqrt(xp.maximum(y_hi, 0.0) * found) * scale
    return lo, hi


def _loop_phase_turns(loop: _Loop, w, xp=np):
    """Continuous phase of G_o at real w >= 0, in turns, 0 at w = 0.

    The phase is 2 w + arg num - arg den_+ - arg den_- on
    branches that never jump on the real axis: arg den_pm =
    pi - atan((w +- delta0) / g), and arg num = pi + the args of
    w - r_k for the two roots r_k = -i(g + Gamma) +- sqrt(delta0^2 -
    Gamma^2) of num, which lie in the lower half plane, so each
    w - r_k stays in the upper one. Elementwise, broadcasting loop
    against w, on arrays or floats as _gain_window.
    """
    g, gam, d = loop.gap, loop.gamma, loop.delta0
    h = g + gam
    # sqrt(delta0^2 - Gamma^2) where real, else the size of the imaginary one
    s = xp.sqrt(abs((d - gam) * (d + gam)))
    # h - s from the product (h - s)(h + s) = c0, free of cancellation
    arg_num = xp.where(d >= gam,
                       xp.arctan2(h, w - s) + xp.arctan2(h, w + s),
                       xp.arctan2((d * d + g * g + 2.0 * gam * g) / (h + s), w)
                       + xp.arctan2(h + s, w))
    phase = (2.0 * w + arg_num - math.pi
             + xp.arctan((w + d) / g) + xp.arctan((w - d) / g))
    return phase / (2.0 * math.pi)


def _ray_crossings(loop: _Loop, lo, hi, xp=np):
    """Winding of r_s G_o about (1, 0) as signed crossings of [1, inf).

    A crossing needs |r_s G_o| > 1, so it lies in the gain window
    [lo, hi] of _gain_window at level 1; there the signed count is
    floor(phase(hi)) - floor(phase(lo)) in turns, and the conjugate half
    w < 0 adds as many. A window starting at w = 0 is one
    interval symmetric about zero that crosses the ray at w = 0
    itself, where G_o = M(0) > 0. Elementwise, on arrays or floats as
    _gain_window; 0 where the window is empty. The count is a float.
    """
    turns_lo = xp.floor(_loop_phase_turns(loop, lo, xp))
    turns_hi = xp.floor(_loop_phase_turns(loop, hi, xp))
    crossings = xp.where(lo == 0.0, 2.0 * turns_hi + 1.0, 2.0 * (turns_hi - turns_lo))
    return xp.where(hi > 0.0, crossings, 0.0)


def _loop_series(loop: _Loop, w, exp=np.exp, _terms=3):
    """F = 1 - r_s G_o and its first two w-derivatives at real w.

    With G_o = e^{k w} M, k = 2 i, and M = 1 - Gamma (1/d_+ + 1/d_-) for
    d_pm = i(w +- delta0) - g, each derivative of M is a sum of powers
    of 1/d_pm. w holds an array (exp=np.exp), or a float (exp=cmath.exp,
    which keeps the Newton steps in plain Python); loop holds floats, or
    arrays like w. _terms=2 stops after F and F', which are the same
    bits as the first two of the three.
    """
    gam, g, k = loop.gamma, loop.gap, 2j
    inv_p = 1.0 / (1j * (w + loop.delta0) - g)
    inv_m = 1.0 / (1j * (w - loop.delta0) - g)
    inv_p2, inv_m2 = inv_p * inv_p, inv_m * inv_m
    m = 1.0 - gam * (inv_p + inv_m)
    dm = 1j * gam * (inv_p2 + inv_m2)
    e, km = -loop.rs * exp(k * w), k * m
    if _terms == 2:
        return 1.0 + e * m, e * (km + dm)
    ddm = 2.0 * gam * (inv_p2 * inv_p + inv_m2 * inv_m)
    return 1.0 + e * m, e * (km + dm), e * (k * (km + 2.0 * dm) + ddm)


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


def _polish_floor(loop: _Loop, a, b, fa, fb, xp=np):
    """A floor on |F| over each real bracket [a, b] whose ends have |F| =
    fa and fb, as _quiet_reach bounds |r_s G_o|: there |d_pm| >= D_pm =
    hypot(s_pm, gap), s_pm the distance of [a, b] from -+delta0, so |F'| =
    r_s |2i M + M'| <= L = r_s (2 (1 + Gamma (1/D_+ + 1/D_-)) + Gamma
    (1/D_+^2 + 1/D_-^2)) and |F| >= (fa + fb - L (b - a)) / 2, here moved
    down by 1e-9 of each term and by 1e-12 against rounding. Elementwise,
    broadcasting loop against the brackets, as _gain_window."""
    d = loop.delta0
    inv_p = 1.0 / xp.hypot(xp.maximum(xp.maximum(a + d, -d - b), 0.0), loop.gap)
    inv_m = 1.0 / xp.hypot(xp.maximum(xp.maximum(a - d, d - b), 0.0), loop.gap)
    lip = loop.rs * (2.0 * (1.0 + loop.gamma * (inv_p + inv_m))
                     + loop.gamma * (inv_p * inv_p + inv_m * inv_m))
    return 0.5 * ((fa + fb) * (1.0 - 1e-9) - lip * (b - a) * (1.0 + 1e-9)) - 1e-12


def _near_samples(loop: _Loop, lo, hi, xp=np) -> tuple:
    """The sample rule of the near windows [lo, hi]: 33 points plus 16
    per delay turn, spaced as np.linspace spaces them, joined by the
    peak nodes delta0 + max(gap, 1e-3 delta0) * _NEAR_CLUSTER inside.
    Returns the point counts (an int on floats, xp=_FloatMath, else a
    float each) and the peak nodes (in order on floats, else a row
    each). classify_system samples no window of more than MAX_SAMPLES
    points."""
    turns = (hi - lo) / math.pi
    width = xp.maximum(loop.gap, 1e-3 * loop.delta0)
    if xp is _FloatMath:
        return 33 + math.floor(16.0 * turns), loop.delta0 + width * _NEAR_CLUSTER
    return 33 + np.floor(16.0 * turns), (loop.delta0 + width * _NEAR_CLUSTER[:, None]).T


def _merge_samples(owner: np.ndarray, w: np.ndarray, peak_owner: np.ndarray,
                   peak_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples (owner, w) and the peak nodes (peak_owner, peak_w),
    each in (owner, w) order, merged in the order a stable
    np.lexsort((w, owner)) gives them joined, a peak node after an equal
    sample: complex numbers compare as (real, imag) pairs, and np.insert
    keeps values bound for one place in order."""
    at = np.searchsorted(owner + 1j * w, peak_owner + 1j * peak_w, "right")
    return np.insert(owner, at, peak_owner), np.insert(w, at, peak_w)


def _descents(f: np.ndarray, df: np.ndarray, omegas: np.ndarray,
              loop_of: Callable[[int], _Loop]) -> np.ndarray:
    """Which sample intervals d|F|/domega turns over from negative to
    positive. Where a slope is 0 (at omega = 0, by symmetry) the
    curvature stands in, from the float series of loop_of(k), the
    configuration of sample k, so it is the same bits alone and in a row."""
    slope = (f.conj() * df).real
    for k in (slope == 0.0).nonzero()[0].tolist():
        fk, dfk, ddfk = _loop_series(loop_of(k), float(omegas[k]), cmath.exp)
        slope[k] = abs(dfk) ** 2 + (fk.conjugate() * ddfk).real
    return (slope[:-1] < 0.0) & (slope[1:] > 0.0)


def _closest_approach(loop: _Loop, lo, hi, level, xp=np):
    """Closest approach of r_s G_o to (1, 0), for the configuration of
    the floats in loop (xp=_FloatMath), or for every configuration of
    the arrays in loop at once.

    Only the near window [lo, hi] where |r_s G_o| >= level is searched;
    everywhere else the distance exceeds 1 - level, which is returned
    instead when the window is empty (hi = 0) or the approach is
    farther. |F| = |1 - r_s G_o| and its slope are sampled as
    _near_samples says (each window within MAX_SAMPLES points), in one
    array call: one configuration's own window, or a row's windows
    joined, whole configurations at a time up to _ROW_SAMPLES samples
    (a configuration with more is a call of its own), which bounds a
    row's memory. A sample interval over which d|F|/domega turns from
    negative to positive (_descents) is polished by _polish_minimum
    unless its _polish_floor (a chunk's in one array call, one
    configuration's on floats) lies above both the distance so far and
    1 - level, since a polish never returns less than it. Searching
    omega >= 0 suffices because the other half is the complex conjugate.
    """
    if xp is _FloatMath:
        if hi == 0.0:
            return 1.0 - level
        counts, peak = _near_samples(loop, lo, hi, xp)
        omegas = np.arange(counts) * ((hi - lo) / (counts - 1)) + lo
        omegas[-1] = hi
        # the peak nodes are in order: those inside are one slice
        first, stop = peak.searchsorted(lo, "right"), peak.searchsorted(hi)
        if first < stop:
            omegas = np.concatenate([omegas, peak[first:stop]])
            omegas.sort()
        f, df = _loop_series(loop, omegas, _terms=2)
        mod, bound = abs(f), 1.0 - level
        dist = float(mod.min())
        for k in _descents(f, df, omegas, lambda _: loop).nonzero()[0].tolist():
            (a, b), (fa, fb) = omegas[k:k + 2].tolist(), mod[k:k + 2].tolist()
            if _polish_floor(loop, a, b, fa, fb, xp) <= min(dist, bound):
                dist = min(dist, _polish_minimum(loop, a, b))
        return min(dist, bound)
    counts, peak = _near_samples(loop, lo, hi)
    counts = counts.astype(int) * (hi > 0.0)
    inside = (peak > lo[:, None]) & (peak < hi[:, None])
    dist = np.full(counts.size, math.inf)
    bounds = np.broadcast_to(1.0 - level, dist.shape).tolist()
    floats = list(zip(*(p.tolist() for p in loop)))
    sizes = (counts + inside.sum(axis=1)).tolist()
    start = 0
    while start < counts.size:
        # the next configurations up to _ROW_SAMPLES samples, the first
        # one whatever its size, and any with no samples
        stop, held = start, 0
        while stop < counts.size and (not held or not sizes[stop]
                                      or held + sizes[stop] <= _ROW_SAMPLES):
            held += sizes[stop]
            stop += 1
        part = slice(start, stop)
        n, ends = counts[part], counts[part].cumsum()
        owner = np.arange(n.size).repeat(n)
        step = (hi[part] - lo[part]) / np.maximum(n - 1, 1)
        omegas = (np.arange(ends[-1]) - (ends - n)[owner]) * step[owner] + lo[part][owner]
        searched = n > 0
        omegas[ends[searched] - 1] = hi[part][searched]
        owner, omegas = _merge_samples(owner + start, omegas, inside[part].nonzero()[0] + start,
                                       peak[part][inside[part]])

        f, df = _loop_series(_Loop(*(p[owner] for p in loop)), omegas, _terms=2)
        mod = abs(f)
        np.minimum.at(dist, owner, mod)
        descents = _descents(f, df, omegas, lambda k: _Loop(*floats[owner[k]]))
        ks = (descents & (owner[:-1] == owner[1:])).nonzero()[0]
        owners = owner[ks]
        floors = _polish_floor(_Loop(*(p[owners] for p in loop)), omegas[ks],
                               omegas[ks + 1], mod[ks], mod[ks + 1])
        for k, c, floor in zip(ks.tolist(), owners.tolist(), floors.tolist()):
            if floor <= min(dist[c], bounds[c]):
                dist[c] = min(dist[c], _polish_minimum(_Loop(*floats[c]), float(omegas[k]),
                                                       float(omegas[k + 1])))
        start = stop
    return np.minimum(dist, 1.0 - level)


def classify_system(ifo: IfoParams | Sequence[IfoParams],
                    med: MediumParams | Sequence[MediumParams]
                    ) -> StabilityReport | list[StabilityReport | Exception]:
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
    A near window that needs more than MAX_SAMPLES samples raises
    AccuracyError.

    ifo and med may also be equal-length sequences of detectors and
    media (a survey row): the call then returns a list holding each
    configuration's report, or the error it would raise, in its place.
    The lasing threshold, the open loop r_s = 0 and medium-level classes
    need no loop quantity; the others share the calls of the gain
    windows (at the near level of _closest_approach and at 1), the ray
    crossings and the closest approach. The closed forms run on arrays,
    or on floats for exactly one such configuration, whose report is
    the same bits alone or in a row.
    """
    single = isinstance(ifo, IfoParams)
    detectors, media = ((ifo,), (med,)) if single else (tuple(ifo), tuple(med))
    if len(detectors) != len(media):
        raise ValueError(f"{len(detectors)} detectors for {len(media)} media")
    verdicts: list = []
    for ifo, med in zip(detectors, media):
        med_class = med_mod.classify_medium(med)
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
    if looped:
        # one configuration takes the closed forms on floats, a row on arrays
        loops = [_Loop.of(detectors[i], media[i]) for i in looped]
        loop, xp = (loops[0], _FloatMath) if len(loops) == 1 else (_Loop.stack(loops), np)
        # the closest approach is searched where |r_s G_o| is above this level
        level = xp.maximum(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + loop.rs))
        near_lo, near_hi = _gain_window(loop, level, xp)
        windings = _ray_crossings(loop, *_gain_window(loop, 1.0, xp), xp)
        # a window beyond the sample cap of _near_samples is searched as empty
        turns = (near_hi - near_lo) / math.pi
        wide = 33 + 16.0 * turns > MAX_SAMPLES
        dist = _closest_approach(loop, xp.where(wide, 0.0, near_lo),
                                 xp.where(wide, 0.0, near_hi), level, xp)
        columns = (dist, near_lo, near_hi, windings, turns, wide)
        rows = [columns] if xp is _FloatMath else zip(*(column.tolist() for column in columns))
        for i, (d, lo, hi, winding, turn, too_wide) in zip(looped, rows):
            if too_wide:
                verdicts[i] = AccuracyError(f"the near window spans {turn:.3g} delay turns; "
                                            f"16 samples per turn exceed {MAX_SAMPLES}")
            elif d < MARGINAL_ERROR_DISTANCE:
                verdicts[i] = MarginalStabilityError(
                    f"Nyquist contour passes within {d:.3e} of (1, 0)")
            else:
                tau = detectors[i].tau
                verdicts[i] = StabilityReport(
                    Classification.STABLE if winding == 0 else Classification.OPTICAL_INSTABILITY,
                    int(winding), d, (lo / tau, hi / tau), marginal=d < MARGINAL_FLAG_DISTANCE)
    if not single:
        return verdicts
    if isinstance(verdicts[0], Exception):
        raise verdicts[0]
    return verdicts[0]


# ---------------------------------------------------------------------------
# argument-principle oracle
# ---------------------------------------------------------------------------

def _loop_denominator(loop: _Loop, w):
    """F = 1 - r_s G_o at complex frequencies w; MarginalStabilityError
    when a sample has |F| < 1e-9, before any ratio of samples is formed."""
    f = 1.0 - _loop_gain(loop, w)
    min_f = np.abs(f).min()
    if min_f < 1e-9:
        raise MarginalStabilityError(
            f"zero of the loop denominator on the contour (|F| = {min_f:.3e})")
    return f


_QUIET = np.ones(1, dtype=bool)  # the flag of an edge that is one quiet segment
_SIDE = np.zeros(255, dtype=bool)  # the flags of a side's 256 nodes


def _log_test(fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The oracle's test: a segment fails where F turns by half a radian
    or more, or its log modulus changes by half a unit or more; its term
    is the principal log of F(end) / F(start), as its real and imaginary
    parts (np.log of a complex array is many times slower)."""
    ratio = fb / fa
    log_mod, arg = np.log(np.abs(ratio)), np.arctan2(ratio.imag, ratio.real)
    return np.maximum(np.abs(log_mod), np.abs(arg)) >= 0.5, (log_mod, arg)


def _rectangle_integral(loop: _Loop, rect: tuple[float, float, float, float]) -> complex:
    """Integral of d log F once counterclockwise around rect.

    Where _quiet_reach proves |r_s G_o| < 1, Re F > 0, so the principal
    log of the ratio F(end) / F(start) of a quiet segment is the exact
    integral along it. A horizontal edge on a line whose reach is 0 is
    quiet, the others come from _axis_nodes with the line's reach; a
    side whose bottom corner lies beyond the bottom line's reach is
    quiet (the bound falls as y grows), and a side that is not holds 256
    nodes. F on all nodes comes from one call; the other segments go to
    _bisect_pool with _log_test. The sum is exact up to the no-phase-wrap
    resolution of the partition.

    A rectangle symmetric about Re w = 0 is folded: since F(-conj w) =
    conj F(w), its left half adds -conj P to the sum P along its right
    half, the path i im_lo -> re_hi + i im_lo -> re_hi + i im_hi ->
    i im_hi, so the integral is P - conj P = 2i Im P. Its real edges keep
    the full rectangle's spacing, from half its uniform nodes (rounded
    up), and F at the path's ends, on Re w = 0, must be real
    (AccuracyError). Any other rectangle is one closed polyline.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    count = _uniform_count(re_lo, re_hi)  # even where both lines are quiet
    folded = re_lo == -re_hi
    if folded:
        re_lo, count = 0.0, (count + 1) // 2
    reach, top_reach = _quiet_reach(loop, im_lo), _quiet_reach(loop, im_hi)
    # counterclockwise from the corner re_lo + i im_lo, each edge as its
    # nodes but the last, which starts the next edge, and its segments'
    # flags; a quiet edge is its first corner and one quiet segment
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi)])
    edges = [(corners[k:k + 1], _QUIET) for k in range(4)]
    if reach > 0.0:
        nodes, quiet = _axis_nodes(loop, re_lo, re_hi, reach, count)
        edges[0] = nodes[:-1] + 1j * im_lo, quiet
    if top_reach > 0.0:
        nodes, quiet = _axis_nodes(loop, re_lo, re_hi, top_reach, count)
        edges[2] = nodes[:0:-1] + 1j * im_hi, quiet[::-1]
    if abs(re_hi) < reach:
        edges[1] = (re_hi + 1j * np.linspace(im_lo, im_hi, 256))[:-1], _SIDE
    if folded:  # the half path ends at its top-left corner, on Re w = 0
        edges, end = edges[:3], corners[3:]
    else:  # the closed polyline ends at its start
        if abs(re_lo) < reach:
            edges[3] = (re_lo + 1j * np.linspace(im_lo, im_hi, 256))[:0:-1], _SIDE
        end = corners[:1]
    w = np.concatenate([nodes for nodes, _ in edges] + [end])
    quiet = np.concatenate([q for _, q in edges])
    f = _loop_denominator(loop, w)
    if folded and (f[0].imag != 0.0 or f[-1].imag != 0.0):
        raise AccuracyError(f"F is not real at the folded path's ends on Re w = 0: "
                            f"{complex(f[0])}, {complex(f[-1])}")
    total = complex(*_bisect_pool(
        lambda mid: _loop_denominator(loop, mid), _log_test, w, f,
        "oracle segments still turn by half a radian or half a unit of log|F|",
        settled=quiet)[2])
    return 2j * total.imag if folded else total


def root_count_oracle(ifo: IfoParams, med: MediumParams,
                      rect: tuple[float, float, float, float] | None = None) -> int:
    """Zeros of 1 - r_s G_o inside a rectangle of the upper half plane.

    Counts via (1 / 2 pi i) of the contour integral of the logarithmic
    derivative along the rectangle edges (_rectangle_integral): a piece
    where a closed-form bound keeps |r_s G_o| below 1 is one exact
    segment, the rest is sampled with adaptive refinement. A rectangle
    symmetric about Re w = 0, as the default one is, is integrated along
    its right half only, and F must be real at that path's two ends on
    Re w = 0; on any other rectangle the telescoping real part of the
    closed log integral must vanish. The result must land within 0.01
    of a nonnegative integer. A sample with |F| < 1e-9 raises
    MarginalStabilityError. The count is independent from the Nyquist
    contour machinery; only the default range is shared.

    rect is (re_lo, re_hi, im_lo, im_hi) in rad/s, finite; the default
    covers [-w_max, w_max] x [0, 10 _rate_scale] in w = omega tau, w_max
    the range of nyquist_contour (_omega_range).
    """
    _require_damped(med)
    loop = _Loop.of(ifo, med)
    if rect is None:
        w_max = _omega_range(loop)
        rect_w = (-w_max, w_max, 0.0, 10.0 * _rate_scale(loop))
    else:
        re_lo, re_hi, im_lo, im_hi = rect
        if not (all(map(math.isfinite, rect)) and re_lo < re_hi and 0.0 <= im_lo < im_hi):
            raise ValueError(f"rect {rect} must be finite and lie in the upper half plane")
        rect_w = tuple(x * ifo.tau for x in rect)

    count = _rectangle_integral(loop, rect_w) / (2j * math.pi)
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
