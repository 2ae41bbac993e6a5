import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wlcnoise import stability
from wlcnoise.errors import AccuracyError, MarginalStabilityError, MediumNotStationaryError
from wlcnoise.interferometer import open_loop_gain, reference_detector
from wlcnoise.medium import (
    MediumClass,
    MediumParams,
    classify_medium,
    map_eta_xi,
    probe_transfer,
    solve_detuning,
)
from wlcnoise.numerics import accumulate_winding
from wlcnoise.stability import (
    NEAR_DISTANCE,
    Classification,
    classify_system,
    _closest_approach,
    _gain_window,
    _Loop,
    default_omega_max,
    nyquist_contour,
    root_count_oracle,
)

IFO = reference_detector(0.8)
BARE = MediumParams(gamma12=1.0 / IFO.tau, gamma_opt_total=0.0, delta0=0.0)


def wlc_medium(eta, xi, root):
    gamma12, gamma_opt = map_eta_xi(eta, xi, IFO.tau)
    roots = solve_detuning(gamma12, gamma_opt, IFO.tau)
    index = 0 if root == "smaller" else -1
    return MediumParams(gamma12, gamma_opt, roots[index])


# frozen verdicts for media classified during development; the
# independent root-counting oracle agrees on every one of them
KNOWN_VERDICTS = [
    # (eta, xi, root, rs2, winding)
    (0.4, 0.4, "smaller", 0.5, 0),
    (0.4, 0.4, "smaller", 0.8, 1),
    (0.4, 0.1, "smaller", 0.8, 1),
    (0.4, 0.1, "larger", 0.5, 0),
    (0.4, 0.1, "larger", 0.7, 2),
    (0.4, 0.1, "larger", 0.8, 2),
    # the same medium is stable again at a higher reflectivity: the
    # verdict is not monotonic in r_s
    (0.4, 0.1, "larger", 0.9, 0),
]


def test_open_loop_degenerate():
    ifo = replace(IFO, srm_amplitude_reflectivity=0.0)
    report = classify_system(ifo, wlc_medium(0.4, 0.1, "larger"))
    assert report.classification is Classification.STABLE
    assert report.winding == 0
    contour = nyquist_contour(ifo, wlc_medium(0.4, 0.1, "larger"))
    assert np.abs(contour).max() == 0.0


def test_bare_medium_circle():
    contour = nyquist_contour(IFO, BARE)
    rs = IFO.srm_amplitude_reflectivity
    assert np.abs(contour).max() <= rs + 1e-12
    report = classify_system(IFO, BARE)
    assert report.classification is Classification.STABLE
    assert report.winding == 0


def test_medium_level_precedence():
    lasing = MediumParams(1.0 / IFO.tau, 2.0 / IFO.tau, 1.0 / IFO.tau)
    report = classify_system(IFO, lasing)
    assert report.classification is Classification.ATOMIC_INSTABILITY

    beating = MediumParams(1.0 / IFO.tau, 0.999 / IFO.tau, 0.01 / IFO.tau)
    report = classify_system(IFO, beating)
    assert report.classification is Classification.NON_STATIONARY

    with pytest.raises(MediumNotStationaryError):
        nyquist_contour(IFO, lasing)


@pytest.mark.parametrize("eta,xi,root,rs2,winding", KNOWN_VERDICTS)
def test_known_verdicts_and_oracle(eta, xi, root, rs2, winding):
    med = wlc_medium(eta, xi, root)
    ifo = IFO.with_power_reflectivity(rs2)
    report = classify_system(ifo, med)
    assert report.winding == winding
    expected = (Classification.STABLE if winding == 0
                else Classification.OPTICAL_INSTABILITY)
    assert report.classification is expected
    assert root_count_oracle(ifo, med) == winding


def test_contour_is_closed_and_conjugate_symmetric():
    med = wlc_medium(0.4, 0.4, "smaller")
    contour = nyquist_contour(IFO, med)
    assert contour[0] == pytest.approx(contour[-1], abs=1e-12)
    assert abs(contour[0].imag) < 1e-12  # starts on the real axis


def test_contour_refinement_contract():
    # every returned segment subtends less than pi/2 about the critical
    # point, so a plain winding pass over the polyline is trustworthy
    for eta, xi, root in ((0.4, 0.4, "smaller"), (0.4, 0.1, "larger"),
                          (0.9, 0.02, "larger")):
        contour = nyquist_contour(IFO, wlc_medium(eta, xi, root))
        w = contour - 1.0
        increments = np.abs(np.angle(w[1:] / w[:-1]))
        assert increments.max() < 0.5 * np.pi


def test_marginal_contact_raises():
    med = wlc_medium(0.4, 0.3, "smaller")
    m0 = probe_transfer(med, 0.0).real
    ifo = replace(IFO, srm_amplitude_reflectivity=1.0 / m0)
    with pytest.raises(MarginalStabilityError):
        classify_system(ifo, med)


def test_lasing_threshold_is_marginal():
    # gamma12 == gamma_opt_total puts the loop poles on the real axis
    threshold = MediumParams(0.1 / IFO.tau, 0.1 / IFO.tau, 1.0 / IFO.tau)
    with pytest.raises(MarginalStabilityError):
        classify_system(IFO, threshold)
    with pytest.raises(MarginalStabilityError):
        root_count_oracle(IFO, threshold)


def test_report_fields():
    # omega_range_used is the searched near window on omega >= 0, whose
    # ends sit where |r_s G_o| crosses the near level
    med = wlc_medium(0.4, 0.4, "smaller")
    report = classify_system(IFO, med)
    lo, hi = report.omega_range_used
    assert 0.0 <= lo < hi < default_omega_max(med, IFO.tau)
    rs = IFO.srm_amplitude_reflectivity
    level = max(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + rs))
    ends = np.abs(rs * open_loop_gain(IFO, med, np.array([lo, hi])))
    if lo == 0.0:
        assert ends[0] >= level
        ends = ends[1:]
    assert ends == pytest.approx(level, rel=1e-9)
    assert 0.0 < report.min_distance_to_critical <= 1.0 - level
    assert not report.stable


def test_report_fields_empty_near_window():
    # a contour that never nears |z| = 1 is not searched at all, and the
    # reported distance is the bound 1 - level
    report = classify_system(IFO, BARE)
    assert report.omega_range_used == (0.0, 0.0)
    rs = IFO.srm_amplitude_reflectivity
    level = max(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + rs))
    assert report.min_distance_to_critical == pytest.approx(1.0 - level)
    assert report.stable


@pytest.mark.parametrize("ifo,med", [
    (IFO.with_power_reflectivity(0.8),
     wlc_medium(0.6273469387755102, 0.1571428571428571, "larger")),
    (IFO, BARE),
])
def test_report_field_types(ifo, med):
    # plain Python scalars: summary.json cannot serialize NumPy ones
    report = classify_system(ifo, med)
    assert type(report.marginal) is bool
    assert type(report.min_distance_to_critical) is float


# ---------------------------------------------------------------------------
# closest approach against a dense reference
# ---------------------------------------------------------------------------

def dense_closest_approach(ifo, med, samples=200_001, rounds=4):
    """Closest approach of r_s G_o to (1, 0) on the near window, from a
    dense uniform sampling of |1 - r_s G_o|; every sampled local minimum
    is then zoomed by resampling 1001 points across its two neighbours.
    Used only here, as the oracle for the exact search."""
    rs = ifo.srm_amplitude_reflectivity
    level = max(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + rs))
    lo, hi = map(float, _gain_window(_Loop.of(ifo, med), level))
    if hi == 0.0:
        return 1.0 - level
    omegas = np.linspace(lo, hi, samples)
    dist = np.abs(1.0 - rs * open_loop_gain(ifo, med, omegas))
    padded = np.concatenate([[np.inf], dist, [np.inf]])
    k = np.flatnonzero((dist <= padded[:-2]) & (dist <= padded[2:]))
    best = float(dist.min())
    a = omegas[np.maximum(k - 1, 0)]
    b = omegas[np.minimum(k + 1, samples - 1)]
    rows = np.arange(k.size)
    for _ in range(rounds):
        zoom = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 1001)
        near = np.abs(1.0 - rs * open_loop_gain(ifo, med, zoom))
        best = min(best, float(near.min()))
        center = zoom[rows, near.argmin(axis=1)]
        step = (b - a) / 1000.0
        a, b = np.maximum(center - step, lo), np.minimum(center + step, hi)
    return min(best, 1.0 - level)


@settings(max_examples=100, deadline=None)
@given(eta=st.floats(0.02, 0.98), xi_share=st.floats(0.01, 1.0),
       larger_root=st.booleans(), rs2=st.floats(0.05, 0.95))
def test_closest_approach_matches_dense_reference(eta, xi_share, larger_root, rs2):
    ifo = IFO.with_power_reflectivity(rs2)
    gamma12, gamma_opt = map_eta_xi(eta, xi_share * eta, ifo.tau)
    roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
    assume(roots)
    med = MediumParams(gamma12, gamma_opt, roots[-1] if larger_root else roots[0])
    assume(classify_medium(med) is MediumClass.STATIONARY)
    loop = _Loop.stack([_Loop.of(ifo, med)])
    level = max(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + loop.rs[0]))
    (dist,) = _closest_approach(loop, *_gain_window(loop, level), level)
    # |1 - r_s G_o| is known only to a few ulps of 1, which bounds the
    # agreement of two evaluations where the contour nearly touches
    assert dist == pytest.approx(dense_closest_approach(ifo, med),
                                 rel=1e-9, abs=2e-15)


@pytest.mark.parametrize("eta,xi,rs2,root,distance,stable", [
    # the window starts at omega = 0, where the slope vanishes, and the
    # minimum (omega ~ 787 rad/s) lies before the first sample; chords
    # between samples pass inside the curve here (a refined polyline
    # reads 3.919e-3)
    (0.6273469387755102, 0.1571428571428571, 0.8, "larger", 4.465641643e-3, True),
    # the closest approach on the 50x50 survey grid, not marginal
    (0.7057142857142857, 0.41183673469387755, 0.9, "smaller", 4.795696172e-6, False),
])
def test_closest_approach_pinned(eta, xi, rs2, root, distance, stable):
    ifo = IFO.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, root)
    report = classify_system(ifo, med)
    assert report.min_distance_to_critical == pytest.approx(distance, rel=1e-9)
    assert report.min_distance_to_critical == pytest.approx(
        dense_closest_approach(ifo, med), rel=1e-9)
    assert report.stable is stable
    assert not report.marginal


def test_verdict_never_refines_a_polyline(monkeypatch):
    # the verdict and its closest approach come from closed forms and a
    # Newton search; the refined polyline serves nyquist_contour only
    def refuse(*args, **kwargs):
        raise AssertionError("classify_system refined a polyline")

    monkeypatch.setattr(stability, "_refine_curve", refuse)
    ifo = IFO.with_power_reflectivity(0.8)
    searched = 0
    for eta in np.linspace(0.1, 0.9, 5):
        for xi in np.linspace(0.1, float(eta), 3):
            gamma12, gamma_opt = map_eta_xi(float(eta), float(xi), ifo.tau)
            for delta0 in solve_detuning(gamma12, gamma_opt, ifo.tau):
                report = classify_system(ifo, MediumParams(gamma12, gamma_opt, delta0))
                searched += report.omega_range_used != (0.0, 0.0)
    assert searched >= 5
    with pytest.raises(AssertionError, match="refined a polyline"):
        nyquist_contour(ifo, wlc_medium(0.4, 0.4, "smaller"))


@pytest.mark.parametrize("rs2", [0.5, 0.8, 0.9, 0.95, 0.999])
def test_ray_crossings_match_sampled_contour(rs2):
    # the closed-form crossing count against the winding of the fully
    # sampled contour, which stays as the reference for the fast path;
    # at high reflectivity the gain window can pass the default range,
    # and the contour must then extend beyond it
    ifo = IFO.with_power_reflectivity(rs2)
    grid = np.linspace(0.05, 0.95, 7)
    windings = set()
    extended = 0
    for eta in grid:
        for xi in grid:
            gamma12, gamma_opt = map_eta_xi(float(eta), float(xi), ifo.tau)
            for delta0 in solve_detuning(gamma12, gamma_opt, ifo.tau):
                med = MediumParams(gamma12, gamma_opt, delta0)
                report = classify_system(ifo, med)
                if report.classification in (Classification.ATOMIC_INSTABILITY,
                                             Classification.NON_STATIONARY):
                    continue
                assert report.winding == round(
                    accumulate_winding(nyquist_contour(ifo, med), 1.0) / (2.0 * math.pi))
                windings.add(report.winding)
                hi = _gain_window(_Loop.of(ifo, med), 1.0)[1]
                extended += bool(hi >= default_omega_max(med, ifo.tau))
    if rs2 < 0.999:
        assert {0, 1, 2, 3} <= windings
    else:
        # every stationary configuration of this slice winds an odd
        # number of times, and some gain windows pass the default range
        assert len(windings) >= 4
        assert extended >= 1


@pytest.mark.parametrize("eta,xi,winding", [(0.8, 0.35, 39), (0.95, 0.05, 99)])
def test_oracle_range_passes_the_gain_window(eta, xi, winding):
    # at rs^2 0.999 these gain windows pass default_omega_max; the
    # oracle's default rectangle covers the contour's range, so its
    # count is the winding (a rectangle ending at default_omega_max
    # counts 35 and 79)
    ifo = IFO.with_power_reflectivity(0.999)
    med = wlc_medium(eta, xi, "larger")
    assert _gain_window(_Loop.of(ifo, med), 1.0)[1] > default_omega_max(med, ifo.tau)
    assert classify_system(ifo, med).winding == winding
    assert root_count_oracle(ifo, med) == winding


@settings(max_examples=500, deadline=None)
@given(log_gamma12=st.floats(-4.0, 4.0), share=st.floats(0.0, 1.0, exclude_max=True),
       log_delta0=st.floats(-4.0, 4.0), log_loss=st.floats(-6.0, 0.0))
def test_omega_range_bound_keeps_the_window_inside(log_gamma12, share, log_delta0,
                                                    log_loss):
    # _omega_range skips the gain window where r_s (1 + 2 Gamma /
    # (omega_max - delta0)) < 1: there the window must end before
    # default_omega_max
    gamma12 = 10.0 ** log_gamma12 / IFO.tau
    med = MediumParams(gamma12, share * gamma12, 10.0 ** log_delta0 / IFO.tau)
    ifo = replace(IFO, srm_amplitude_reflectivity=1.0 - 10.0 ** log_loss)
    omega_max = default_omega_max(med, ifo.tau)
    bound = 1.0 + 2.0 * med.gamma_opt_total / (omega_max - med.delta0)
    assume(ifo.srm_amplitude_reflectivity * bound < 1.0)
    assert _gain_window(_Loop.of(ifo, med), 1.0)[1] < omega_max
    assert stability._omega_range(ifo, med) == omega_max


def test_row_verdicts_match_classify_system():
    # the row form against one classify_system call per
    # configuration, on a slice with rs^2 = 0, empty near windows, a
    # repeated root and a margin above 1 that makes some media
    # non-stationary
    margin = 1.5
    configs = []
    repeated = 0
    for eta in (0.05, 0.2, 0.4, 0.7, 0.9):
        for xi in (0.02, 0.05, 0.2, 0.4):
            gamma12, gamma_opt = map_eta_xi(eta, xi, IFO.tau)
            roots = solve_detuning(gamma12, gamma_opt, IFO.tau)
            repeated += len(roots) == 1
            configs += [(IFO.with_power_reflectivity(rs2), MediumParams(gamma12, gamma_opt, d))
                        for d in roots for rs2 in (0.0, 0.5, 0.9)]
    seen = set()
    for (ifo, med), verdict in zip(configs, stability._verdicts(configs, margin),
                                   strict=True):
        rs = ifo.srm_amplitude_reflectivity
        try:
            report = classify_system(ifo, med, margin=margin)
        except MarginalStabilityError as exc:
            assert type(verdict) is MarginalStabilityError
            assert str(verdict) == str(exc)
            continue
        # a configuration's report does not move by a bit inside a row
        assert verdict == report
        if report.classification is Classification.NON_STATIONARY:
            seen.add("non-stationary by the margin"
                     if classify_medium(med) is MediumClass.STATIONARY else "non-stationary")
            continue
        seen.add(report.classification)
        seen.add("open loop" if rs == 0.0 else
                 "empty near window" if report.omega_range_used == (0.0, 0.0)
                 else "near window")
    assert repeated >= 1
    assert seen >= {"non-stationary by the margin", "open loop", "empty near window", "near window",
                    Classification.STABLE, Classification.OPTICAL_INSTABILITY}


# ---------------------------------------------------------------------------
# root-counting oracle specifics
# ---------------------------------------------------------------------------

def test_oracle_bare_medium_zero():
    assert root_count_oracle(IFO, BARE) == 0
    rect = (-2.0 * default_omega_max(BARE, IFO.tau),
            2.0 * default_omega_max(BARE, IFO.tau),
            0.0, 20.0 / IFO.tau)
    assert root_count_oracle(IFO, BARE, rect=rect) == 0


@pytest.mark.parametrize("eta,xi,root,rs2,winding", KNOWN_VERDICTS)
def test_oracle_denominator_matches_loop_series(eta, xi, root, rs2, winding):
    # the oracle and the verdict code F = 1 - r_s G_o independently:
    # the two must agree on the real axis, here over the default range
    # and a cluster at the gain peak
    ifo = IFO.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, root)
    omega_max = default_omega_max(med, ifo.tau)
    omegas = np.concatenate([np.linspace(-omega_max, omega_max, 20001),
                             med.delta0 + med.damping_gap * np.linspace(-30.0, 30.0, 241)])
    oracle = stability._loop_denominator(ifo, med, omegas)
    series = stability._loop_series(_Loop.of(ifo, med), omegas)[0]
    assert np.all(np.abs(oracle - series) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))


def test_oracle_rejects_bad_rectangle():
    with pytest.raises(ValueError):
        root_count_oracle(IFO, BARE, rect=(1.0, -1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        root_count_oracle(IFO, BARE, rect=(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="rect"):
        root_count_oracle(IFO, BARE, rect=(-math.inf, 1e5, 0.0, 1e4))
    with pytest.raises(ValueError, match="rect"):
        root_count_oracle(IFO, BARE, rect=(-1e5, 1e5, 0.0, math.inf))


def test_oracle_zero_on_contour_raises():
    # test_marginal_contact_raises's medium: F(0) = 0 lies on the lower
    # edge of the default rectangle, and no ratio may divide by it
    med = wlc_medium(0.4, 0.3, "smaller")
    ifo = replace(IFO, srm_amplitude_reflectivity=1.0 / probe_transfer(med, 0.0).real)
    with pytest.raises(MarginalStabilityError, match="on the contour"):
        root_count_oracle(ifo, med)


def test_oracle_sample_cap_raises():
    # 8 samples per delay turn along the real axis would exceed 2^20
    with pytest.raises(AccuracyError, match="delay turns"):
        root_count_oracle(IFO, BARE, rect=(-1e300, 1e300, 0.0, 1e4))


def quiet_bound(ifo, med, y):
    """Upper bound on |r_s G_o| along the line Im w = y >= 0."""
    return (ifo.srm_amplitude_reflectivity * np.exp(-2.0 * ifo.tau * y)
            * (1.0 + 2.0 * med.gamma_opt_total / (y + med.damping_gap)))


def reference_edges(ifo, med, rect):
    """The oracle's starting nodes, one array per edge in counterclockwise
    order, each from corner to corner: a horizontal edge on a line where
    the quiet bound is below 1/2 is its two corners, otherwise uniform
    with 8 nodes per delay turn (at least 1024), the bottom one merged
    with the clusters about +-delta0; a side keeps 256 nodes' spacing up
    to its first quiet node, then joins the top corner."""
    re_lo, re_hi, im_lo, im_hi = rect
    turns = (re_hi - re_lo) * ifo.tau / math.pi
    uniform = np.linspace(re_lo, re_hi, max(1024, int(8 * turns)))
    corners = np.array([re_lo, re_hi])
    bottom = corners if quiet_bound(ifo, med, im_lo) < 0.5 else uniform
    top = corners if quiet_bound(ifo, med, im_hi) < 0.5 else uniform
    if bottom is uniform:
        width = max(med.damping_gap, 1e-3 * med.delta0)
        peaks = np.concatenate([sign * med.delta0 + width * np.linspace(-30.0, 30.0, 241)
                                for sign in (-1.0, 1.0)])
        bottom = np.sort(np.concatenate([uniform, peaks[(peaks > re_lo) & (peaks < re_hi)]]))
    side = np.linspace(im_lo, im_hi, 256)
    quiet = quiet_bound(ifo, med, side) < 0.5
    if quiet.any():
        side = np.append(side[:np.argmax(quiet) + 1], im_hi)
    side = np.unique(side)
    return [bottom + 1j * im_lo, re_hi + 1j * side, top[::-1] + 1j * im_hi,
            re_lo + 1j * side[::-1]]


def reference_edge_integral(ifo, med, w):
    """Integral of d log F along one edge from the nodes w, bisecting the
    whole edge array each round: the per-edge form the segment pool of
    stability._rectangle_integral replaced, kept here as its reference.
    Returns the integral, the minimum |F|, and the edge's segment count
    at each round (the last one when no segment fails any more; 41
    counts when segments still fail after round 40)."""
    rs, tau = ifo.srm_amplitude_reflectivity, ifo.tau
    gamma, base = med.gamma_opt_total, med.gamma_opt_total - med.gamma12

    def loop_denominator(w):
        m = 1.0 - gamma / (1j * (w + med.delta0) + base) - gamma / (1j * (w - med.delta0) + base)
        return 1.0 - rs * np.exp(2j * w * tau) * m

    f = loop_denominator(w)
    segments = []
    for _ in range(41):
        segments.append(w.size - 1)
        ratio = f[1:] / f[:-1]
        big = (np.abs(np.angle(ratio)) >= 0.5) | (np.abs(np.log(np.abs(ratio))) >= 0.5)
        if not big.any():
            return complex(np.log(f[1:] / f[:-1]).sum()), float(np.abs(f).min()), segments
        idx = np.nonzero(big)[0]
        w_mid = 0.5 * (w[idx] + w[idx + 1])
        w = np.insert(w, idx + 1, w_mid)
        f = np.insert(f, idx + 1, loop_denominator(w_mid))
    return None, float(np.abs(f).min()), segments


def default_rect(ifo, med):
    """The oracle's default rectangle."""
    omega_max = stability._omega_range(ifo, med)
    height = 10.0 * max(med.delta0, med.gamma12, med.gamma_opt_total, 1.0 / ifo.tau)
    return -omega_max, omega_max, 0.0, height


def reference_root_count(ifo, med, rect, max_samples):
    """(zero count or exception type, raw integral) over rect, one edge
    at a time; the integral is None when the contour reached a limit:
    segments still failing after 40 rounds, or at a failing round whose
    four edges hold max_samples segments in all (the closed contour has
    as many nodes as segments)."""
    total, min_f, rounds = 0j, math.inf, []
    for w in reference_edges(ifo, med, rect):
        value, edge_min, segments = reference_edge_integral(ifo, med, w)
        rounds.append(segments)
        min_f = min(min_f, edge_min)
        total = None if value is None or total is None else total + value
    for r in range(max(map(len, rounds)) - 1):
        if sum(seg[min(r, len(seg) - 1)] for seg in rounds) >= max_samples:
            return AccuracyError, None
    if total is None:
        return AccuracyError, None
    if min_f < 1e-9:
        return MarginalStabilityError, total
    count = total / (2j * math.pi)
    nearest = round(count.real)
    if abs(count.real - nearest) > 0.01 or abs(count.imag) > 0.01 or nearest < 0:
        return AccuracyError, total
    return nearest, total


def pool_outcome(ifo, med, rect):
    """The oracle's count, or the type of the error it raises."""
    try:
        return root_count_oracle(ifo, med, rect)
    except (AccuracyError, MarginalStabilityError) as exc:
        return type(exc)


class StartingNodes(Exception):
    """Carries the nodes of the oracle's first evaluation of F."""


def starting_nodes(ifo, med, rect):
    """The closed polyline the pool starts from: its first F call's nodes."""
    def capture(ifo, med, w):
        raise StartingNodes(w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_loop_denominator", capture)
        with pytest.raises(StartingNodes) as info:
            stability._rectangle_integral(ifo, med, rect)
    return info.value.args[0]


def check_pool_against_reference(ifo, med, rect, max_samples):
    """The pool starts from the reference's nodes, and the two give the
    same count or error and the same integral to 1e-12 turns; a contour
    that reached a limit raises AccuracyError rather than summing its
    failing segments."""
    edges = reference_edges(ifo, med, rect)
    closed = np.concatenate([edges[0]] + [edge[1:] for edge in edges[1:]])
    assert np.array_equal(starting_nodes(ifo, med, rect), closed)
    expected, total = reference_root_count(ifo, med, rect, max_samples)
    outcome = pool_outcome(ifo, med, rect)
    assert outcome == expected
    if total is None:
        with pytest.raises(AccuracyError, match="still turn"):
            stability._rectangle_integral(ifo, med, rect)
    else:
        raw = stability._rectangle_integral(ifo, med, rect)
        assert abs(raw - total) / (2.0 * math.pi) <= 1e-12
    return outcome


@pytest.mark.parametrize("max_samples", [stability.MAX_SAMPLES, 1700])
def test_segment_pool_matches_per_edge_reference(monkeypatch, max_samples):
    # the pool bisects the same segments in the same rounds as the
    # per-edge form, so the nodes are the same and only the order of
    # summation differs. These contours start with 1,518 to 1,542 nodes
    # (the real edge alone holds 1,506); at rs^2 0.9 a round that still
    # fails holds 1,758 or more, at 0.8 and 0.5 at most 1,648, so a cap
    # of 1700 stops every rs^2 0.9 contour mid-refinement, which then
    # raises AccuracyError instead of summing segments that still fail
    monkeypatch.setattr(stability, "MAX_SAMPLES", max_samples)
    outcomes = []
    repeated = 0
    # xi == eta gives a repeated root
    for eta, xi in ((0.2, 0.05), (0.2, 0.2), (0.4, 0.05), (0.4, 0.4),
                    (0.7, 0.05), (0.7, 0.2), (0.7, 0.4)):
        gamma12, gamma_opt = map_eta_xi(eta, xi, IFO.tau)
        roots = solve_detuning(gamma12, gamma_opt, IFO.tau)
        repeated += len(roots) == 1
        for delta0 in roots:
            med = MediumParams(gamma12, gamma_opt, delta0)
            if classify_medium(med) is not MediumClass.STATIONARY:
                continue
            for rs2 in (0.5, 0.8, 0.9):
                ifo = IFO.with_power_reflectivity(rs2)
                outcomes.append(check_pool_against_reference(
                    ifo, med, default_rect(ifo, med), max_samples))
    assert repeated >= 1 and len(outcomes) == 36
    if max_samples == 1700:
        assert outcomes.count(AccuracyError) == 12
    else:
        assert AccuracyError not in outcomes and {0, 1, 2} <= set(outcomes)


# the three cells of tests/test_high_reflectivity.py: rs^2, eta, xi
HIGH_REFLECTIVITY = [(0.99, 0.865, 0.0026588446), (0.995, 0.86, 0.0013796037),
                     (0.997, 0.5888363636, 0.0024618032)]


def quiet_media():
    """(ifo, medium) of every KNOWN_VERDICTS row and high-reflectivity cell."""
    for eta, xi, root, rs2, _ in KNOWN_VERDICTS:
        yield IFO.with_power_reflectivity(rs2), wlc_medium(eta, xi, root)
    for rs2, eta, xi in HIGH_REFLECTIVITY:
        ifo = reference_detector(rs2)
        gamma12, gamma_opt = map_eta_xi(eta, xi, ifo.tau)
        yield ifo, MediumParams(gamma12, gamma_opt,
                                solve_detuning(gamma12, gamma_opt, ifo.tau)[-1])


@pytest.mark.parametrize("ifo,med", list(quiet_media()))
def test_quiet_edges_cannot_wind(ifo, med):
    # where the oracle starts from corners only, the default top edge
    # and each side above its first quiet node, |r_s G_o| sampled densely
    # stays below its bound and below 1/2, so no segment there can hide
    # a turn of F = 1 - r_s G_o
    re_lo, re_hi, _, im_hi = rect = default_rect(ifo, med)
    _, side, top, _ = reference_edges(ifo, med, rect)
    assert top.size == 2 and side.size < 256
    y_quiet = np.linspace(side[-2].imag, im_hi, 20_001)
    for w in (np.linspace(re_lo, re_hi, 200_001) + 1j * im_hi,
              re_hi + 1j * y_quiet, re_lo + 1j * y_quiet):
        gain = ifo.srm_amplitude_reflectivity * np.abs(open_loop_gain(ifo, med, w))
        assert np.all(gain <= quiet_bound(ifo, med, w.imag)) and gain.max() < 0.5
    # below the first quiet node the bound does not hold the gain down
    assert quiet_bound(ifo, med, side[-3].imag) >= 0.5


@pytest.mark.parametrize("eta,xi,root,rs2,height,zeros", [
    # a low top edge, where the gain can exceed 1/2, keeps uniform nodes;
    # the zero of this medium lies above it
    (0.4, 0.4, "smaller", 0.8, 0.003, 0),
    # the pair of zeros of this medium lies below it
    (0.4, 0.1, "larger", 0.8, 0.003, 2),
    # a raised bottom edge on a quiet line starts from its corners
    (0.4, 0.1, "larger", 0.8, -0.1, 0),
])
def test_custom_rectangle_matches_per_edge_reference(eta, xi, root, rs2, height, zeros):
    ifo = IFO.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, root)
    re_lo, re_hi, _, im_hi = default_rect(ifo, med)
    # height > 0: the top edge at that share of the default height;
    # height < 0: the bottom edge at minus that share
    rect = ((re_lo, re_hi, 0.0, height * im_hi) if height > 0
            else (re_lo, re_hi, -height * im_hi, im_hi))
    quiet = quiet_bound(ifo, med, np.array(rect[2:])) < 0.5
    assert quiet.tolist() == ([False, False] if height > 0 else [True, True])
    assert check_pool_against_reference(ifo, med, rect, stability.MAX_SAMPLES) == zeros


# Configurations of the benchmark's stability gate (reference detector,
# larger detuning root) where a real-edge seeding of 8 nodes per delay
# turn missed zeros within 2 to 35 rad/s of the real axis: six of the 26
# seed-0 cells at which the count read 1 against a winding of 0, and the
# three seed-1 cells at rs^2 0.5 whose upper-half-plane pair of zeros
# (imaginary parts +2.0, +17.6 and +34.8) it did not count
GATE_CELLS = [
    # eta, xi, rs^2, winding
    (0.21591836734693876, 0.11795918367346939, 0.9, 0),
    (0.25510204081632654, 0.13755102040816325, 0.8, 0),
    (0.2746938775510204, 0.13755102040816325, 0.8, 0),
    (0.43142857142857144, 0.09836734693877551, 0.9, 0),
    (0.6469387755102041, 0.05918367346938776, 0.9, 0),
    (0.7057142857142857, 0.05918367346938776, 0.9, 0),
    (0.3067140749866919, 0.01283652396628378, 0.5, 2),
    (0.3263059117213858, 0.01283652396628378, 0.5, 2),
    (0.3458977484560797, 0.01283652396628378, 0.5, 2),
]


@pytest.mark.parametrize("eta,xi,rs2,winding", GATE_CELLS)
def test_oracle_counts_the_winding_near_the_axis(eta, xi, rs2, winding):
    ifo = IFO.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, "larger")
    report = classify_system(ifo, med)
    assert report.winding == winding
    assert root_count_oracle(ifo, med) == report.winding


@pytest.mark.parametrize("rs2,grid_points", [
    (0.8, 6),   # acceptance reflectivity, denser slice
    (0.5, 4),
    (0.9, 4),
])
def test_grid_agreement_with_oracle(rs2, grid_points):
    # slices of the survey grid: verdicts must agree 1:1 with the
    # independent zero counter at every tested reflectivity
    ifo = IFO.with_power_reflectivity(rs2)
    grid = np.linspace(0.1, 0.9, grid_points)
    checked = 0
    for eta in grid:
        for xi in grid:
            gamma12, gamma_opt = map_eta_xi(float(eta), float(xi), ifo.tau)
            roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
            for delta0 in roots:
                med = MediumParams(gamma12, gamma_opt, delta0)
                report = classify_system(ifo, med)
                if report.classification in (Classification.ATOMIC_INSTABILITY,
                                             Classification.NON_STATIONARY):
                    continue
                checked += 1
                assert (root_count_oracle(ifo, med) == 0) == report.stable
    assert checked >= 5

