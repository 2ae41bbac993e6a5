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
from wlcnoise.numerics import winding_number
from wlcnoise.stability import (
    REFINE_NEAR_DISTANCE,
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
    level = max(1.0 - REFINE_NEAR_DISTANCE, 0.5 * (1.0 + rs))
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
    level = max(1.0 - REFINE_NEAR_DISTANCE, 0.5 * (1.0 + rs))
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
    level = max(1.0 - REFINE_NEAR_DISTANCE, 0.5 * (1.0 + rs))
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
    level = max(1.0 - REFINE_NEAR_DISTANCE, 0.5 * (1.0 + loop.rs[0]))
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
                assert report.winding == winding_number(
                    nyquist_contour(ifo, med), 1.0)
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


def test_row_verdicts_match_classify_system():
    # the joined row form against one classify_system call per
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
            assert isinstance(verdict, MarginalStabilityError)
            assert str(verdict) == str(exc)
            continue
        assert verdict.classification is report.classification
        assert verdict.winding == report.winding
        assert verdict.omega_range_used == report.omega_range_used
        assert verdict.marginal == report.marginal
        assert verdict.min_distance_to_critical == pytest.approx(
            report.min_distance_to_critical, rel=1e-12)
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


def reference_edge_integral(ifo, med, start, stop, samples):
    """Integral of d log F along one edge, bisecting the whole edge
    array each round: the per-edge form the segment pool of
    stability._rectangle_integral replaced, kept here as its reference.
    Returns the integral and the minimum |F|. An edge whose segments
    still fail the test after 40 rounds, or once it holds MAX_SAMPLES
    nodes, raises AccuracyError."""
    rs, tau = ifo.srm_amplitude_reflectivity, ifo.tau
    gamma, base = med.gamma_opt_total, med.gamma_opt_total - med.gamma12

    def loop_denominator(w):
        m = 1.0 - gamma / (1j * (w + med.delta0) + base) - gamma / (1j * (w - med.delta0) + base)
        return 1.0 - rs * np.exp(2j * w * tau) * m

    w = np.linspace(start, stop, samples)
    f = loop_denominator(w)
    for rounds in range(41):
        ratio = f[1:] / f[:-1]
        big = (np.abs(np.angle(ratio)) >= 0.5) | (np.abs(np.log(np.abs(ratio))) >= 0.5)
        if not big.any():
            break
        if rounds == 40 or w.size >= stability.MAX_SAMPLES:
            raise AccuracyError(f"edge unresolved after {rounds} rounds, {w.size} nodes")
        idx = np.nonzero(big)[0]
        w_mid = 0.5 * (w[idx] + w[idx + 1])
        w = np.insert(w, idx + 1, w_mid)
        f = np.insert(f, idx + 1, loop_denominator(w_mid))
    return complex(np.log(f[1:] / f[:-1]).sum()), float(np.abs(f).min())


def default_rect(ifo, med):
    """The oracle's default rectangle."""
    omega_max = default_omega_max(med, ifo.tau)
    height = 10.0 * max(med.delta0, med.gamma12, med.gamma_opt_total, 1.0 / ifo.tau)
    return -omega_max, omega_max, 0.0, height


def reference_root_count(ifo, med):
    """(zero count or exception type, raw integral) over the oracle's
    default rectangle, one edge at a time; the integral is None when an
    edge reached a limit."""
    re_lo, re_hi, im_lo, im_hi = default_rect(ifo, med)
    corners = [re_lo + 1j * im_lo, re_hi + 1j * im_lo,
               re_hi + 1j * im_hi, re_lo + 1j * im_hi]
    turns = (re_hi - re_lo) * ifo.tau / math.pi
    n_horiz = int(min(max(1024, 8 * turns), 2**20))
    total, min_f = 0j, math.inf
    for k in range(4):
        try:
            value, edge_min = reference_edge_integral(
                ifo, med, corners[k], corners[(k + 1) % 4], n_horiz if k % 2 == 0 else 256)
        except AccuracyError:
            return AccuracyError, None
        total += value
        min_f = min(min_f, edge_min)
    if min_f < 1e-9:
        return MarginalStabilityError, total
    count = total / (2j * math.pi)
    nearest = round(count.real)
    if abs(count.real - nearest) > 0.01 or abs(count.imag) > 0.01 or nearest < 0:
        return AccuracyError, total
    return nearest, total


@pytest.mark.parametrize("max_samples", [stability.MAX_SAMPLES, 1100])
def test_segment_pool_matches_per_edge_reference(monkeypatch, max_samples):
    # the pool bisects the same segments in the same rounds as the
    # per-edge form, so the nodes are the same and only the order of
    # summation differs; a cap of 1100 stops the real-axis edges (1024
    # start nodes) mid-refinement on both sides, which then raise
    # AccuracyError instead of summing segments that still fail the test
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
                expected, total = reference_root_count(ifo, med)
                try:
                    outcome = root_count_oracle(ifo, med)
                except (AccuracyError, MarginalStabilityError) as exc:
                    outcome = type(exc)
                assert outcome == expected
                outcomes.append(outcome)
                if total is None:
                    with pytest.raises(AccuracyError, match="still turn"):
                        stability._rectangle_integral(ifo, med, default_rect(ifo, med))
                    continue
                raw = stability._rectangle_integral(ifo, med, default_rect(ifo, med))
                assert abs(raw - total) / (2.0 * math.pi) <= 1e-12
    assert repeated >= 1 and len(outcomes) == 36
    if max_samples == 1100:
        # every rs^2 0.8 and 0.9 configuration reaches the cap; summed
        # as they stood, 3 of them counted 0 zeros where there are 2
        assert outcomes.count(AccuracyError) == 24
    else:
        assert AccuracyError not in outcomes and {0, 1, 2} <= set(outcomes)


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

