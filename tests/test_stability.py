import cmath
import hashlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wlcnoise import stability, survey
from wlcnoise.errors import AccuracyError, MarginalStabilityError
from wlcnoise.interferometer import improvement_factor, open_loop_gain, reference_detector
from wlcnoise.medium import (
    MediumClass,
    MediumParams,
    NoiseModel,
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
    _gain_windows,
    _Loop,
    nyquist_contour,
    root_count_oracle,
)

IFO = reference_detector(0.8)
# the sweep rows' detector, tau == 1: its rates and frequencies are those
# of the private routines, which take rates times tau and w = omega tau
UNIT = survey._UNIT_DELAY
BARE = MediumParams(gamma12=1.0 / IFO.tau, gamma_opt_total=0.0, delta0=0.0)


def _gain_window(loop, level, xp=np):
    """stability._gain_windows at one level."""
    return _gain_windows(loop, (level,), xp)[0]


def wlc_medium(eta, xi, root, ifo=IFO):
    gamma12, gamma_opt = map_eta_xi(eta, xi, ifo.tau)
    roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
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

    with pytest.raises(ValueError, match="requires a stationary medium"):
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


def test_pool_refines_a_circle():
    # three segments cannot resolve a circle about (1, 0); the pool
    # bisects each once, and the points evaluated wind once in order
    nodes = []

    def evaluate(t):
        nodes.append(t)
        return 1.0 + 0.5 * np.exp(1j * t)

    t = np.linspace(0.0, 2.0 * math.pi, 4)
    sums = stability._bisect_pool(evaluate, stability._turn_test, t, evaluate(t),
                                  "segments still turn")
    t = np.concatenate(nodes)
    z = 1.0 + 0.5 * np.exp(1j * t)
    assert t.size == 7 and len(nodes) == 2 and sums == []
    assert accumulate_winding(z[np.argsort(t)], 1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize("nodes", [2, 4097])
def test_pool_raises_where_refinement_cannot_end(monkeypatch, nodes):
    # z - 1 flips sign at t = 1/3, so the segment across it turns by pi
    # however short it gets: from 2 nodes it still does after 40 rounds;
    # from 4097, under a cap of 4100 segments, the pool stops as its
    # fourth round begins
    monkeypatch.setattr(stability, "MAX_SAMPLES", 4100)
    evaluate = lambda t: np.where(t < 1.0 / 3.0, 0.0, 2.0) + 0j
    t = np.linspace(0.0, 1.0, nodes)
    rounds = 40 if nodes == 2 else 4
    with pytest.raises(AccuracyError, match=f"^1 segments still turn after {rounds} rounds"):
        stability._bisect_pool(evaluate, stability._turn_test, t, evaluate(t),
                               "segments still turn")


def test_extreme_rates_stop_both_references_before_any_evaluation(monkeypatch):
    # rates of 4e4 / tau stretch the range over some 6e5 delay turns, and
    # 8 start nodes per turn exceed MAX_SAMPLES; the verdict's near window
    # still fits
    rate = 4e4 / IFO.tau
    med = MediumParams(rate, 0.5 * rate, rate)
    assert classify_system(IFO, med).winding > 0

    def refuse(*args):
        raise AssertionError("F was evaluated")

    monkeypatch.setattr(stability, "_loop_denominator", refuse)
    monkeypatch.setattr(stability, "_loop_gain", refuse)
    for reference in (nyquist_contour, root_count_oracle):
        with pytest.raises(AccuracyError, match="delay turns"):
            reference(IFO, med)


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
    assert 0.0 <= lo < hi < 50.0 * stability._rate_scale(_Loop.of(IFO, med)) / IFO.tau
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
    lo, hi = (float(w) / ifo.tau for w in _gain_window(_Loop.of(ifo, med), level))
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
    loop = loop_columns([(ifo, med)])
    level = max(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + loop.rs[0]))
    interior = _gain_window(loop, (2.0 - level) * (1.0 + 1e-9))
    (dist,) = _closest_approach(loop, *_gain_window(loop, level), level, interior)
    # one configuration's floats sample its own window, with the same bits
    floats = _Loop.of(ifo, med)
    window = _gain_window(floats, level, stability._FloatMath)
    interior = _gain_window(floats, (2.0 - level) * (1.0 + 1e-9), stability._FloatMath)
    assert _closest_approach(floats, *window, level, interior, stability._FloatMath) == dist
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


@pytest.mark.parametrize("eta,xi,rs2,root,distance", [
    (0.31387755102040815, 0.11795918367346939, 0.5, "smaller", 0.002039653017533621),
    (0.31387755102040815, 0.1571428571428571, 0.8, "larger", 0.0019122869836963965),
    (0.509795918367347, 0.09836734693877551, 0.9, "larger", 0.0010267289964294803),
])
def test_closest_approach_near_the_gain_peak_pinned_exactly(eta, xi, rs2, root, distance):
    # seed-0 survey configurations whose minimum is polished from a
    # bracket that ends on a gain-peak node, within 30 widths of delta0,
    # on the sweep rows' detector: a change to the sampler's nodes
    # changes these bits
    report = classify_system(UNIT.with_power_reflectivity(rs2),
                             wlc_medium(eta, xi, root, UNIT))
    assert report.min_distance_to_critical == distance


def test_verdict_never_refines_a_polyline(monkeypatch):
    # the verdict and its closest approach come from closed forms and a
    # Newton search; the segment pool serves the two references only
    def refuse(*args, **kwargs):
        raise AssertionError("classify_system refined a polyline")

    monkeypatch.setattr(stability, "_bisect_pool", refuse)
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
                loop = _Loop.of(ifo, med)
                extended += bool(_gain_window(loop, 1.0)[1] >= 50.0 * stability._rate_scale(loop))
    if rs2 < 0.999:
        assert {0, 1, 2, 3} <= windings
    else:
        # every stationary configuration of this slice winds an odd
        # number of times, and some gain windows pass the default range
        assert len(windings) >= 4
        assert extended >= 1


@pytest.mark.parametrize("eta,xi,winding", [(0.8, 0.35, 39), (0.95, 0.05, 99)])
def test_oracle_range_passes_the_gain_window(eta, xi, winding):
    # at rs^2 0.999 these gain windows pass 50 _rate_scale; the
    # oracle's default rectangle covers the contour's range, so its
    # count is the winding (a rectangle ending at 50 _rate_scale
    # counts 35 and 79)
    ifo = IFO.with_power_reflectivity(0.999)
    med = wlc_medium(eta, xi, "larger")
    loop = _Loop.of(ifo, med)
    assert _gain_window(loop, 1.0)[1] > 50.0 * stability._rate_scale(loop)
    assert classify_system(ifo, med).winding == winding
    assert root_count_oracle(ifo, med) == winding


@settings(max_examples=500, deadline=None)
@given(log_gamma12=st.floats(-4.0, 4.0), share=st.floats(0.0, 1.0, exclude_max=True),
       log_delta0=st.floats(-4.0, 4.0), log_loss=st.floats(-6.0, 0.0))
def test_omega_range_bound_keeps_the_window_inside(log_gamma12, share, log_delta0,
                                                    log_loss):
    # _omega_range skips the gain window where the real axis is quiet
    # from below 50 _rate_scale on (the reach at y = 0): there the
    # window must end at or before the reach
    gamma12 = 10.0 ** log_gamma12 / IFO.tau
    med = MediumParams(gamma12, share * gamma12, 10.0 ** log_delta0 / IFO.tau)
    loop = _Loop.of(replace(IFO, srm_amplitude_reflectivity=1.0 - 10.0 ** log_loss), med)
    w_max = 50.0 * stability._rate_scale(loop)
    reach = stability._quiet_reach(loop, 0.0)
    assume(reach < w_max)
    assert _gain_window(loop, 1.0)[1] <= reach
    assert stability._omega_range(loop) == w_max


def row_verdicts(configs):
    """classify_system's row form on (ifo, medium) configurations."""
    return classify_system([ifo for ifo, _ in configs], [med for _, med in configs])


def verdict_slice():
    """(ifo, medium) pairs with rs^2 = 0, empty near windows and a
    repeated root, and a medium non-stationary at the paper's threshold
    (1 + 10^2 < 90^2 / 4), on the sweep rows' detector, whose near
    windows classify_system reports in the same bits; and the number of
    repeated roots."""
    configs = [(UNIT.with_power_reflectivity(rs2), MediumParams(100.0, 90.0, 1.0))
               for rs2 in (0.0, 0.5, 0.9)]
    repeated = 0
    for eta in (0.05, 0.2, 0.4, 0.7, 0.9):
        for xi in (0.02, 0.05, 0.2, 0.4):
            gamma12, gamma_opt = map_eta_xi(eta, xi, UNIT.tau)
            roots = solve_detuning(gamma12, gamma_opt, UNIT.tau)
            repeated += len(roots) == 1
            configs += [(UNIT.with_power_reflectivity(rs2), MediumParams(gamma12, gamma_opt, d))
                        for d in roots for rs2 in (0.0, 0.5, 0.9)]
    return configs, repeated


def test_row_verdicts_match_classify_system():
    # the row form against one classify_system call per configuration,
    # on the slice of verdict_slice
    configs, repeated = verdict_slice()
    seen = set()
    for (ifo, med), verdict in zip(configs, row_verdicts(configs), strict=True):
        rs = ifo.srm_amplitude_reflectivity
        try:
            report = classify_system(ifo, med)
        except MarginalStabilityError as exc:
            assert type(verdict) is MarginalStabilityError
            assert str(verdict) == str(exc)
            continue
        # a configuration's report does not move by a bit inside a row
        assert verdict == report
        seen.add(report.classification)
        if report.classification is Classification.NON_STATIONARY:
            continue
        seen.add("open loop" if rs == 0.0 else
                 "empty near window" if report.omega_range_used == (0.0, 0.0)
                 else "near window")
    assert repeated >= 1
    assert seen >= {"open loop", "empty near window", "near window", Classification.STABLE,
                    Classification.OPTICAL_INSTABILITY, Classification.NON_STATIONARY}


def test_row_form_takes_equal_length_sequences():
    # on the reference detector, rates in rad/s, a row's reports carry
    # their near windows in rad/s, as classify_system alone gives them
    configs = [(IFO.with_power_reflectivity(rs2), wlc_medium(eta, xi, root))
               for eta, xi, root, rs2, _ in KNOWN_VERDICTS]
    row = row_verdicts(configs)
    assert row == [classify_system(*config) for config in configs]
    tau = IFO.tau
    unit = row_verdicts([(UNIT.with_power_reflectivity(rs2), MediumParams(
        med.gamma12 * tau, med.gamma_opt_total * tau, med.delta0 * tau))
        for (_, med), (*_, rs2, _) in zip(configs, KNOWN_VERDICTS)])
    for report, unit_report in zip(row, unit, strict=True):
        assert unit_report.omega_range_used[1] > 0.0
        assert report.omega_range_used == pytest.approx(
            [w / tau for w in unit_report.omega_range_used], rel=1e-12, abs=0.0)
    assert classify_system([], []) == []
    with pytest.raises(ValueError, match="2 detectors for 3 media"):
        classify_system([ifo for ifo, _ in configs[:2]], [med for _, med in configs[:3]])


def drawn_loops(rng, count):
    """count (ifo, medium) pairs on the sweep rows' detector with rates
    from 1e-6 to 3e4 per tau, rs^2 up to 0.9999 and every damping gap
    positive; Gamma = 0, delta0 = 0 and delta0 = Gamma each take a share
    of the draws."""
    configs = []
    for k in range(count):
        gamma12 = 10.0 ** rng.uniform(-6.0, math.log10(3e4))
        gamma_opt = 0.0 if k % 7 == 0 else rng.uniform(0.0, 0.999) * gamma12
        delta0 = (0.0 if k % 5 == 0 else gamma_opt if k % 5 == 1
                  else 10.0 ** rng.uniform(-6.0, math.log10(3e4)))
        rs2 = 0.9999 if k % 11 == 0 else rng.uniform(0.0, 0.9999)
        configs.append((UNIT.with_power_reflectivity(rs2),
                        MediumParams(gamma12, gamma_opt, delta0)))
    return configs


def loop_columns(configs):
    """The loops of (ifo, medium) pairs as arrays, as classify_system's
    row form builds them."""
    return _Loop.of_each(*zip(*configs))[0]


def reference_gain_window(loop, level, xp=np):
    """One level's gain window in a pass of its own, as stability took it
    before the near, unit and interior levels shared their level-free
    terms in _gain_windows, kept here as its reference."""
    scale = xp.maximum(xp.maximum(loop.delta0, loop.gap), loop.gamma)
    d, g, gam = loop.delta0 / scale, loop.gap / scale, loop.gamma / scale
    c0 = d * d + g * g + 2.0 * gam * g
    e0 = d * d + g * g
    r2, l2 = loop.rs * loop.rs, level * level
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
    found &= y_hi > 0.0
    return (xp.sqrt(xp.maximum(xp.minimum(y1, y2), 0.0) * found) * scale,
            xp.sqrt(xp.maximum(y_hi, 0.0) * found) * scale)


def test_row_loop_columns_are_loop_of_bits():
    # classify_system's row form reads its loops a column at a time: on
    # drawn media at four arm lengths (tau from about 3e-9 to 1e-2), each
    # configuration's columns and tau are the bits of its own _Loop.of
    arms = (4000.0, 1.0, 3e6, 123.4)
    configs = [(replace(ifo, arm_length=arms[k % 4]), med)
               for k, (ifo, med) in enumerate(drawn_loops(np.random.default_rng(11), 200))]
    loop, tau = _Loop.of_each(*zip(*configs))
    assert len({float(t) for t in tau}) == 4
    hexes = lambda values: [float(v).hex() for v in values]
    for k, (ifo, med) in enumerate(configs):
        assert hexes(column[k] for column in loop) == hexes(_Loop.of(ifo, med))
        assert float(tau[k]).hex() == ifo.tau.hex()


def test_gain_windows_keep_each_level_bits():
    # one _gain_windows call at the near, unit and interior levels of
    # classify_system gives each level the bits of a call at that level
    # alone and of the one-level reference, on arrays and on floats; most
    # windows are not empty at any of the three levels
    configs = drawn_loops(np.random.default_rng(7), 300)
    loops = [_Loop.of(*config) for config in configs]
    stacked = loop_columns(configs)
    level = np.maximum(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + stacked.rs))
    levels = (level, 1.0, (2.0 - level) * (1.0 + 1e-9))
    bits = lambda window: np.array(window, dtype=float).view(np.int64)
    for one, window in zip(levels, _gain_windows(stacked, levels)):
        assert np.sum(window[1] > 0.0) >= 150
        assert np.array_equal(bits(window), bits(_gain_window(stacked, one)))
        assert np.array_equal(bits(window), bits(reference_gain_window(stacked, one)))
    for k, loop in enumerate(loops):
        near = float(level[k])
        floats = (near, 1.0, (2.0 - near) * (1.0 + 1e-9))
        for one, window in zip(floats, _gain_windows(loop, floats, stability._FloatMath)):
            assert np.array_equal(bits(window),
                                  bits(_gain_window(loop, one, stability._FloatMath)))
            assert np.array_equal(bits(window),
                                  bits(reference_gain_window(loop, one, stability._FloatMath)))


def test_float_and_array_closed_forms_agree(monkeypatch):
    # one configuration runs the closed forms on floats and samples its
    # own near window, a row runs them on arrays and samples its windows
    # joined: the gain windows and the crossing counts agree bit for
    # bit, the float path raises nothing, and every report is the same
    # alone as in a row
    configs = drawn_loops(np.random.default_rng(7), 300)
    loops = [_Loop.of(ifo, med) for ifo, med in configs]
    stacked = loop_columns(configs)
    level = np.maximum(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + stacked.rs))
    near = _gain_window(stacked, level)
    gain = _gain_window(stacked, 1.0)
    crossings = stability._ray_crossings(stacked, *gain)
    seen = set()
    for k, loop in enumerate(loops):
        lo, hi = _gain_window(loop, 1.0, stability._FloatMath)
        assert (lo, hi) == (gain[0][k], gain[1][k])
        assert _gain_window(loop, float(level[k]), stability._FloatMath) == (
            near[0][k], near[1][k])
        assert stability._ray_crossings(loop, lo, hi, stability._FloatMath) == crossings[k]
        seen.add("delta0 >= Gamma" if loop.delta0 >= loop.gamma else "delta0 < Gamma")
        seen.update(name for name, hit in (
            ("Gamma = 0", loop.gamma == 0.0), ("delta0 = 0", loop.delta0 == 0.0),
            ("delta0 = Gamma", loop.delta0 == loop.gamma), ("empty window", hi == 0.0),
            ("window from 0", hi > 0.0 and lo == 0.0), ("window off 0", lo > 0.0),
            ("winds", crossings[k] != 0.0)) if hit)
    assert len(seen) == 9
    # the reports of the configurations whose near window the sampler
    # covers in at most 3,300 points (the closed forms are checked above
    # on all), alone with the sampler's branches recorded, then in a row
    short = np.flatnonzero((near[1] - near[0]) / math.pi <= 200.0).tolist()
    descents, polish = stability._descents, stability._polish_minimum
    flat, polished = [], []

    def record_descents(f, df, *args):
        flat.append(bool(np.any((f.conj() * df).real == 0.0)))
        return descents(f, df, *args)

    def record_polish(*args):
        polished[-1] += 1
        return polish(*args)

    monkeypatch.setattr(stability, "_descents", record_descents)
    monkeypatch.setattr(stability, "_polish_minimum", record_polish)
    reports = []
    for k in short:
        polished.append(0)
        try:
            reports.append(classify_system(*configs[k]))
        except MarginalStabilityError as exc:
            reports.append(exc)
    monkeypatch.undo()
    row = row_verdicts([configs[k] for k in short])
    assert list(map(repr, reports)) == list(map(repr, row))
    stationary = [k for k in short if classify_medium(configs[k][1]) is MediumClass.STATIONARY]
    assert sum(near[1][k] > 0.0 for k in stationary) >= 100
    # every branch of the one-configuration sampler ran: a zero slope at
    # omega = 0, gain-peak nodes joining a window, a window with two or
    # more polished brackets, and an empty window
    width = np.maximum(stacked.gap, 1e-3 * stacked.delta0)
    peak = stacked.delta0[:, None] + width[:, None] * stability._PEAK_CLUSTER[::4]
    joined = (peak > near[0][:, None]) & (peak < near[1][:, None])
    assert any(flat)
    assert any(joined[k].any() for k in stationary)
    assert max(polished) >= 2
    assert any(near[1][k] == 0.0 for k in stationary)


def test_two_term_series_is_the_first_two_of_three():
    # the near windows sample F and F' only: bit for bit the first two
    # terms of the three-term series, on arrays and on floats
    configs = drawn_loops(np.random.default_rng(3), 60)
    loops = [_Loop.of(ifo, med) for ifo, med in configs]
    stacked = loop_columns(configs)
    omegas = stacked.delta0 * np.random.default_rng(4).uniform(0.0, 3.0, len(loops))
    omegas[::6] = 0.0
    two = stability._loop_series(stacked, omegas, _terms=2)
    three = stability._loop_series(stacked, omegas)
    assert len(two) == 2 and len(three) == 3
    assert all(np.array_equal(a, b) for a, b in zip(two, three))
    for loop, omega in zip(loops, omegas.tolist()):
        two = stability._loop_series(loop, omega, cmath.exp, _terms=2)
        assert two == stability._loop_series(loop, omega, cmath.exp)[:2]


def test_zero_curvature_matches_the_series():
    # at omega = 0 the slope of |F|^2 / 2 is 0 by symmetry, and the
    # closed-form curvature stands in for the three-term float series:
    # its sign always agrees, its value to 1e-9 where the two terms do
    # not cancel, and floats and arrays give the same bits
    configs = drawn_loops(np.random.default_rng(5), 2000)
    loops = [_Loop.of(ifo, med) for ifo, med in configs]
    stacked = stability._zero_curvature(loop_columns(configs))
    compared = 0
    for loop, on_array in zip(loops, stacked.tolist()):
        f, df, ddf = stability._loop_series(loop, 0.0, cmath.exp)
        terms = abs(df) ** 2, (f.conjugate() * ddf).real
        series = terms[0] + terms[1]
        curvature = stability._zero_curvature(loop)
        assert curvature == on_array
        assert (curvature > 0.0) == (series > 0.0) and (curvature < 0.0) == (series < 0.0)
        if abs(series) > 1e-3 * max(map(abs, terms)):
            assert curvature == pytest.approx(series, rel=1e-9, abs=0.0)
            compared += 1
    assert compared >= 1900
    assert (stacked < 0.0).any() and (stacked > 0.0).any()


def test_row_classifies_each_medium_once(monkeypatch):
    # a row passes one medium object at each of its rs^2, and each object
    # is classified once; equal but distinct objects are classified each
    # and give the same reports
    configs, _ = verdict_slice()
    shared = {}
    for _, med in configs:
        shared.setdefault(med, med)
    detectors = [ifo for ifo, _ in configs]
    calls = []
    classify = stability.med_mod.classify_medium

    def spy(med):
        calls.append(med)
        return classify(med)

    monkeypatch.setattr(stability.med_mod, "classify_medium", spy)
    row = classify_system(detectors, [shared[med] for _, med in configs])
    assert len(calls) == len(shared) < len(configs)
    calls.clear()
    distinct = classify_system(detectors, [replace(med) for _, med in configs])
    assert len(calls) == len(configs)
    assert list(map(repr, distinct)) == list(map(repr, row))


def test_stability_report_is_an_immutable_record():
    report = stability.StabilityReport(Classification.STABLE, 0, 0.25, (0.0, 1.5))
    assert repr(report) == (
        "StabilityReport(classification=<Classification.STABLE: 'stable'>, winding=0, "
        "min_distance_to_critical=0.25, omega_range_used=(0.0, 1.5), marginal=False)")
    assert report.stable and not report._replace(
        classification=Classification.OPTICAL_INSTABILITY).stable
    with pytest.raises(AttributeError):
        report.winding = 1
    assert pickle.loads(pickle.dumps(report)) == report


@pytest.mark.parametrize("ifo, med", [
    (IFO, [BARE, BARE]), ([IFO, IFO], BARE), ((IFO,), BARE), (IFO, (BARE,)),
], ids=["one-ifo-media", "ifos-one-medium", "ifo-tuple", "medium-tuple"])
def test_mixed_single_and_sequence_arguments(ifo, med):
    # one configuration or equal-length sequences, never one of each
    for call in (classify_system, lambda ifo, med: improvement_factor(ifo, med,
                                                                      NoiseModel.LOCAL)):
        with pytest.raises(TypeError, match="^ifo and med must both be one configuration "
                                            "or both sequences, got "):
            call(ifo, med)


def test_skipped_polishes_change_no_report(monkeypatch):
    # the only polishes skipped are those of the descents a certified
    # span drops, where |F| >= 1 - level: with the spans off, so that
    # every descent of every near window is polished, the reports alone
    # and in a row are the skipping ones, repr for repr, on the slice of
    # verdict_slice and on the seed-3 draws whose near window fits
    # 50,000 samples (56 of the 60; the other four, of up to 3 million
    # samples, would take seconds); the float path and the row path
    # polish the same brackets, 2,039 with the spans and 3,191 without
    draws = drawn_loops(np.random.default_rng(3), 60)
    draws = [config for config, n in zip(draws, near_samples(draws)) if n <= 50_000]
    configs = verdict_slice()[0] + draws
    assert len(draws) == 56
    polish, polished = stability._polish_minimum, []

    def record_polish(*args):
        polished.append(args)
        return polish(*args)

    def reports():
        """The reports alone and in a row, and the polishes of each."""
        polished.clear()
        alone = []
        for config in configs:
            try:
                alone.append(classify_system(*config))
            except (MarginalStabilityError, AccuracyError) as exc:
                alone.append(exc)
        count = len(polished)
        row = row_verdicts(configs)
        return list(map(repr, alone)), list(map(repr, row)), count, len(polished) - count

    monkeypatch.setattr(stability, "_polish_minimum", record_polish)
    *skipping, alone_count, row_count = reports()
    monkeypatch.setattr(stability, "_certified_span", no_span)
    *every, every_alone, every_row = reports()
    assert skipping == every
    assert skipping[0] == skipping[1]
    assert alone_count == row_count == 2039
    assert every_alone == every_row == 3191


def no_span(loop, lo, hi, level, interior, xp=np):
    """_certified_span with both certificates off: an empty span."""
    return hi, lo


def test_certified_spans_bound_dense_samples():
    # on the seed-3 drawn near windows (rs^2 up to 0.9999) and those of
    # verdict_slice, |F| at 2,001 points of each interior, each certified
    # rim and each window certified whole is at least 1 - level, and the
    # phase on each certified rim keeps its margin from every integer;
    # the samples a run drops lie in its span, and floats and arrays
    # drop the same ones
    configs = [config for config in drawn_loops(np.random.default_rng(3), 60) + verdict_slice()[0]
               if classify_medium(config[1]) is MediumClass.STATIONARY
               and config[1].damping_gap > 0.0 and config[0].srm_amplitude_reflectivity > 0.0]
    stacked = loop_columns(configs)
    level = np.maximum(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + stacked.rs))
    lo, hi = _gain_window(stacked, level)
    near = hi > 0.0
    stacked, level, lo, hi = _Loop(*(p[near] for p in stacked)), level[near], lo[near], hi[near]
    interior = _gain_window(stacked, (2.0 - level) * (1.0 + 1e-9))
    ilo, ihi = np.maximum(interior[0], lo), np.minimum(interior[1], hi)
    c0, c1 = stability._certified_span(stacked, lo, hi, level, interior)
    inner = ihi > 0.0
    rims = (c0 == lo) & (lo < np.where(inner, ilo, hi)), (c1 == hi) & (np.where(inner, ihi, lo) < hi)
    whole = (c0 == lo) & (c1 == hi)
    pieces = [(ilo, ihi, inner, False), (lo, np.where(inner, ilo, hi), rims[0], True),
              (np.where(inner, ihi, lo), hi, rims[1], True)]
    columns = _Loop(*(p[:, None] for p in stacked))
    for a, b, certified, rim in pieces:
        w = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 2001)
        mod = abs(stability._loop_series(columns, w, _terms=2)[0])
        assert np.all(mod[certified] >= (1.0 - level)[certified, None])
        if rim:
            # a rim's phase keeps asin(1 - level) / 2 pi clear of every
            # integer, which bounds |F| whatever |r_s G_o| is there
            turns = stability._loop_phase_turns(columns, w)
            clear, margin = abs(turns - np.round(turns)), np.arcsin(1.0 - level) / (2.0 * math.pi)
            assert np.all(clear[certified] >= margin[certified, None])
    # interiors, certified rims on both sides and windows certified
    # whole, among windows that start at 0 and above it (a rim from 0
    # holds T(0) = 0, so only one above 0 certifies its left rim)
    assert np.sum(inner) >= 50 and np.sum(whole) >= 20
    assert np.sum(rims[0] & (lo > 0.0)) >= 5 and np.sum(rims[1] & ~whole) >= 10
    for starts in (lo == 0.0, lo > 0.0):
        assert np.sum(starts & inner) >= 20 and np.sum(starts & whole) >= 5
        assert np.sum(starts & rims[1] & ~whole) >= 3
    counts = stability._near_samples(stacked, lo, hi)[0]
    a_end, b_start = stability._search_runs(stacked, lo, hi, level, interior, counts)
    step = (hi - lo) / (counts - 1)
    dropping = b_start > a_end + 1
    assert np.sum(dropping) >= 20
    assert np.all((a_end * step + lo >= c0)[dropping & (a_end >= 0)])
    assert np.all((b_start * step + lo <= c1)[dropping & (b_start < counts)])
    for k, loop in enumerate(zip(*stacked)):
        loop, floats = _Loop(*map(float, loop)), (float(lo[k]), float(hi[k]), float(level[k]))
        window = _gain_window(loop, (2.0 - floats[2]) * (1.0 + 1e-9), stability._FloatMath)
        assert stability._search_runs(loop, *floats, window, int(counts[k]),
                                      stability._FloatMath) == (a_end[k], b_start[k])


def test_certified_spans_change_no_report(monkeypatch):
    # every sample a certified span drops has |F| >= 1 - level, so the
    # reports alone and in a row, repr for repr, are the same with the
    # certificates off, on the slice of verdict_slice and the seed-3
    # draws whose near window fits 50,000 samples; with them on, fewer
    # samples are evaluated and fewer brackets polished, as many alone
    # as in a row
    draws = drawn_loops(np.random.default_rng(3), 60)
    configs = verdict_slice()[0] + [config for config, n in zip(draws, near_samples(draws))
                                    if n <= 50_000]
    polish, series = stability._polish_minimum, stability._loop_series
    polished, evaluated = [], []

    def record_polish(*args):
        polished.append(args)
        return polish(*args)

    def record_series(loop, w, *args, **kwargs):
        if isinstance(w, np.ndarray):
            evaluated.append(w.size)
        return series(loop, w, *args, **kwargs)

    def reports():
        """The reprs alone and in a row, and the polishes and evaluated
        samples of each."""
        polished.clear()
        evaluated.clear()
        alone = []
        for config in configs:
            try:
                alone.append(classify_system(*config))
            except (MarginalStabilityError, AccuracyError) as exc:
                alone.append(exc)
        counts = len(polished), sum(evaluated)
        row = list(map(repr, row_verdicts(configs)))
        return (list(map(repr, alone)), row, counts,
                (len(polished) - counts[0], sum(evaluated) - counts[1]))

    monkeypatch.setattr(stability, "_polish_minimum", record_polish)
    monkeypatch.setattr(stability, "_loop_series", record_series)
    alone, row, on_alone, on_row = reports()
    monkeypatch.setattr(stability, "_certified_span", no_span)
    off_alone_reports, off_row_reports, off_alone, off_row = reports()
    assert alone == row == off_alone_reports == off_row_reports
    assert on_alone == on_row and off_alone == off_row
    assert on_alone[0] < off_alone[0] and on_alone[1] < 0.7 * off_alone[1]


def test_peak_nodes_merge_in_lexsort_order():
    # the row sampler's merge of the peak nodes into the uniform samples
    # is np.lexsort's order of the two joined, on random owners (some
    # with no samples or no peak nodes), windows and peak nodes, ties
    # included: values on a grid of 0.1, and a peak node -0.0 equal to a
    # sample 0.0, whose bits tell which of them comes first
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts, peak_counts = rng.integers(0, 6, 8), rng.integers(0, 4, 8)
        owner, peak_owner = np.arange(8).repeat(counts), np.arange(8).repeat(peak_counts)
        w = np.concatenate([np.sort(rng.integers(0, 10, n)) / 10.0 for n in counts])
        peak_w = np.concatenate([np.sort(rng.integers(0, 10, n)) / 10.0 for n in peak_counts])
        peak_w[peak_w == 0.0] = -0.0
        joined_owner, joined_w = np.concatenate([owner, peak_owner]), np.concatenate([w, peak_w])
        order = np.lexsort((joined_w, joined_owner))
        merged_owner, merged_w = stability._merge_samples(owner, w, peak_owner, peak_w)
        assert np.array_equal(merged_owner, joined_owner[order])
        assert np.array_equal(merged_w.view(np.int64), joined_w[order].view(np.int64))


def test_polished_brackets_of_one_survey_row_pinned(monkeypatch):
    # the certified spans leave 425 of the 8,125 near-window samples of
    # this seed-0 survey row (eta = 0.5686, the 29th of 50) to evaluate,
    # in one array call, and each of the 35 descents among them is
    # polished, so a change that loses the skip shows here
    polish, polished = stability._polish_minimum, []
    series, evaluated = stability._loop_series, []

    def record_polish(*args):
        polished.append(args)
        return polish(*args)

    def record_series(loop, w, *args, **kwargs):
        if isinstance(w, np.ndarray):
            evaluated.append(w.size)
        return series(loop, w, *args, **kwargs)

    monkeypatch.setattr(stability, "_polish_minimum", record_polish)
    monkeypatch.setattr(stability, "_loop_series", record_series)
    spec = survey.SweepSpec(eta_grid=(survey.default_grid(50)[28],),
                            xi_grid=survey.default_grid(50), srm_power_reflectivities=(0.5, 0.8, 0.9),
                            root_choice=survey.RootChoice.BOTH)
    survey.run_sweep(spec, IFO)
    assert len(polished) == 35
    assert evaluated == [425]


def near_samples(configs):
    """33 + 16 per delay turn of each configuration's near window."""
    loops = loop_columns(configs)
    lo, hi = _gain_window(loops, np.maximum(1.0 - NEAR_DISTANCE, 0.5 * (1.0 + loops.rs)))
    return 33 + 16.0 * (hi - lo) / math.pi


def row_against_alone(configs):
    """The verdicts of configs in one classify_system row, each checked
    against classify_system alone: the same report, or an error of the
    same type and text. Returns the places of the AccuracyError
    verdicts."""
    errors = []
    for k, (config, verdict) in enumerate(zip(configs, row_verdicts(configs), strict=True)):
        try:
            report = classify_system(*config)
        except (MarginalStabilityError, AccuracyError) as exc:
            assert type(verdict) is type(exc) and str(verdict) == str(exc)
            if isinstance(exc, AccuracyError):
                errors.append(k)
            continue
        assert verdict == report
    return errors


def test_near_window_cap_raises_alike_alone_and_in_a_row(monkeypatch):
    # with a sample cap below the widest near window of a row and above
    # the others, that configuration alone raises AccuracyError; in the
    # row it holds the same error in its slot, and every other verdict
    # is the one it gets alone
    configs = [(ifo, med) for ifo, med in drawn_loops(np.random.default_rng(5), 60)
               if classify_medium(med) is MediumClass.STATIONARY]
    configs = [config for config, n in zip(configs, near_samples(configs)) if n <= 3300.0]
    counts = near_samples(configs)
    widest = int(np.argmax(counts))
    cap = int(np.delete(counts, widest).max()) + 1
    assert cap < counts[widest] and len(configs) >= 20
    monkeypatch.setattr(stability, "MAX_SAMPLES", cap)
    with pytest.raises(AccuracyError, match="the near window spans"):
        classify_system(*configs[widest])
    assert row_against_alone(configs) == [widest]


def test_near_window_cap_in_a_drawn_row():
    # two stationary seed-7 draws of test_float_and_array_closed_forms_agree
    # need more than MAX_SAMPLES near-window samples; a row of them and
    # every draw whose window fits 3,300 samples keeps all the other
    # verdicts (the draws in between, windows of up to 1.7 million
    # samples, would hold some 1.2 GB at once in the row)
    configs = drawn_loops(np.random.default_rng(7), 300)
    counts = near_samples(configs)
    stationary = [classify_medium(med) is MediumClass.STATIONARY for _, med in configs]
    wide = [k for k, n in enumerate(counts) if n > stability.MAX_SAMPLES and stationary[k]]
    row = [config for config, n in zip(configs, counts)
           if n <= 3300.0 or n > stability.MAX_SAMPLES]
    assert len(wide) == 2 and len(row) >= 200
    errors = row_against_alone(row)
    assert [row[k] for k in errors] == [configs[k] for k in wide]


@pytest.mark.parametrize("budget", [1, 1000, 20_000])
def test_row_memory_chunks_keep_every_report(monkeypatch, budget):
    # a row samples whole configurations at a time, up to _ROW_SAMPLES
    # samples (one with more is a chunk of its own): on the seed-7 drawn
    # row of test_near_window_cap_in_a_drawn_row, chunks of one
    # configuration, of a few and of many give the reports of one
    # unchunked call, repr for repr
    configs = drawn_loops(np.random.default_rng(7), 300)
    counts = near_samples(configs)
    row = [config for config, n in zip(configs, counts)
           if n <= 3300.0 or n > stability.MAX_SAMPLES]
    calls = []
    series = stability._loop_series

    def count_array_calls(loop, w, *args, **kwargs):
        calls.append(isinstance(w, np.ndarray))
        return series(loop, w, *args, **kwargs)

    monkeypatch.setattr(stability, "_loop_series", count_array_calls)
    monkeypatch.setattr(stability, "_ROW_SAMPLES", 2**62)
    whole = list(map(repr, row_verdicts(row)))
    assert sum(calls) == 1
    calls.clear()
    monkeypatch.setattr(stability, "_ROW_SAMPLES", budget)
    assert list(map(repr, row_verdicts(row))) == whole
    # one array call per chunk, packed by the samples evaluated: at a
    # budget of 1 sample each of the 64 of the 110 searched windows that
    # are not certified whole is a chunk, which takes the windows
    # without samples with it
    assert sum(calls) == {1: 64, 1000: 13, 20_000: 1}[budget]


# ---------------------------------------------------------------------------
# root-counting oracle specifics
# ---------------------------------------------------------------------------

def test_oracle_bare_medium_zero():
    assert root_count_oracle(IFO, BARE) == 0
    scale = stability._rate_scale(_Loop.of(IFO, BARE)) / IFO.tau
    rect = (-100.0 * scale, 100.0 * scale, 0.0, 20.0 / IFO.tau)
    assert root_count_oracle(IFO, BARE, rect=rect) == 0


def test_oracle_takes_numpy_float_rectangles():
    # a rectangle of NumPy floats counts as the same one of Python
    # floats, folded and not, through the real edge's seeding
    med = wlc_medium(0.4, 0.4, "smaller")
    re_lo, re_hi, im_lo, im_hi = default_rect(IFO, med)
    for rect in ((re_lo, re_hi, im_lo, im_hi), (0.5 * re_lo, re_hi, im_lo, 0.5 * im_hi)):
        assert (root_count_oracle(IFO, med, rect=tuple(map(np.float64, rect)))
                == root_count_oracle(IFO, med, rect=rect))


@pytest.mark.parametrize("eta,xi,root,rs2,winding", KNOWN_VERDICTS)
def test_oracle_denominator_matches_loop_series(eta, xi, root, rs2, winding):
    # the oracle and the verdict code F = 1 - r_s G_o independently:
    # the two must agree on the real axis, here over the default range
    # and a cluster at the gain peak
    loop = _Loop.of(IFO.with_power_reflectivity(rs2), wlc_medium(eta, xi, root))
    w_max = 50.0 * stability._rate_scale(loop)
    w = np.concatenate([np.linspace(-w_max, w_max, 20001),
                        loop.delta0 + loop.gap * np.linspace(-30.0, 30.0, 241)])
    oracle = stability._loop_denominator(loop, w)
    series = stability._loop_series(loop, w)[0]
    assert np.all(np.abs(oracle - series) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))


def test_loop_gain_mirror_symmetry_is_exact():
    # the oracle folds a symmetric rectangle onto its right half, the
    # contour mirrors its half axis (_closed_contour) and the ray count
    # doubles its half-axis crossings: all stand on F(-conj w) = conj F(w)
    # bit for bit, and on F being exactly real on Re w = 0. Checked on
    # drawn loops at upper-half-plane w spread over the whole range, on
    # Re w = 0, within a few widths of +-delta0, and at tiny and large Im w
    rng = np.random.default_rng(13)
    for ifo, med in drawn_loops(rng, 200):
        loop = _Loop.of(ifo, med)
        scale = stability._rate_scale(loop)
        width = max(loop.gap, 1e-3 * loop.delta0)
        x = np.concatenate([scale * rng.uniform(-50.0, 50.0, 200), np.zeros(50),
                            np.repeat([-loop.delta0, loop.delta0], 50)
                            + width * rng.uniform(-5.0, 5.0, 100)])
        y = np.concatenate([scale * rng.uniform(0.0, 10.0, 150),
                            10.0 ** rng.uniform(-300.0, -6.0, 100),
                            scale * 10.0 ** rng.uniform(1.0, 6.0, 100)])
        w = x + 1j * rng.permutation(y)
        gain = stability._loop_gain(loop, w)
        assert np.all(np.isfinite(gain))
        assert np.all(stability._loop_gain(loop, -w.conj()) == gain.conj())
        axis = 1j * np.concatenate([[0.0], y])
        assert np.all((1.0 - stability._loop_gain(loop, axis)).imag == 0.0)


def test_oracle_evaluates_only_the_right_half_of_its_default_rectangle(monkeypatch):
    # on the default rectangle (symmetric about Re w = 0) every F the
    # oracle evaluates lies at Re w >= 0, and the path's ends on Re w = 0
    # are among them; the left half as a rectangle of its own is a closed
    # polyline at Re w <= 0, and holds one of the two zeros
    real_parts = []
    denominator = stability._loop_denominator

    def spy(loop, w):
        real_parts.append(np.asarray(w).real)
        return denominator(loop, w)

    monkeypatch.setattr(stability, "_loop_denominator", spy)
    for eta, xi, root, rs2, winding in KNOWN_VERDICTS:
        real_parts.clear()
        assert root_count_oracle(IFO.with_power_reflectivity(rs2),
                                 wlc_medium(eta, xi, root)) == winding
        seen = np.concatenate(real_parts)
        assert seen.min() == 0.0 and (seen == 0.0).sum() >= 2
    real_parts.clear()
    med = wlc_medium(0.4, 0.1, "larger")
    re_lo, re_hi, im_lo, im_hi = default_rect(IFO, med)
    assert root_count_oracle(IFO, med, (re_lo, 0.0, im_lo, im_hi)) == 1
    seen = np.concatenate(real_parts)
    assert seen.max() == 0.0 and seen.min() == re_lo * IFO.tau


def test_folded_oracle_checks_its_real_ends(monkeypatch):
    # a loop gain that broke the mirror symmetry by a tilt of 1e-12 rad
    # would leave F off the real axis at the folded path's ends: the
    # oracle raises rather than count with a fold that does not hold
    gain = stability._loop_gain
    monkeypatch.setattr(stability, "_loop_gain",
                        lambda loop, w: gain(loop, w) * cmath.exp(1e-12j))
    med = wlc_medium(0.4, 0.1, "larger")
    with pytest.raises(AccuracyError, match="not real at the folded path's ends"):
        root_count_oracle(IFO, med)
    re_lo, re_hi, im_lo, im_hi = default_rect(IFO, med)
    assert root_count_oracle(IFO, med, (re_lo, 0.5 * re_hi, im_lo, im_hi)) == 2


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
    # 8 samples per delay turn along the real axis would exceed
    # MAX_SAMPLES, although this medium's whole rectangle is quiet
    with pytest.raises(AccuracyError, match="delay turns"):
        root_count_oracle(IFO, BARE, rect=(-1e300, 1e300, 0.0, 1e4))


def quiet_bound(ifo, med, y, s=0.0):
    """Upper bound on |r_s G_o| at Im w = y >= 0, s from the nearer gain
    peak +-delta0 in Re w (s = 0: on the whole line)."""
    return (ifo.srm_amplitude_reflectivity * np.exp(-2.0 * ifo.tau * y)
            * (1.0 + 2.0 * med.gamma_opt_total / np.hypot(y + med.damping_gap, s)))


def peak_distance(med, x):
    """Distance of Re w = x from the nearer gain peak +-delta0."""
    return np.abs(np.abs(x) - med.delta0)


def dense_reference_edges(ifo, med, rect):
    """A dense seeding of the rectangle, one array per edge in
    counterclockwise order, each from corner to corner: a horizontal
    edge on a line where the quiet bound is below 1/2 is its two
    corners, otherwise uniform with 8 nodes per delay turn (at least
    1024) and the node 0 where it lies inside, the bottom one merged
    with the clusters about +-delta0; a side keeps 256 nodes' spacing up
    to its first such node, then joins the top corner. Bisected edge by
    edge with no piece taken on trust, its integral is the reference for
    the oracle's. The node 0 splits the segment from -h to h that
    symmetric uniform nodes leave: F(-x + iy) = conj F(x + iy), so its
    end ratio has unit modulus and can hide a whole turn of F."""
    re_lo, re_hi, im_lo, im_hi = rect
    turns = (re_hi - re_lo) * ifo.tau / math.pi
    uniform = np.linspace(re_lo, re_hi, max(1024, int(8 * turns)))
    if re_lo < 0.0 < re_hi:
        uniform = np.union1d(uniform, [0.0])
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


def line_pieces(ifo, med, rect, y):
    """The oracle's starting nodes on the horizontal edge Im w = y of
    rect, from re_lo to re_hi, as (nodes, quiet) pieces. With the reach
    of that line, the edge keeps the uniform nodes of the dense seeding
    from the last one at or before -reach to the first one at or beyond
    reach, merged with the clusters and the node 0 between them; the
    rest of it is one quiet piece on either side. A quiet line (reach 0)
    is one quiet piece. On a rectangle symmetric about Re w = 0 the edge
    runs from 0 to re_hi, the half the oracle folds the rectangle onto,
    and its uniform nodes are half the dense seeding's, rounded up."""
    re_lo, re_hi = rect[:2]
    turns = (re_hi - re_lo) * ifo.tau / math.pi
    count = max(1024, int(8 * turns))
    if re_lo == -re_hi:
        re_lo, count = 0.0, (count + 1) // 2
    uniform = np.linspace(re_lo, re_hi, count)
    reach = stability._quiet_reach(_Loop.of(ifo, med), y)
    if reach == 0.0:
        return [(np.array([re_lo, re_hi]) + 1j * y, True)]
    left, right = np.flatnonzero(uniform <= -reach), np.flatnonzero(uniform >= reach)
    first = left[-1] if left.size else 0
    last = right[0] if right.size else uniform.size - 1
    inner = uniform[first:last + 1]
    width = max(med.damping_gap, 1e-3 * med.delta0)
    peaks = np.concatenate([sign * med.delta0 + width * np.linspace(-30.0, 30.0, 241)
                            for sign in (-1.0, 1.0)] + [[0.0]])
    inner = np.sort(np.concatenate([inner, peaks[(peaks > inner[0]) & (peaks < inner[-1])]]))
    pieces = [(inner + 1j * y, False)]
    if first > 0:
        pieces.insert(0, (np.array([re_lo, inner[0]]) + 1j * y, True))
    if last < uniform.size - 1:
        pieces.append((np.array([inner[-1], re_hi]) + 1j * y, True))
    return pieces


def starting_pieces(ifo, med, rect):
    """The oracle's starting nodes as (nodes, quiet) pieces in
    counterclockwise order, each from a corner or joint to the next: the
    bottom edge and, reversed, the top edge as line_pieces seeds them.
    A side whose bottom corner lies beyond the reach of the bottom line
    is one quiet piece, and a side that is not 256 nodes. On a rectangle
    symmetric about Re w = 0 the pieces are its right half, the open
    path i im_lo -> re_hi + i im_lo -> re_hi + i im_hi -> i im_hi."""
    re_lo, re_hi, im_lo, im_hi = rect
    reach = stability._quiet_reach(_Loop.of(ifo, med), im_lo)
    right_quiet, left_quiet = abs(re_hi) >= reach, abs(re_lo) >= reach
    side = np.array([im_lo, im_hi]) if right_quiet else np.linspace(im_lo, im_hi, 256)
    pieces = [*line_pieces(ifo, med, rect, im_lo), (re_hi + 1j * side, right_quiet)]
    pieces += [(nodes[::-1], q) for nodes, q in reversed(line_pieces(ifo, med, rect, im_hi))]
    if re_lo != -re_hi:
        side = np.array([im_lo, im_hi]) if left_quiet else np.linspace(im_lo, im_hi, 256)
        pieces.append((re_lo + 1j * side[::-1], left_quiet))
    return pieces


def reference_denominator(ifo, med, w):
    """F = 1 - r_s G_o, written apart from stability._loop_denominator."""
    gamma, base = med.gamma_opt_total, med.gamma_opt_total - med.gamma12
    m = 1.0 - gamma / (1j * (w + med.delta0) + base) - gamma / (1j * (w - med.delta0) + base)
    return 1.0 - ifo.srm_amplitude_reflectivity * np.exp(2j * w * ifo.tau) * m


def reference_edge_integral(ifo, med, w):
    """Integral of d log F along one edge from the nodes w, bisecting the
    whole edge array each round: the per-edge form the segment pool of
    stability._rectangle_integral replaced, kept here as its reference.
    Returns the integral, the minimum |F|, and the edge's segment count
    at each round (the last one when no segment fails any more; 41
    counts when segments still fail after round 40)."""
    f = reference_denominator(ifo, med, w)
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
        f = np.insert(f, idx + 1, reference_denominator(ifo, med, w_mid))
    return None, float(np.abs(f).min()), segments


def default_rect(ifo, med):
    """The oracle's default rectangle."""
    omega_max = stability._omega_range(_Loop.of(ifo, med)) / ifo.tau
    height = 10.0 * max(med.delta0, med.gamma12, med.gamma_opt_total, 1.0 / ifo.tau)
    return -omega_max, omega_max, 0.0, height


def reference_root_count(ifo, med, pieces, max_samples=stability.MAX_SAMPLES):
    """(zero count or exception type, raw integral) from (nodes, quiet)
    pieces, one at a time: a quiet piece is the principal log of its end
    ratio and one segment in every round, the others are integrated by
    reference_edge_integral. The pieces of a closed contour give its
    integral as their sum P; those of a right half path (starting_pieces
    on a symmetric rectangle, which ends where it does not start) give
    the closed integral as P - conj P = 2i Im P. The integral is None
    when the contour reached a limit: segments still failing after 40
    rounds, or at a failing round whose pieces hold max_samples segments
    in all (as many as the path has nodes, less one)."""
    total, min_f, rounds = 0j, math.inf, []
    for w, quiet in pieces:
        if quiet:
            f = reference_denominator(ifo, med, w)
            value, edge_min, segments = complex(np.log(f[1] / f[0])), float(np.abs(f).min()), [1]
        else:
            value, edge_min, segments = reference_edge_integral(ifo, med, w)
        rounds.append(segments)
        min_f = min(min_f, edge_min)
        total = None if value is None or total is None else total + value
    for r in range(max(map(len, rounds)) - 1):
        if sum(seg[min(r, len(seg) - 1)] for seg in rounds) >= max_samples:
            return AccuracyError, None
    if total is None:
        return AccuracyError, None
    if pieces[0][0][0] != pieces[-1][0][-1]:
        total = 2j * total.imag
    if min_f < 1e-9:
        return MarginalStabilityError, total
    count = total / (2j * math.pi)
    nearest = round(count.real)
    if abs(count.real - nearest) > 0.01 or abs(count.imag) > 0.01 or nearest < 0:
        return AccuracyError, total
    return nearest, total


def dense_root_count(ifo, med, rect):
    """reference_root_count on the dense seeding, every edge bisected."""
    return reference_root_count(
        ifo, med, [(edge, False) for edge in dense_reference_edges(ifo, med, rect)])


def pool_outcome(ifo, med, rect):
    """The oracle's count, or the type of the error it raises."""
    try:
        return root_count_oracle(ifo, med, rect)
    except (AccuracyError, MarginalStabilityError) as exc:
        return type(exc)


class StartingNodes(Exception):
    """Carries the nodes of the oracle's first evaluation of F."""


def starting_nodes(ifo, med, rect):
    """The polyline the pool starts from: its first F call's nodes."""
    def capture(loop, w):
        raise StartingNodes(w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_loop_denominator", capture)
        with pytest.raises(StartingNodes) as info:
            stability._rectangle_integral(_Loop.of(ifo, med), rect)
    return info.value.args[0]


def check_pool_against_reference(ifo, med, rect, max_samples):
    """The pool starts from the nodes of starting_pieces, and gives the
    count or error that the pieces give under the cap max_samples. When
    it ends, the count equals the dense seeding's, and its integral
    equals the dense seeding's per-edge integral around the whole
    rectangle to 1e-12 turns (on a symmetric rectangle, 2i Im of the
    right half's sum); a contour that reached a limit raises
    AccuracyError rather than summing its failing segments. The pieces
    are in rad/s and the pool in w = omega tau, so ifo is a detector
    with tau = 1."""
    assert ifo.tau == 1.0
    pieces = starting_pieces(ifo, med, rect)
    path = np.concatenate([nodes[:-1] for nodes, _ in pieces] + [pieces[-1][0][-1:]])
    assert np.array_equal(starting_nodes(ifo, med, rect), path)
    expected, total = reference_root_count(ifo, med, pieces, max_samples)
    outcome = pool_outcome(ifo, med, rect)
    assert outcome == expected
    if total is None:
        with pytest.raises(AccuracyError, match="still turn"):
            stability._rectangle_integral(_Loop.of(ifo, med), rect)
    else:
        dense, dense_total = dense_root_count(ifo, med, rect)
        assert outcome == dense
        raw = stability._rectangle_integral(_Loop.of(ifo, med), rect)
        assert abs(raw - dense_total) / (2.0 * math.pi) <= 1e-12
        assert abs(raw - total) / (2.0 * math.pi) <= 1e-12
    return outcome


@pytest.mark.parametrize("max_samples", [stability.MAX_SAMPLES, 430])
def test_segment_pool_matches_per_edge_reference(monkeypatch, max_samples):
    # the pool bisects the same segments in the same rounds as the
    # per-piece form, so the nodes are the same and only the order of
    # summation differs. These right half paths start with 30 to 398
    # nodes (three of them quiet segments), and a round that still fails
    # holds at most 342 segments, except in the two at rs^2 0.9 and
    # (eta, xi) = (0.7, 0.4): they start with 394 and 398 nodes and still
    # fail with 434 and 440 segments in their fourth rounds. So a cap of
    # 430 stops exactly these two mid-refinement, which then raise
    # AccuracyError instead of summing segments that still fail
    monkeypatch.setattr(stability, "MAX_SAMPLES", max_samples)
    outcomes = []
    repeated = 0
    # xi == eta gives a repeated root
    for eta, xi in ((0.2, 0.05), (0.2, 0.2), (0.4, 0.05), (0.4, 0.4),
                    (0.7, 0.05), (0.7, 0.2), (0.7, 0.4)):
        gamma12, gamma_opt = map_eta_xi(eta, xi, UNIT.tau)
        roots = solve_detuning(gamma12, gamma_opt, UNIT.tau)
        repeated += len(roots) == 1
        for delta0 in roots:
            med = MediumParams(gamma12, gamma_opt, delta0)
            if classify_medium(med) is not MediumClass.STATIONARY:
                continue
            for rs2 in (0.5, 0.8, 0.9):
                ifo = UNIT.with_power_reflectivity(rs2)
                outcomes.append(check_pool_against_reference(
                    ifo, med, default_rect(ifo, med), max_samples))
    assert repeated >= 1 and len(outcomes) == 36
    if max_samples == 430:
        assert outcomes.count(AccuracyError) == 2
    else:
        assert AccuracyError not in outcomes and {0, 1, 2} <= set(outcomes)


# the three cells of tests/test_high_reflectivity.py: rs^2, eta, xi
HIGH_REFLECTIVITY = [(0.99, 0.865, 0.0026588446), (0.995, 0.86, 0.0013796037),
                     (0.997, 0.5888363636, 0.0024618032)]


def quiet_media():
    """(ifo, medium) of every KNOWN_VERDICTS row and high-reflectivity
    cell, on the sweep rows' detector."""
    for eta, xi, root, rs2, _ in KNOWN_VERDICTS:
        yield UNIT.with_power_reflectivity(rs2), wlc_medium(eta, xi, root, UNIT)
    for rs2, eta, xi in HIGH_REFLECTIVITY:
        yield UNIT.with_power_reflectivity(rs2), wlc_medium(eta, xi, "larger", UNIT)


@pytest.mark.parametrize("ifo,med", list(quiet_media()))
def test_quiet_edges_cannot_wind(ifo, med):
    # on every piece the oracle accepts as one segment, the real edge's
    # tail, the side and the top edge of the right half of the default
    # rectangle, |r_s G_o| sampled densely stays at or below its bound,
    # the bound stays below 1, and so Re F > 0: F cannot wind there
    rect = default_rect(ifo, med)
    quiet = [nodes for nodes, q in starting_pieces(ifo, med, rect) if q]
    assert len(quiet) == 3
    for nodes in quiet:
        a, b = nodes
        w = a + (b - a) * np.linspace(0.0, 1.0, 200_001 if a.imag == b.imag else 20_001)
        gain = ifo.srm_amplitude_reflectivity * np.abs(open_loop_gain(ifo, med, w))
        bound = quiet_bound(ifo, med, w.imag, peak_distance(med, w.real))
        assert np.all(gain <= bound) and bound.max() < 1.0
        assert np.all((1.0 - ifo.srm_amplitude_reflectivity * open_loop_gain(ifo, med, w)).real > 0.0)
    # the tail starts at the uniform node nearest outside the reach,
    # which lies where the bound on the real axis crosses 1
    reach = stability._quiet_reach(_Loop.of(ifo, med), 0.0)
    assert quiet[0][0].real >= reach
    assert quiet_bound(ifo, med, 0.0, reach - med.delta0) < 1.0
    assert quiet_bound(ifo, med, 0.0, peak_distance(med, (1.0 - 1e-6) * reach)) >= 1.0


@pytest.mark.parametrize("eta,xi,root,rs2,height,zeros", [
    # a low top edge, whose line is not quiet, is seeded as the bottom
    # edge is, with its own reach; the zero of this medium lies above it
    (0.4, 0.4, "smaller", 0.8, 0.003, 0),
    # the pair of zeros of this medium lies below it
    (0.4, 0.1, "larger", 0.8, 0.003, 2),
    # a raised bottom edge on a quiet line is one quiet segment
    (0.4, 0.1, "larger", 0.8, -0.1, 0),
])
def test_custom_rectangle_matches_per_edge_reference(eta, xi, root, rs2, height, zeros):
    ifo = UNIT.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, root, UNIT)
    re_lo, re_hi, _, im_hi = default_rect(ifo, med)
    # height > 0: the top edge at that share of the default height;
    # height < 0: the bottom edge at minus that share
    rect = ((re_lo, re_hi, 0.0, height * im_hi) if height > 0
            else (re_lo, re_hi, -height * im_hi, im_hi))
    quiet = [stability._quiet_reach(_Loop.of(ifo, med), y) == 0.0 for y in rect[2:]]
    assert quiet == ([False, False] if height > 0 else [True, True])
    assert check_pool_against_reference(ifo, med, rect, stability.MAX_SAMPLES) == zeros


# the first medium has a zero within three damping gaps of delta0
@pytest.mark.parametrize("eta,xi,root,rs2,zeros_at_peak", [(0.4, 0.1, "larger", 0.8, 1),
                                                            (0.4, 0.4, "smaller", 0.5, 0)])
@pytest.mark.parametrize("side", ["beyond +reach", "below -reach", "across +reach only",
                                  "across -reach only", "narrow about delta0"])
def test_one_sided_rectangle_matches_per_edge_reference(eta, xi, root, rs2, zeros_at_peak,
                                                        side):
    # the bottom edge keeps only the uniform nodes about +-reach; where
    # the rectangle lies wholly on one side of them it keeps its one end
    # node, and where it crosses one of them the nodes about that one
    ifo = UNIT.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, root, UNIT)
    re_lo, re_hi, _, im_hi = default_rect(ifo, med)
    reach = stability._quiet_reach(_Loop.of(ifo, med), 0.0)
    assert med.delta0 < reach < 0.1 * re_hi
    re_lo, re_hi = {
        "beyond +reach": (1.5 * reach, re_hi),
        "below -reach": (re_lo, -1.5 * reach),
        "across +reach only": (0.5 * reach, re_hi),
        "across -reach only": (re_lo, -0.5 * reach),
        "narrow about delta0": (med.delta0 - 3.0 * med.damping_gap,
                                med.delta0 + 3.0 * med.damping_gap),
    }[side]
    zeros = check_pool_against_reference(ifo, med, (re_lo, re_hi, 0.0, im_hi),
                                         stability.MAX_SAMPLES)
    assert zeros == (zeros_at_peak if side == "narrow about delta0" else 0)


@settings(max_examples=50, deadline=None)
@given(rates=st.tuples(*[st.floats(-3.0, 2.0)] * 3), rs2=st.floats(0.0, 0.999),
       log_lift=st.floats(-4.0, -1.0))
def test_oracle_matches_dense_reference(rates, rs2, log_lift):
    # random stationary media, rates 1e-3 to 1e2 per tau: on the default
    # rectangle and on one whose bottom edge is raised by 1e-4 to 1e-1 of
    # its height, the oracle gives the dense seeding's count, or both
    # raise the same exception type
    gamma12, gamma_opt, delta0 = (10.0 ** r for r in rates)
    assume(gamma_opt < gamma12)
    med = MediumParams(gamma12, gamma_opt, delta0)
    assume(classify_medium(med) is MediumClass.STATIONARY)
    ifo = UNIT.with_power_reflectivity(rs2)
    re_lo, re_hi, _, im_hi = rect = default_rect(ifo, med)
    for rect in (rect, (re_lo, re_hi, 10.0 ** log_lift * im_hi, im_hi)):
        assert pool_outcome(ifo, med, rect) == dense_root_count(ifo, med, rect)[0]


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="the oracle cannot resolve loop poles within rounding of the "
                          "real axis (a damping gap of a few ulps of gamma12)")
def test_oracle_counts_near_the_lasing_threshold():
    # a Hypothesis draw of test_oracle_matches_dense_reference, pinned:
    # the verdict and the dense reference both count 2 zeros, but a
    # segment of the oracle still turns after 40 bisection rounds
    ifo = UNIT.with_power_reflectivity(0.0927)
    med = MediumParams(0.018015586128595815, 0.01801558612859581, 0.009270010791743305)
    report = classify_system(ifo, med)
    assert (report.classification, report.winding) == (Classification.OPTICAL_INSTABILITY, 2)
    assert dense_root_count(ifo, med, default_rect(ifo, med))[0] == 2
    assert root_count_oracle(ifo, med) == 2


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


# Configurations (reference detector, larger root) with a zero just
# below the real axis at |omega tau| < 0.04, the white-light point. With
# no node at omega = 0 the symmetric real edge ran one segment from -h
# to h, whose ends have equal |F| since F(-omega) = conj F(omega); F
# turned a whole turn along it unseen, and the oracle counted 1
WHITE_LIGHT_CELLS = [
    # eta, xi, rs^2
    (0.96, 0.0020401552744958753, 0.9694003569375128),
    (0.85, 0.006130904889496624, 0.9788859365228594),
    (0.95, 0.0020401552744958753, 0.977251908938855),
    (0.98, 0.0005651429401530079, 0.9826298828683842),
    (0.7, 0.005508912011472488, 0.9908060200668897),
    (0.8999999999999999, 0.005508912011472488, 0.972943143812709),
    (0.95, 0.0022360679774997894, 0.9778595317725752),
    (0.95, 0.0035097438282184618, 0.9657324414715719),
]


@pytest.mark.parametrize("eta,xi,rs2,winding", GATE_CELLS + [
    (eta, xi, rs2, 0) for rs2, eta, xi in HIGH_REFLECTIVITY] + [
    (eta, xi, rs2, 0) for eta, xi, rs2 in WHITE_LIGHT_CELLS])
def test_oracle_counts_the_winding_near_the_axis(eta, xi, rs2, winding):
    # the contour, seeded as the oracle's real edge is, winds as often
    ifo = IFO.with_power_reflectivity(rs2)
    med = wlc_medium(eta, xi, "larger")
    report = classify_system(ifo, med)
    assert report.winding == winding
    assert root_count_oracle(ifo, med) == report.winding
    assert round(accumulate_winding(nyquist_contour(ifo, med), 1.0) / (2.0 * math.pi)) == winding


def test_oracle_evaluates_the_pinned_nodes(monkeypatch):
    # the KNOWN_VERDICTS rows and the GATE_CELLS (larger root), which
    # take 0 to 9 bisection rounds: the number of F evaluations of each
    # call (a first pass, then one per round), the points evaluated in
    # all, and a SHA-256 of their bytes in call order, as first recorded;
    # a change that keeps the nodes keeps all three
    calls, digest, points = [], hashlib.sha256(), []
    denominator = stability._loop_denominator

    def spy(loop, w):
        calls[-1] += 1
        points.append(w.size)
        digest.update(np.ascontiguousarray(w).tobytes())
        return denominator(loop, w)

    monkeypatch.setattr(stability, "_loop_denominator", spy)
    for eta, xi, root, rs2 in ([row[:4] for row in KNOWN_VERDICTS]
                               + [(eta, xi, "larger", rs2) for eta, xi, rs2, _ in GATE_CELLS]):
        calls.append(0)
        root_count_oracle(IFO.with_power_reflectivity(rs2), wlc_medium(eta, xi, root))
    assert calls == [2, 1, 1, 9, 3, 2, 6, 5, 6, 10, 4, 5, 2, 6, 3, 2]
    assert sum(points) == 2895
    assert digest.hexdigest() == (
        "0461fc2071a96f1efc7c22f12ef24a9bdda3163c01c7b499ce334b4d5bc30168")


def test_oracle_counts_the_winding_at_high_reflectivity():
    # seeded draws from the regime of the re-entrant islands, rs^2
    # 0.95-0.999, eta 0.30-0.95, xi log-uniform from 1e-4 to eta, both
    # roots: every stationary configuration's oracle count is its winding
    rng = np.random.default_rng(11)
    windings = []
    while len(windings) < 60:
        eta = rng.uniform(0.30, 0.95)
        xi = 10.0 ** rng.uniform(-4.0, math.log10(eta))
        ifo = IFO.with_power_reflectivity(rng.uniform(0.95, 0.999))
        gamma12, gamma_opt = map_eta_xi(eta, xi, ifo.tau)
        for delta0 in solve_detuning(gamma12, gamma_opt, ifo.tau):
            med = MediumParams(gamma12, gamma_opt, delta0)
            if classify_medium(med) is MediumClass.STATIONARY:
                windings.append(classify_system(ifo, med).winding)
                assert root_count_oracle(ifo, med) == windings[-1]
    assert len(set(windings)) >= 4


def test_gate_verdicts_in_rad_per_second_and_in_delay_units():
    # a seeded sample of the benchmark gate's configurations (reference
    # detector, rates in rad/s) against the same loops on the sweep rows'
    # detector, each rate times tau: the same verdict and oracle count
    rng = np.random.default_rng(12)
    grid = survey.default_grid(50)
    tau = IFO.tau
    windings = []
    while len(windings) < 40:
        xi, eta = (grid[k] for k in sorted(rng.integers(0, 50, 2)))
        rs2 = float(rng.choice((0.5, 0.8, 0.9)))
        si, unit = IFO.with_power_reflectivity(rs2), UNIT.with_power_reflectivity(rs2)
        gamma12, gamma_opt = map_eta_xi(eta, xi, tau)
        for delta0 in solve_detuning(gamma12, gamma_opt, tau):
            med = MediumParams(gamma12, gamma_opt, delta0)
            if classify_medium(med) is not MediumClass.STATIONARY:
                continue
            scaled = MediumParams(gamma12 * tau, gamma_opt * tau, delta0 * tau)
            report, unit_report = classify_system(si, med), classify_system(unit, scaled)
            assert (report.classification, report.winding, report.marginal) == (
                unit_report.classification, unit_report.winding, unit_report.marginal)
            assert root_count_oracle(si, med) == root_count_oracle(unit, scaled)
            windings.append(report.winding)
    assert {0, 1, 2} <= set(windings)


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

