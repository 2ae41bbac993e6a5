import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlcnoise import numerics
from wlcnoise.errors import AccuracyError, MarginalStabilityError
from wlcnoise.medium import solve_detuning
from wlcnoise.numerics import (
    _integrate_many,
    accumulate_winding,
    derivative_central,
    integrate_adaptive,
)


# ---------------------------------------------------------------------------
# quadratic roots (solved in place by medium.solve_detuning)
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1.0, exclude_max=True),
       st.floats(1e-6, 1e6))
def test_quadratic_residual_property(gamma12, fraction, tau):
    gamma_opt = fraction * gamma12
    g2 = (gamma12 - gamma_opt) ** 2
    a_rate = gamma_opt / tau
    b, c = 2.0 * g2 - a_rate, g2 * (g2 + a_rate)
    scale = max(1.0, abs(b), abs(c), 1e-30)
    for d0 in solve_detuning(gamma12, gamma_opt, tau):
        x = d0 * d0
        # Horner grouping keeps the residual itself in float range
        residual = abs((x + b) * x + c)
        bound = 1e-10 * max(x * x, abs(b * x), abs(c), scale * 1e-6)
        assert residual <= bound


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_constant():
    res = integrate_adaptive(np.ones_like, 0.0, 2.0, rel_tol=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_integrate_sine():
    res = integrate_adaptive(np.sin, 0.0, math.pi, rel_tol=1e-9)
    assert res.value == pytest.approx(2.0, rel=1e-9)
    assert abs(res.value - 2.0) <= 10.0 * max(res.error_estimate, 1e-15)
    assert res.evaluations > 0


def test_integrate_poisson_kernel():
    # closed form pi / (1 - r^2); cross-checked against a dense
    # trapezoid sum that shares nothing with the adaptive code path
    r = 0.8
    f = lambda x: 1.0 / (1.0 - 2.0 * r * np.cos(2.0 * x) + r * r)
    res = integrate_adaptive(f, 0.0, math.pi, rel_tol=1e-10)
    closed_form = math.pi / (1.0 - r * r)
    assert closed_form == pytest.approx(8.726646259971648, rel=1e-15)
    xs = np.linspace(0.0, math.pi, 200001)
    trapezoid = np.trapezoid(f(xs), xs)
    assert res.value == pytest.approx(closed_form, rel=1e-10)
    assert res.value == pytest.approx(trapezoid, rel=1e-8)
    assert abs(res.value - closed_form) <= 10.0 * max(res.error_estimate, 1e-15)


def test_integrate_cubics_exact():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = rng.uniform(-5, 5, size=4)
        lo, hi = sorted(rng.uniform(-3, 3, size=2))
        if hi - lo < 1e-3:
            continue
        f = lambda x: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
        truth = sum(c[k] * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                    for k in range(4))
        res = integrate_adaptive(f, lo, hi, rel_tol=1e-9)
        assert res.value == pytest.approx(truth, rel=1e-12, abs=1e-12)


def test_integrate_breakpoints_catch_narrow_spike():
    # a spike of width 1e-6 hiding between coarse panel nodes
    spike = lambda x: 1.0 / (1e-12 + (x - 0.3) ** 2)
    truth = (math.atan(0.7 / 1e-6) + math.atan(0.3 / 1e-6)) / 1e-6
    res = integrate_adaptive(spike, 0.0, 1.0, rel_tol=1e-8,
                             breakpoints=(0.3,))
    assert res.value == pytest.approx(truth, rel=1e-7)


def test_integrate_depth_exhaustion():
    f = lambda x: np.sqrt(np.abs(x))
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(f, -1.0, 1.0, rel_tol=1e-14, max_depth=3)
    best = info.value.best_estimate
    assert best == pytest.approx(4.0 / 3.0, rel=1e-2)


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 1.0, 0.0)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-4, math.nan, math.inf])
def test_integrate_rejects_bad_rel_tol(rel_tol):
    # a NaN tolerance used to pass the guard and bisect every panel to
    # max_depth (about 12 * 2**depth evaluations); the depth is kept
    # small so that a missing guard fails quickly instead of hanging
    with pytest.raises(ValueError, match="rel_tol"):
        integrate_adaptive(np.sin, 0.0, 1.0, rel_tol=rel_tol, max_depth=8)


def test_integrate_deterministic():
    f = lambda x: np.exp(-x) * np.cos(7 * x)
    a = integrate_adaptive(f, 0.0, 5.0, rel_tol=1e-10)
    b = integrate_adaptive(f, 0.0, 5.0, rel_tol=1e-10)
    assert a == b


def test_integrate_requires_vectorized_integrand():
    with pytest.raises(ValueError, match="shape"):
        integrate_adaptive(lambda x: 1.0, 0.0, 2.0)


def reference_integrate(f, lo, hi, rel_tol, max_depth=40, breakpoints=()):
    """Point-at-a-time recursive adaptive Simpson with the same panel
    test, noise floor and resweep as integrate_adaptive; returns
    (value, evaluations, left ends of unconverged panels)."""
    eps = np.finfo(float).eps
    evals = 0

    def feval(x):
        nonlocal evals
        evals += 1
        return float(f(np.array([x]))[0])

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def adapt(a, fa, b, fb, m, fm, whole, tol, depth, failed):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = feval(lm), feval(rm)
        left, right = simpson(fa, flm, fm, m - a), simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        noise = eps * max(abs(a), abs(b)) * (
            abs(fa - fb) + 4.0 * abs(flm - frm)) + 4.0 * eps * abs(whole)
        if abs(delta) <= max(15.0 * tol, noise) or depth >= max_depth:
            if abs(delta) > max(15.0 * tol, noise):
                failed.append(a)
            return left + right + delta / 15.0
        return (adapt(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1, failed)
                + adapt(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1, failed))

    edges = [lo, *(x for x in sorted(set(breakpoints)) if lo < x < hi), hi]
    fe = [feval(x) for x in edges]
    mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    fm = [feval(m) for m in mids]
    wholes = [simpson(fe[i], fm[i], fe[i + 1], edges[i + 1] - edges[i])
              for i in range(len(mids))]
    tol = max(rel_tol * abs(sum(wholes)), 1e-300)
    for _ in range(3):
        failed = []
        total = sum(adapt(edges[i], fe[i], edges[i + 1], fe[i + 1], mids[i], fm[i],
                          wholes[i], tol * (edges[i + 1] - edges[i]) / (hi - lo),
                          0, failed)
                    for i in range(len(mids)))
        tol_true = max(rel_tol * abs(total), 1e-300)
        if tol <= 4.0 * tol_true:
            break
        tol = tol_true
    return total, evals, failed


def lorentzians(centers, widths):
    def f(x):
        return sum(w / (w * w + (x - c) ** 2) for c, w in zip(centers, widths)) + 0.1
    return f


@settings(max_examples=40, deadline=None)
@given(centers=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=3),
       widths=st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3),
       use_breakpoints=st.booleans(), rel_tol=st.sampled_from([1e-4, 1e-8, 1e-11]),
       max_depth=st.sampled_from([6, 40]))
def test_integrate_matches_recursive_reference(centers, widths, use_breakpoints,
                                               rel_tol, max_depth):
    # rational integrands only: NumPy rounds +, -, * and / the same in
    # array and one-element loops, so both see identical values
    f = lorentzians(centers, widths)
    breakpoints = tuple(centers) if use_breakpoints else ()
    value, evals, failed = reference_integrate(f, 0.0, 1.0, rel_tol, max_depth,
                                               breakpoints)
    try:
        res = integrate_adaptive(f, 0.0, 1.0, rel_tol=rel_tol, max_depth=max_depth,
                                 breakpoints=breakpoints)
    except AccuracyError as exc:
        assert failed
        assert exc.best_estimate == pytest.approx(value, rel=1e-12)
        assert f"near x = {min(failed):.6g}" in str(exc)
        return
    assert not failed
    assert res.evaluations == evals
    # positive terms summed in another order: the bound is a few ulps
    # per panel
    assert res.value == pytest.approx(value, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(members=st.lists(st.tuples(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=3),
                                  st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3),
                                  st.booleans()),
                        min_size=1, max_size=6),
       rel_tol=st.sampled_from([1e-4, 1e-8, 1e-11]), max_depth=st.sampled_from([6, 40]))
def test_stacked_integrals_match_their_own_calls(members, rel_tol, max_depth):
    # lockstep levels change which array a node is evaluated in and
    # where its panel sits, never a value, an error estimate, a count
    # or a failure: each member is bit for bit its own call
    integrands = [lorentzians(centers, widths) for centers, widths, _ in members]
    intervals = [(0.0, 1.0, tuple(centers) if use else ())
                 for centers, _, use in members]
    calls = []

    def stacked(x, owner):
        calls.append(x.size)
        y = np.empty_like(x)
        for k, f in enumerate(integrands):
            y[owner == k] = f(x[owner == k])
        return y

    # the stack's breakpoint rows, padded with the lower bound 0, which
    # lies outside every (lo, hi) and is dropped
    padded = [(*breakpoints, *[0.0] * (3 - len(breakpoints))) for _, _, breakpoints in intervals]
    results = _integrate_many(stacked, [0.0] * len(members), [1.0] * len(members), padded,
                              rel_tol=rel_tol, max_depth=max_depth)
    solo_calls = []
    for f, (_, _, breakpoints), stacked_result in zip(integrands, intervals, results,
                                                      strict=True):
        made = []

        def counted(x):
            made.append(x.size)
            return f(x)

        try:
            alone = integrate_adaptive(counted, 0.0, 1.0, rel_tol=rel_tol,
                                       max_depth=max_depth, breakpoints=breakpoints)
        except AccuracyError as exc:
            assert isinstance(stacked_result, AccuracyError)
            assert str(stacked_result) == str(exc)
            assert stacked_result.best_estimate == exc.best_estimate
            assert stacked_result.error_estimate == exc.error_estimate
        else:
            assert stacked_result == alone
        solo_calls.append(len(made))
    # a level of the stack is one call for every member still refining
    assert max(solo_calls) <= len(calls) <= sum(solo_calls)


def test_split_stacks_match_their_own_calls(monkeypatch):
    # at a row budget of 256 samples a lockstep pass takes 2 integrals,
    # so the drawn stacks of up to 6 are split: each member still gets
    # the bits of its own call, which needs each pass's owners offset
    # back to their places in the stack
    monkeypatch.setattr(numerics, "_ROW_SAMPLES", 256)
    test_stacked_integrals_match_their_own_calls()


def test_panel_edges_sort_and_drop_repeats():
    # each integral's first edges are lo, its breakpoints inside (lo, hi)
    # sorted once each, and hi: NaN, repeats and points on or beyond an
    # end are dropped
    rng = np.random.default_rng(4)
    rows = rng.choice([-1.0, 0.0, 0.25, 0.5, 0.5 + 1e-16, 1.0, 2.0, np.nan], size=(30, 9))
    lo, hi = np.zeros(30), rng.choice([0.5, 1.0, 3.0], size=30)
    x, sizes = numerics._panel_edges(lo, hi, rows)
    expected = [[a, *sorted({v for v in row if a < v < b}), b]
                for a, b, row in zip(lo.tolist(), hi.tolist(), rows.tolist())]
    assert sizes.tolist() == [len(e) for e in expected]
    assert x.tolist() == [v for e in expected for v in e]


@pytest.mark.parametrize("f, lo, hi, rel_tol, breakpoints, evaluations, value, calls", [
    (lambda x: np.exp(-x) * np.cos(7 * x), 0.0, 5.0, 1e-10, (),
     11955, 0.019717870505008915, 25),
    (lambda x: 1.0 / (1e-12 + (x - 0.3) ** 2), 0.0, 1.0, 1e-8, (0.3,),
     8581, 3141587.894007791, 54),
    (np.ones_like, 0.0, 2.0, 1e-9, (), 5, 2.0, 1),
], ids=["damped-cosine", "spike-breakpoint", "constant"])
def test_integrate_nodes_match_recursive_simpson(f, lo, hi, rel_tol, breakpoints,
                                                 evaluations, value, calls):
    # figures of the earlier point-at-a-time recursive Simpson: the same
    # count means the same nodes; only the summation order differs
    made = []

    def counted(x):
        made.append(x.size)
        return f(x)

    res = integrate_adaptive(counted, lo, hi, rel_tol=rel_tol, breakpoints=breakpoints)
    assert res.evaluations == evaluations == sum(made)
    assert res.value == pytest.approx(value, rel=1e-13)
    # the first level's quarter points ride the coarse call; a constant
    # converges there, so its one call is the coarse one
    assert len(made) == calls


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_derivative_central():
    d = derivative_central(math.sin, 0.3, 1e-6)
    assert d == pytest.approx(math.cos(0.3), abs=1e-10)
    # a zero, negative, NaN or infinite step has no difference quotient
    for step in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="^step must be finite and positive$"):
            derivative_central(math.sin, 0.3, step)


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def _circle(n, turns=1.0, radius=1.0, center=0j):
    t = np.linspace(0.0, 2.0 * math.pi * turns, n, endpoint=False)
    return center + radius * np.exp(1j * t)


def winding_number(curve, point):
    """Winding count of a closed polyline about point, from its turning angle."""
    return round(accumulate_winding(curve, point) / (2.0 * math.pi))


def test_winding_unit_circle():
    assert winding_number(_circle(64), 0.0) == 1


def test_winding_exterior_point():
    assert winding_number(_circle(64), 2.0 + 0.0j) == 0


def test_winding_double_clockwise():
    curve = np.conj(_circle(128, turns=2.0))
    assert winding_number(curve, 0.0) == -2


def test_winding_resampling_invariance():
    for n in (32, 64, 128, 256):
        assert winding_number(_circle(n, radius=2.5, center=1j), 1j) == 1


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=50.0, allow_nan=False,
                          allow_infinity=False))
def test_winding_translation_invariance(shift):
    curve = _circle(48, radius=1.0, center=0.2 + 0.1j)
    base = winding_number(curve, 0.0)
    assert winding_number(curve + shift, shift) == base


def test_winding_on_curve_raises():
    with pytest.raises(MarginalStabilityError):
        winding_number(_circle(64), 1.0 + 0.0j)
