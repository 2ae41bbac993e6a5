"""Shared numeric utilities.

Adaptive Simpson quadrature, central finite differences, and the
turning angle of a closed polyline about a point. Everything here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, MarginalStabilityError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "derivative_central",
    "accumulate_winding",
]

# samples a survey row holds at once: its near windows' (stability) and
# its rho_r integrals' nodes
_ROW_SAMPLES = 2**18


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _sweep(feval: Callable[[np.ndarray, np.ndarray], np.ndarray], panels: np.ndarray,
           owner: np.ndarray, count: int, max_depth: int, first=None):
    """Refine the Simpson panels of many integrals in lockstep, one
    level at a time, until each converges.

    panels is a C-ordered array with one column per panel and the rows
    a, m, b, f(a), f(m), f(b), the panel's Simpson estimate and its
    share of the tolerance; owner holds the index (below count) of each
    panel's integral. Each level evaluates the quarter points of every
    open panel in one call (none when first holds the first level's
    values), then accepts or bisects each panel on its own Richardson
    error estimate. Returns, per integral index, its value, its error
    estimate and the smallest left end of its panels that reached
    max_depth unconverged (inf when none did).
    """
    eps = np.finfo(float).eps
    totals, errors = [0.0] * count, [0.0] * count
    failed = np.full(count, np.inf)
    depth = 0
    while True:
        n = panels.shape[1]
        a, _, b, fa, _, fb, whole, tol = panels
        # the halves of n panels: left ones in columns :n, right ones
        # in n:, so joining two adjacent rows gives a row of the halves;
        # one integral's columns keep its own sweep's order in each half
        lo, hi = panels[0:2].ravel(), panels[1:3].ravel()
        f_lo, f_hi = panels[3:5].ravel(), panels[4:6].ravel()
        owners = np.concatenate([owner, owner])
        mid = 0.5 * (lo + hi)
        f_mid, first = feval(mid, owners) if first is None else first, None
        halves = _simpson(f_lo, f_mid, f_hi, hi - lo)
        pair = halves[:n] + halves[n:]
        delta = pair - whole
        err = np.abs(delta)
        done = err <= 15.0 * tol
        accepted = np.count_nonzero(done)
        if accepted < n:
            # ulp-level node placement puts a floor under resolvable deltas
            noise = eps * np.maximum(np.abs(a), np.abs(b)) * (
                np.abs(fa - fb) + 4.0 * np.abs(f_mid[:n] - f_mid[n:])) + 4.0 * eps * np.abs(whole)
            done |= err <= noise
            accepted = np.count_nonzero(done)
        if depth >= max_depth:
            np.minimum.at(failed, owner[~done], a[~done])
            done[:] = True
            accepted = n
        if accepted:
            value, spread = pair + delta / 15.0, err / 15.0
            _add_by_owner(totals, errors, value[done], spread[done], owner[done])
            if accepted == n:
                return totals, errors, failed
        panels = np.array([lo, mid, hi, f_lo, f_mid, f_hi, halves,
                           0.5 * np.concatenate([tol, tol])])
        owner = owners
        if accepted:
            # both halves of an open panel go on
            panels = panels.reshape(8, 2, n)[:, :, ~done].reshape(8, -1)
            owner = owner.reshape(2, n)[:, ~done].ravel()
        depth += 1


def _add_by_owner(totals: list, errors: list, value: np.ndarray, spread: np.ndarray,
                  owner: np.ndarray) -> None:
    """Add each integral's accepted values and error estimates, in their
    order, each as one contiguous ndarray.sum: that sum is pairwise, as
    in the integral's own sweep, where a segmented reduction
    (np.add.reduceat, np.bincount) adds in another order."""
    order = np.argsort(owner, kind="stable")
    value, spread, owner = value[order], spread[order], owner[order]
    cuts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), owner.size]
    for start, stop in zip(cuts, cuts[1:]):
        k = owner[start]
        totals[k] += float(value[start:stop].sum())
        errors[k] += float(spread[start:stop].sum())


def _integrate_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    intervals: Sequence[tuple[float, float, Sequence[float]]],
                    rel_tol: float = 1e-9,
                    max_depth: int = 40) -> list[QuadratureResult | AccuracyError]:
    """Adaptive Simpson integration of many integrals in lockstep.

    intervals lists each integral's (lo, hi, breakpoints). f is called
    with a 1-D array of abscissae and an equal array of the index of
    the integral that each abscissa belongs to, and must return the
    integrands' values in an array of the same shape; each level of the
    refinement is one call for all the integrals. Each integral is
    refined, reswept and counted as integrate_adaptive would alone, to
    the same bits; its entry is its QuadratureResult, or the
    AccuracyError (carrying the best estimate) it would raise. A pass
    takes at most _ROW_SAMPLES // 128 integrals: a Simpson level holds
    at most about 90 points per integral at the survey's rel_tol, so a
    pass keeps to the row budget; f sees each pass's owners offset back
    to their place in intervals.
    """
    cap = _ROW_SAMPLES // 128
    if len(intervals) > cap:
        return [result for start in range(0, len(intervals), cap)
                for result in _integrate_many(lambda x, owner: f(x, owner + start),
                                              intervals[start:start + cap], rel_tol, max_depth)]
    for lo, hi, _ in intervals:
        if not lo < hi:
            raise ValueError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    count = len(intervals)
    if not count:
        return []
    evals = np.zeros(count, dtype=int)

    def feval(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        evals[:] += np.bincount(owner, minlength=count)
        y = np.asarray(f(x, owner), dtype=float)
        if y.shape != x.shape:
            raise ValueError(f"integrand returned shape {y.shape} for abscissae of shape "
                             f"{x.shape}; it must accept and return arrays")
        finite = np.isfinite(y)
        if not finite.all():
            raise ValueError(f"integrand is not finite at x = {float(x[~finite][0])!r}")
        return y

    # coarse pass for the tolerance scales, with the first level's quarter
    # points: every integral's edges, then its panels' midpoints and quarters
    edges = [[lo, *(b for b in sorted(set(breakpoints)) if lo < b < hi), hi]
             for lo, hi, breakpoints in intervals]
    sizes = [len(e) for e in edges]
    x = np.array([v for e in edges for v in e], dtype=float)
    ends = np.cumsum(sizes)
    left, right = np.ones(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    left[ends - 1] = right[ends - sizes] = False
    a, b = x[left], x[right]
    m = 0.5 * (a + b)
    quarters = 0.5 * (np.concatenate([a, m]) + np.concatenate([m, b]))
    edge_owner = np.repeat(np.arange(count), sizes)
    owner = edge_owner[left]
    y = feval(np.concatenate([x, m, quarters]),
              np.concatenate([edge_owner, owner, owner, owner]))
    fa, fb, fm, first = y[:x.size][left], y[:x.size][right], y[x.size:-2 * a.size], y[-2 * a.size:]
    whole = _simpson(fa, fm, fb, b - a)
    # each scale from its own integral's panels, summed as they alone would be
    cuts = (np.cumsum([0, *sizes]) - np.arange(count + 1)).tolist()
    tols = [max(rel_tol * abs(float(whole[i:j].sum())), 1e-300) for i, j in zip(cuts, cuts[1:])]
    spans = np.array([hi - lo for lo, hi, _ in intervals])[owner]

    # the coarse estimate can be badly inflated by sharp features, so an
    # integral resweeps when its converged value reveals the scale was
    # too loose: a further lockstep pass over only those that need it
    active = list(range(count))
    results = [None] * count
    for resweep in range(3):
        panels = np.array([a, m, b, fa, fm, fb, whole, np.array(tols)[owner] * (b - a) / spans])
        keep = np.isin(owner, active)
        totals, errors, failed = _sweep(feval, panels[:, keep], owner[keep], count, max_depth,
                                        None if resweep else first)
        again = []
        for k in active:
            results[k] = totals[k], errors[k], failed[k]
            tol_true = max(rel_tol * abs(totals[k]), 1e-300)
            if not tols[k] <= 4.0 * tol_true:
                tols[k] = tol_true
                again.append(k)
        if not again:
            break
        active = again

    return [AccuracyError(f"quadrature did not converge at depth {max_depth} "
                          f"near x = {fail:.6g}", best_estimate=total, error_estimate=err)
            if fail < math.inf else
            QuadratureResult(value=total, error_estimate=err, evaluations=int(evals[k]))
            for k, (total, err, fail) in enumerate(results)]


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], lo: float,
                       hi: float, rel_tol: float = 1e-9, max_depth: int = 40,
                       breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Adaptive Simpson integration of f over [lo, hi].

    f must be vectorized: it is called with a 1-D array of abscissae
    and must return an array of the same shape. Subdivision stops on
    each panel once the Richardson error estimate meets the panel's
    share of the global tolerance rel_tol * |integral|.
    Optional breakpoints, in any order, seed the initial panel edges
    inside (lo, hi), which helps with integrands whose sharp features
    are known in advance. Deterministic for fixed inputs; the
    one-integral case of _integrate_many.

    Raises AccuracyError (carrying the best estimate) if any panel hits
    max_depth before converging.
    """
    (result,) = _integrate_many(lambda x, _: f(x), [(lo, hi, breakpoints)], rel_tol,
                                max_depth)
    if isinstance(result, AccuracyError):
        raise result
    return result


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def derivative_central(f: Callable[[float], float], x: float, step: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / 2h."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    return (f(x + step) - f(x - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# turning angle of a closed polyline
# ---------------------------------------------------------------------------

def _as_closed(points: Sequence[complex]) -> np.ndarray:
    z = np.asarray(points, dtype=complex)
    if z.ndim != 1 or z.size < 3:
        raise ValueError("curve needs at least 3 points")
    if z[0] != z[-1]:
        z = np.concatenate([z, z[:1]])
    return z


def accumulate_winding(points: Sequence[complex], point: complex) -> float:
    """Total turning angle of a closed polyline about `point`.

    The polyline is closed implicitly (last point joins back to the
    first). Each segment contributes the principal-value increment of
    arg(z - point); segments subtending at least pi/2 are the caller's
    responsibility to refine. The winding count is the angle over
    2 pi, rounded. Raises MarginalStabilityError when a point is
    `point` itself.
    """
    z = _as_closed(points)
    w = z - point
    if np.any(w == 0):
        raise MarginalStabilityError("curve passes exactly through the reference point")
    return float(np.angle(w[1:] / w[:-1]).sum())

