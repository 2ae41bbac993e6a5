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
    error estimate. Each level's accepted panels are added to their
    integrals' sums with np.bincount, in input order, and one
    integral's panels keep its own sweep's order, so a stacked integral
    has the bits of its own call. Returns, per integral index, its
    value, its error estimate and the smallest left end of its panels
    that reached max_depth unconverged (inf when none did).
    """
    eps = np.finfo(float).eps
    sums = np.zeros((2, count))  # each integral's value and error estimate
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
            kept = owner[done]
            sums[0] += np.bincount(kept, (pair + delta / 15.0)[done], count)
            sums[1] += np.bincount(kept, (err / 15.0)[done], count)
            if accepted == n:
                return *sums.tolist(), failed
        panels = np.array([lo, mid, hi, f_lo, f_mid, f_hi, halves,
                           0.5 * np.concatenate([tol, tol])])
        owner = owners
        if accepted:
            # both halves of an open panel go on
            panels = panels.reshape(8, 2, n)[:, :, ~done].reshape(8, -1)
            owner = owner.reshape(2, n)[:, ~done].ravel()
        depth += 1


def _panel_edges(lo: np.ndarray, hi: np.ndarray,
                 breakpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each integral's first panel edges, all joined: lo, the breakpoints
    of its row inside (lo, hi) in ascending order without repeats, and
    hi; and the count of each integral's edges."""
    seeds = np.sort(breakpoints, axis=1)
    inside = (seeds > lo[:, None]) & (seeds < hi[:, None])
    inside[:, 1:] &= seeds[:, 1:] != seeds[:, :-1]
    ends = np.ones((lo.size, 1), dtype=bool)
    keep = np.concatenate([ends, inside, ends], axis=1)
    return (np.concatenate([lo[:, None], seeds, hi[:, None]], axis=1)[keep],
            keep.sum(axis=1))


def _integrate_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray,
                    hi: np.ndarray, breakpoints: np.ndarray, rel_tol: float = 1e-9,
                    max_depth: int = 40) -> list[QuadratureResult | AccuracyError]:
    """Adaptive Simpson integration of many integrals in lockstep.

    Integral k runs from lo[k] to hi[k], its panels seeded by row k of
    the 2-D breakpoints, in any order (_panel_edges). f is called with a
    1-D array of abscissae and an equal array of the index of the
    integral that each abscissa belongs to, and must return the
    integrands' values in an array of the same shape; each level of the
    refinement is one call for all the integrals. Each integral is
    refined, reswept and counted as integrate_adaptive would alone, to
    the same bits; its entry is its QuadratureResult, or the
    AccuracyError (carrying the best estimate) it would raise. A pass
    takes at most _ROW_SAMPLES // 128 integrals: a Simpson level holds
    at most about 90 points per integral at the survey's rel_tol, so a
    pass keeps to the row budget; f sees each pass's owners offset back
    to their place in lo.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    count = lo.size
    cap = _ROW_SAMPLES // 128
    if count > cap:
        return [result for start in range(0, count, cap)
                for result in _integrate_many(lambda x, owner: f(x, owner + start),
                                              lo[start:start + cap], hi[start:start + cap],
                                              breakpoints[start:start + cap], rel_tol,
                                              max_depth)]
    for k in (~(lo < hi)).nonzero()[0][:1].tolist():
        raise ValueError(f"integration bounds must satisfy lo < hi, "
                         f"got [{lo[k].item()}, {hi[k].item()}]")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
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
    x, sizes = _panel_edges(lo, hi, np.asarray(breakpoints, dtype=float).reshape(count, -1))
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
    # each scale from its own integral's panels, summed in their order
    coarse = np.bincount(owner, whole, count)
    tols = np.maximum(rel_tol * np.abs(coarse), 1e-300).tolist()
    spans = (hi - lo)[owner]

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
    (result,) = _integrate_many(lambda x, _: f(x), [lo], [hi], [breakpoints], rel_tol,
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

