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


def _sweep(feval: Callable[[np.ndarray], np.ndarray], panels: np.ndarray,
           max_depth: int) -> tuple[float, float, np.ndarray]:
    """Refine Simpson panels one level at a time until each converges.

    panels is a C-ordered array with one column per panel and the rows
    a, m, b, f(a), f(m), f(b), the panel's Simpson estimate and its
    share of the tolerance. Each level evaluates the quarter points of
    every open panel in one call, then accepts or bisects each panel on
    its own Richardson error estimate. Returns (value, error estimate,
    left ends of the panels that reached max_depth unconverged).
    """
    eps = np.finfo(float).eps
    total = err_total = 0.0
    failed = panels[0, :0]
    depth = 0
    while True:
        n = panels.shape[1]
        a, _, b, fa, _, fb, whole, tol = panels
        # the halves of n panels: left ones in columns :n, right ones
        # in n:, so joining two adjacent rows gives a row of the halves
        lo, hi = panels[0:2].ravel(), panels[1:3].ravel()
        f_lo, f_hi = panels[3:5].ravel(), panels[4:6].ravel()
        mid = 0.5 * (lo + hi)
        f_mid = feval(mid)
        halves = _simpson(f_lo, f_mid, f_hi, hi - lo)
        pair = halves[:n] + halves[n:]
        delta = pair - whole
        # ulp-level node placement puts a floor under resolvable deltas
        noise = eps * np.maximum(np.abs(a), np.abs(b)) * (
            np.abs(fa - fb) + 4.0 * np.abs(f_mid[:n] - f_mid[n:])) + 4.0 * eps * np.abs(whole)
        done = np.abs(delta) <= np.maximum(15.0 * tol, noise)
        if depth >= max_depth:
            failed = a[~done]
            done[:] = True
        some_done = done.any()
        if some_done:
            total += float((pair + delta / 15.0)[done].sum())
            err_total += float((np.abs(delta[done]) / 15.0).sum())
            if done.all():
                return total, err_total, failed
        panels = np.array([lo, mid, hi, f_lo, f_mid, f_hi, halves,
                           0.5 * np.concatenate([tol, tol])])
        if some_done:
            # both halves of an open panel go on
            panels = panels.reshape(8, 2, n)[:, :, ~done].reshape(8, -1)
        depth += 1


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], lo: float,
                       hi: float, rel_tol: float = 1e-9, max_depth: int = 40,
                       breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Adaptive Simpson integration of f over [lo, hi].

    f must be vectorized: it is called with a 1-D array of abscissae
    and must return an array of the same shape. Subdivision stops on
    each panel once the Richardson error estimate meets the panel's
    share of the global tolerance rel_tol * |integral|.
    Optional breakpoints seed the initial panel edges, which helps with
    integrands whose sharp features are known in advance. Deterministic
    for fixed inputs.

    Raises AccuracyError (carrying the best estimate) if any panel hits
    max_depth before converging.
    """
    if not lo < hi:
        raise ValueError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")

    edges = np.array([lo, *(b for b in sorted(set(breakpoints)) if lo < b < hi), hi],
                     dtype=float)
    evals = 0

    def feval(x: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += x.size
        y = _produce(f, x, float)
        finite = np.isfinite(y)
        if not finite.all():
            raise ValueError(f"integrand is not finite at x = {float(x[~finite][0])!r}")
        return y

    # coarse composite pass to set the tolerance scale
    a, b = edges[:-1], edges[1:]
    m = 0.5 * (a + b)
    y = feval(np.concatenate([edges, m]))
    fa, fb, fm = y[:a.size], y[1:edges.size], y[edges.size:]
    whole = _simpson(fa, fm, fb, b - a)

    # the coarse estimate can be badly inflated by sharp features, so
    # resweep when the converged value reveals the scale was too loose
    tol = max(rel_tol * abs(float(np.sum(whole))), 1e-300)
    for _ in range(3):
        panels = np.stack([a, m, b, fa, fm, fb, whole, tol * (b - a) / (hi - lo)])
        total, err_total, failed = _sweep(feval, panels, max_depth)
        tol_true = max(rel_tol * abs(total), 1e-300)
        if tol <= 4.0 * tol_true:
            break
        tol = tol_true

    if failed.size:
        raise AccuracyError(
            f"quadrature did not converge at depth {max_depth} "
            f"near x = {failed.min():.6g}",
            best_estimate=total, error_estimate=err_total)
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evals)


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


def _produce(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             dtype: type) -> np.ndarray:
    """Evaluate a vectorized function on an array of arguments."""
    out = np.asarray(f(x), dtype=dtype)
    if out.shape != x.shape:
        raise ValueError(
            f"function returned shape {out.shape} for arguments of shape "
            f"{x.shape}; it must accept and return arrays")
    return out
