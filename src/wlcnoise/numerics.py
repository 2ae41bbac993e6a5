"""Shared numeric utilities.

Numerically stable quadratic roots, adaptive Simpson quadrature, central
finite differences, and winding-number accumulation for closed
contours. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateEquationError,
    MarginalStabilityError,
)

__all__ = [
    "QuadraticRoots",
    "solve_quadratic",
    "QuadratureResult",
    "integrate_adaptive",
    "derivative_central",
    "winding_number",
    "accumulate_winding",
]


# ---------------------------------------------------------------------------
# quadratic roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticRoots:
    """Real roots of a quadratic, ascending; is_double marks a repeated root."""

    roots: tuple[float, ...]
    is_double: bool = False


def solve_quadratic(a: float, b: float, c: float) -> QuadraticRoots:
    """Real roots of a x^2 + b x + c = 0, computed stably.

    The larger-magnitude root comes from q = -(b + sign(b) sqrt(disc))/2,
    the other from the root product c/a, which avoids cancellation when
    b^2 >> |4ac|. A discriminant within 1e-10 * max(b^2, |4ac|) of
    zero is treated as a repeated root and returned once, flagged.
    """
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise DegenerateEquationError("all quadratic coefficients are zero")
    if a == 0.0:
        if b == 0.0:
            return QuadraticRoots(())  # c != 0: no solution
        root = -c / b
        return QuadraticRoots((root,) if math.isfinite(root) else ())
    if b == 0.0:
        # pure ratio, no products that could leave the float range
        if c == 0.0:
            return QuadraticRoots((0.0,), is_double=True)
        square = -c / a
        if square < 0.0 or not math.isfinite(square):
            return QuadraticRoots(())
        root = math.sqrt(square)
        return QuadraticRoots((-root, root))

    # rescale by an exact power of two when b^2 or 4ac would overflow
    # or both would underflow; root set is unchanged
    product_exps = [2 * math.frexp(b)[1]]
    if c != 0.0:
        product_exps.append(math.frexp(a)[1] + math.frexp(c)[1])
    largest = max(product_exps)
    if largest > 1000 or largest < -1000:
        norm = math.ldexp(1.0, largest // 2)
        a, b, c = a / norm, b / norm, c / norm

    disc = b * b - 4.0 * a * c
    scale = max(b * b, abs(4.0 * a * c))
    if scale > 0.0 and abs(disc) <= 1e-10 * scale:
        return QuadraticRoots((-b / (2.0 * a),), is_double=True)
    if disc < 0.0:
        return QuadraticRoots(())

    sqrt_disc = math.sqrt(disc)
    if b >= 0.0:
        q = -0.5 * (b + sqrt_disc)
    else:
        q = -0.5 * (b - sqrt_disc)
    r1, r2 = q / a, c / q
    pair = sorted(r for r in (r1, r2) if math.isfinite(r))
    return QuadraticRoots(tuple(pair))


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
# winding numbers
# ---------------------------------------------------------------------------

def _as_closed(points: Sequence[complex]) -> np.ndarray:
    z = np.asarray(points, dtype=complex)
    if z.ndim != 1 or z.size < 3:
        raise ValueError("curve needs at least 3 points")
    if z[0] != z[-1]:
        z = np.concatenate([z, z[:1]])
    return z


def _segment_distances(z: np.ndarray, point: complex) -> np.ndarray:
    """Distance from `point` to each segment of the polyline z."""
    a = z[:-1]
    seg = z[1:] - a
    seg_len2 = np.abs(seg) ** 2
    # parameter of the orthogonal projection, clamped to the segment
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.real((point - a) * np.conj(seg)) / np.where(seg_len2 > 0.0, seg_len2, 1.0)
    t = np.clip(np.where(seg_len2 > 0.0, t, 0.0), 0.0, 1.0)
    return np.abs(a + t * seg - point)


def accumulate_winding(points: Sequence[complex], point: complex) -> tuple[float, float]:
    """Total turning angle of a closed polyline about `point`.

    Returns (total_angle, min_distance), the distance taken over the
    segments, which on a closed curve cover every vertex. Each segment
    contributes the principal-value increment of arg(z - point);
    segments subtending at least pi/2 are the caller's responsibility
    to refine.
    """
    z = _as_closed(points)
    w = z - point
    if np.any(w == 0):
        raise MarginalStabilityError("curve passes exactly through the reference point")
    inc = np.angle(w[1:] / w[:-1])
    return float(inc.sum()), float(_segment_distances(z, point).min())


def winding_number(curve: Sequence[complex], point: complex) -> int:
    """Signed winding count of a closed curve about `point` (CCW positive).

    The curve is given as an ordered list of points and closed
    implicitly (last joins back to first).

    Raises MarginalStabilityError when the curve passes through `point`
    within 1e-12 relative to the curve extent.
    """
    z = _as_closed(curve)
    scale = float(np.abs(z - point).max())
    total, dist = accumulate_winding(z, point)
    if dist <= 1e-12 * max(scale, 1e-300):
        raise MarginalStabilityError(
            f"curve passes within {dist:.3e} of the reference point")
    return int(round(total / (2.0 * math.pi)))


def _refine_curve(z: np.ndarray, t: np.ndarray,
                  producer: Callable[[np.ndarray], np.ndarray], point: complex,
                  near_distance: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Bisect curve segments until angle increments about `point` are
    below pi/2, for at most 48 rounds.

    Segments are also refined when they pass within near_distance of
    `point` while still longer than a tenth of that distance, which
    guards against stepping straight over a tight loop.
    """
    for _ in range(48):
        w = z - point
        if np.any(w == 0):
            raise MarginalStabilityError(
                "curve passes exactly through the reference point")
        inc = np.abs(np.angle(w[1:] / w[:-1]))
        flag = inc >= 0.5 * math.pi
        if near_distance > 0.0:
            flag |= ((_segment_distances(z, point) <= near_distance)
                     & (np.abs(np.diff(z)) > 0.1 * near_distance))
        dt = t[1:] - t[:-1]
        flag &= dt > 1e-15 * max(abs(t[-1] - t[0]), 1.0)
        if not flag.any():
            break
        idx = np.nonzero(flag)[0]
        t_mid = 0.5 * (t[idx] + t[idx + 1])
        z_mid = _produce(producer, t_mid, complex)
        t = np.insert(t, idx + 1, t_mid)
        z = np.insert(z, idx + 1, z_mid)
    return z, t


def _produce(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             dtype: type) -> np.ndarray:
    """Evaluate a vectorized function on an array of arguments."""
    out = np.asarray(f(x), dtype=dtype)
    if out.shape != x.shape:
        raise ValueError(
            f"function returned shape {out.shape} for arguments of shape "
            f"{x.shape}; it must accept and return arrays")
    return out
