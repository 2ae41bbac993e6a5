"""Shared numeric utilities.

Numerically stable quadratic roots, adaptive Simpson quadrature, central
finite differences, and winding-number accumulation for closed contours. Everything here is a pure function of its inputs.
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
    "min_distance_to_path",
]


# ---------------------------------------------------------------------------
# quadratic roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticRoots:
    """Real roots of a quadratic, ascending; is_double marks a repeated root."""

    roots: tuple[float, ...]
    is_double: bool = False


def solve_quadratic(a: float, b: float, c: float,
                    double_tol: float = 1e-10) -> QuadraticRoots:
    """Real roots of a x^2 + b x + c = 0, computed stably.

    The larger-magnitude root comes from q = -(b + sign(b) sqrt(disc))/2,
    the other from the root product c/a, which avoids cancellation when
    b^2 >> |4ac|. A discriminant within double_tol * max(b^2, |4ac|) of
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
    if scale > 0.0 and abs(disc) <= double_tol * scale:
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


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       rel_tol: float = 1e-9, abs_tol: float = 0.0,
                       max_depth: int = 40,
                       breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Adaptive Simpson integration of f over [lo, hi].

    Subdivision stops on each panel once the Richardson error estimate
    meets the panel's share of the global tolerance
    max(abs_tol, rel_tol * |integral|). Optional breakpoints seed the
    initial panel edges, which helps with integrands whose sharp
    features are known in advance. Deterministic for fixed inputs.

    Raises AccuracyError (carrying the best estimate) if any panel hits
    max_depth before converging.
    """
    if not lo < hi:
        raise ValueError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")

    edges = [lo]
    for b in sorted(set(breakpoints)):
        if lo < b < hi:
            edges.append(b)
    edges.append(hi)

    evals = 0

    def feval(x: float) -> float:
        nonlocal evals
        evals += 1
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"integrand is not finite at x = {x!r}")
        return y

    # coarse composite pass to set the tolerance scale
    cached = [feval(x) for x in edges]
    coarse = 0.0
    mids = []
    for i in range(len(edges) - 1):
        m = 0.5 * (edges[i] + edges[i + 1])
        fm = feval(m)
        mids.append((m, fm))
        coarse += _simpson(cached[i], fm, cached[i + 1], edges[i + 1] - edges[i])
    if rel_tol <= 0.0 and abs_tol <= 0.0:
        raise ValueError("at least one of rel_tol, abs_tol must be positive")

    width_all = hi - lo
    failed: list[float] = []

    eps = np.finfo(float).eps

    def adapt(a: float, fa: float, b: float, fb: float, m: float, fm: float,
              whole: float, tol_panel: float, depth: int) -> tuple[float, float]:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = feval(lm)
        frm = feval(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        # ulp-level node placement puts a floor under resolvable deltas
        noise = eps * max(abs(a), abs(m), abs(b)) * (
            abs(fa - fb) + 4.0 * abs(flm - frm)) + 4.0 * eps * abs(whole)
        if abs(delta) <= max(15.0 * tol_panel, noise) or depth >= max_depth:
            if abs(delta) > max(15.0 * tol_panel, noise):
                failed.append(a)
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = adapt(a, fa, m, fm, lm, flm, left, 0.5 * tol_panel, depth + 1)
        rv, re = adapt(m, fm, b, fb, rm, frm, right, 0.5 * tol_panel, depth + 1)
        return lv + rv, le + re

    def sweep(tol: float) -> tuple[float, float]:
        total = 0.0
        err_total = 0.0
        for i in range(len(edges) - 1):
            a, b = edges[i], edges[i + 1]
            m, fm = mids[i]
            whole = _simpson(cached[i], fm, cached[i + 1], b - a)
            v, e = adapt(a, cached[i], b, cached[i + 1], m, fm, whole,
                         tol * (b - a) / width_all, 0)
            total += v
            err_total += e
        return total, err_total

    # the coarse estimate can be badly inflated by sharp features, so
    # resweep when the converged value reveals the scale was too loose
    scale = abs(coarse)
    tol = max(abs_tol, rel_tol * scale, 1e-300)
    for _ in range(3):
        failed.clear()
        total, err_total = sweep(tol)
        tol_true = max(abs_tol, rel_tol * abs(total), 1e-300)
        if tol <= 4.0 * tol_true:
            break
        tol = tol_true

    if failed:
        raise AccuracyError(
            f"quadrature did not converge at depth {max_depth} "
            f"near x = {failed[0]:.6g}",
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


def min_distance_to_path(points: Sequence[complex], point: complex) -> float:
    """Minimum distance from `point` to the polyline through `points`."""
    z = np.asarray(points, dtype=complex)
    a = z[:-1]
    seg = z[1:] - a
    seg_len2 = np.abs(seg) ** 2
    # parameter of the orthogonal projection, clamped to the segment
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.real((point - a) * np.conj(seg)) / np.where(seg_len2 > 0.0, seg_len2, 1.0)
    t = np.clip(np.where(seg_len2 > 0.0, t, 0.0), 0.0, 1.0)
    nearest = a + t * seg
    d = np.abs(nearest - point)
    return float(min(d.min(initial=np.inf), np.abs(z - point).min()))


def accumulate_winding(points: Sequence[complex], point: complex) -> tuple[float, float]:
    """Total turning angle of a closed polyline about `point`.

    Returns (total_angle, min_distance). Each segment contributes the
    principal-value increment of arg(z - point); segments subtending at
    least pi/2 are the caller's responsibility to refine.
    """
    z = _as_closed(points)
    w = z - point
    if np.any(w == 0):
        raise MarginalStabilityError("curve passes exactly through the reference point")
    inc = np.angle(w[1:] / w[:-1])
    return float(inc.sum()), min_distance_to_path(z, point)


def winding_number(curve: Sequence[complex], point: complex,
                   on_path_tol: float = 1e-12) -> int:
    """Signed winding count of a closed curve about `point` (CCW positive).

    The curve is given as an ordered list of points and closed
    implicitly (last joins back to first).

    Raises MarginalStabilityError when the curve passes through `point`
    within on_path_tol relative to the curve extent.
    """
    z = _as_closed(curve)
    scale = float(np.abs(z - point).max())
    total, dist = accumulate_winding(z, point)
    if dist <= on_path_tol * max(scale, 1e-300):
        raise MarginalStabilityError(
            f"curve passes within {dist:.3e} of the reference point")
    return int(round(total / (2.0 * math.pi)))


def _refine_curve(z: np.ndarray, t: np.ndarray,
                  producer: Callable[[np.ndarray], np.ndarray], point: complex,
                  max_rounds: int = 48,
                  angle_limit: float = 0.5 * math.pi,
                  near_distance: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Bisect curve segments until angle increments about `point` are small.

    Segments are also refined when they pass within near_distance of
    `point` while still longer than a tenth of that distance, which
    guards against stepping straight over a tight loop.
    """
    for _ in range(max_rounds):
        w = z - point
        if np.any(w == 0):
            raise MarginalStabilityError(
                "curve passes exactly through the reference point")
        inc = np.abs(np.angle(w[1:] / w[:-1]))
        flag = inc >= angle_limit
        if near_distance > 0.0:
            a, b = z[:-1], z[1:]
            seg = b - a
            seg_len = np.abs(seg)
            len2 = seg_len**2
            with np.errstate(invalid="ignore", divide="ignore"):
                tt = np.real((point - a) * np.conj(seg)) / np.where(len2 > 0, len2, 1.0)
            tt = np.clip(np.where(len2 > 0, tt, 0.0), 0.0, 1.0)
            dist = np.abs(a + tt * seg - point)
            flag |= (dist <= near_distance) & (seg_len > 0.1 * near_distance)
        dt = t[1:] - t[:-1]
        flag &= dt > 1e-15 * max(abs(t[-1] - t[0]), 1.0)
        if not flag.any():
            break
        idx = np.nonzero(flag)[0]
        t_mid = 0.5 * (t[idx] + t[idx + 1])
        z_mid = _produce(producer, t_mid)
        t = np.insert(t, idx + 1, t_mid)
        z = np.insert(z, idx + 1, z_mid)
    return z, t


def _produce(producer: Callable, t_mid: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized curve producer on an array of parameters."""
    out = np.asarray(producer(t_mid), dtype=complex)
    if out.shape != t_mid.shape:
        raise ValueError(
            f"curve producer returned shape {out.shape} for parameters of "
            f"shape {t_mid.shape}; it must accept and return arrays")
    return out
