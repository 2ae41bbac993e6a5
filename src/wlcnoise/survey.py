"""Parameter-space survey over the medium coordinates (eta, xi).

Each grid cell maps to medium rates, solves the phase-cancellation
detuning, classifies the stability of the full loop per recycling
mirror value and detuning root, and integrates the sensitivity
improvement factor for the stable configurations. Cells are
independent work items; the grid assembly is row-major in (eta, xi)
and bit-identical regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial

from .errors import AccuracyError, MarginalStabilityError, ZeroSignalError
from .interferometer import (
    IfoParams,
    baseline_integrated_inverse_psd,
    strain_psd,
)
from .medium import MediumParams, NoiseModel, map_eta_xi, solve_detuning
from .numerics import integrate_adaptive
from .stability import classify_system

__all__ = [
    "RootChoice",
    "CellStatus",
    "SweepSpec",
    "RootOutcome",
    "SweepCell",
    "SweepGrid",
    "default_grid",
    "improvement_factor",
    "run_sweep",
]


class RootChoice(Enum):
    SMALLER = "smaller"
    LARGER = "larger"
    BOTH = "both"

    @property
    def labels(self) -> tuple[str, ...]:
        """Labels of the detuning roots this choice selects."""
        return ("smaller", "larger") if self is RootChoice.BOTH else (self.value,)


class CellStatus(Enum):
    """Cell verdicts; all but INFEASIBLE share a Classification's value."""

    INFEASIBLE = "infeasible"
    ATOMIC_INSTABILITY = "atomic"
    NON_STATIONARY = "non-stationary"
    OPTICAL_INSTABILITY = "optical"
    STABLE = "stable"


def default_grid(count: int = 50, lo: float = 0.02, hi: float = 0.98) -> tuple[float, ...]:
    """Uniform survey grid strictly inside (0, 1)."""
    if count == 1:
        return (0.5 * (lo + hi),)
    step = (hi - lo) / (count - 1)
    return tuple(lo + k * step for k in range(count))


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how accurately to integrate."""

    eta_grid: tuple[float, ...]
    xi_grid: tuple[float, ...]
    srm_power_reflectivities: tuple[float, ...] = (0.8,)
    root_choice: RootChoice = RootChoice.BOTH
    include_additional_noise: bool = True
    noise_model: NoiseModel = NoiseModel.LOCAL
    rel_tol: float = 1e-4
    abs_tol: float = 0.0
    margin: float = 1.0

    def __post_init__(self) -> None:
        for name, grid in (("eta_grid", self.eta_grid), ("xi_grid", self.xi_grid)):
            if not grid:
                raise ValueError(f"{name} is empty")
            if any(not 0.0 < v < 1.0 for v in grid):
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly ascending")
        if not self.srm_power_reflectivities:
            raise ValueError("need at least one SRM power reflectivity")
        if any(not 0.0 <= v < 1.0 for v in self.srm_power_reflectivities):
            raise ValueError("SRM power reflectivities must lie in [0, 1)")
        if len(set(self.srm_power_reflectivities)) < len(self.srm_power_reflectivities):
            raise ValueError("srm_power_reflectivities must not repeat a value")


@dataclass(frozen=True, slots=True)
class RootOutcome:
    """Classification of one (SRM reflectivity, detuning root) combination."""

    srm_power_reflectivity: float
    root_label: str
    delta0: float  # nan when the cell is infeasible
    status: CellStatus
    winding: int | None = None
    min_distance: float | None = None
    marginal: bool = False
    rho_r: float | None = None
    note: str = ""


@dataclass(frozen=True, slots=True)
class SweepCell:
    eta: float
    xi: float
    gamma12: float
    gamma_opt_total: float
    feasible: bool
    outcomes: tuple[RootOutcome, ...]


@dataclass(frozen=True)
class SweepGrid:
    """Row-major (eta outer, xi inner) matrix of survey cells."""

    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    def outcomes(self, srm_power_reflectivity: float | None = None,
                 root_label: str | None = None):
        """Iterate (cell, outcome) pairs, optionally filtered."""
        for cell in self.cells:
            for outcome in cell.outcomes:
                if (srm_power_reflectivity is not None
                        and outcome.srm_power_reflectivity != srm_power_reflectivity):
                    continue
                if root_label is not None and outcome.root_label != root_label:
                    continue
                yield cell, outcome

    def stable_count(self, srm_power_reflectivity: float | None = None,
                     root_label: str | None = None) -> int:
        return sum(1 for _, o in self.outcomes(srm_power_reflectivity, root_label)
                   if o.status is CellStatus.STABLE)

    def max_rho(self, srm_power_reflectivity: float | None = None,
                root_label: str | None = None) -> float | None:
        best = None
        for _, o in self.outcomes(srm_power_reflectivity, root_label):
            if o.status is CellStatus.STABLE and o.rho_r is not None:
                if best is None or o.rho_r > best:
                    best = o.rho_r
        return best


def _integration_breakpoints(med: MediumParams, fsr: float) -> tuple[float, ...]:
    """Panel seeds at the known sharp features of the inverse noise curve."""
    width = max(med.damping_gap, 1e-6 * med.delta0 if med.delta0 else 0.0, 1e-12 * fsr)
    points = {0.25 * fsr, 0.5 * fsr, 0.75 * fsr}
    for k in (1.0, 3.0, 10.0, 30.0):
        points.add(k * width)
        points.add(fsr - k * width)
        if med.delta0 > 0.0:
            points.add(med.delta0 - k * width)
            points.add(med.delta0 + k * width)
    if med.delta0 > 0.0:
        points.update({0.5 * med.delta0, med.delta0, 1.5 * med.delta0})
    return tuple(p for p in sorted(points) if 0.0 < p < fsr)


def improvement_factor(ifo: IfoParams, med: MediumParams, model: NoiseModel,
                       rel_tol: float = 1e-4, abs_tol: float = 0.0,
                       check_stability: bool = True) -> float:
    """Integrated sensitivity gain over the conventional detector.

    Ratio of the integral of 1/S_hh over one free spectral range to the
    analytic value of the same integral for the detector without the
    medium. Defined only for stable configurations; the stability
    precheck can be skipped by callers that already classified the
    system.
    """
    if check_stability:
        report = classify_system(ifo, med)
        if not report.stable:
            raise ValueError(
                f"improvement factor undefined for {report.classification.value} "
                "configuration")
    fsr = ifo.free_spectral_range
    result = integrate_adaptive(
        lambda omega: 1.0 / strain_psd(ifo, med, model, omega), 0.0, fsr,
        rel_tol=rel_tol, abs_tol=abs_tol,
        breakpoints=_integration_breakpoints(med, fsr))
    return result.value / baseline_integrated_inverse_psd(ifo)


def _labeled_roots(roots: tuple[float, ...], choice: RootChoice):
    """Pair root labels with detuning values; None marks a missing root."""
    by_label = {"smaller": roots[0], "larger": roots[-1]} if roots else {}
    return [(label, by_label.get(label)) for label in choice.labels]


@lru_cache(maxsize=None)
def _infeasible_outcome(rs2: float, label: str) -> RootOutcome:
    """The outcome of a missing detuning root; frozen, so one is shared
    by every infeasible cell with the same reflectivity and label."""
    return RootOutcome(rs2, label, math.nan, CellStatus.INFEASIBLE)


def _classify_and_integrate(spec: SweepSpec, ifo: IfoParams, rs2: float,
                            label: str, med: MediumParams) -> RootOutcome:
    """Outcome of one detuning root at one SRM reflectivity."""
    try:
        report = classify_system(ifo, med, margin=spec.margin)
    except MarginalStabilityError as exc:
        return RootOutcome(rs2, label, med.delta0, CellStatus.OPTICAL_INSTABILITY,
                           marginal=True, note=str(exc))
    status = CellStatus(report.classification.value)
    note = ""
    if report.marginal and status is CellStatus.STABLE:
        # too close to the critical point to trust the winding
        status = CellStatus.OPTICAL_INSTABILITY
        note = "marginal contour reclassified as unstable"
    rho = None
    if status is CellStatus.STABLE:
        try:
            rho = improvement_factor(ifo, med, spec.noise_model,
                                     rel_tol=spec.rel_tol, abs_tol=spec.abs_tol,
                                     check_stability=False)
        except AccuracyError as exc:
            rho = exc.best_estimate
            note = f"integration tolerance not met: {exc}"
    return RootOutcome(rs2, label, med.delta0, status,
                       winding=report.winding,
                       min_distance=report.min_distance_to_critical,
                       marginal=report.marginal, rho_r=rho, note=note)


def _compute_cell(spec: SweepSpec, ifo: IfoParams,
                  point: tuple[float, float]) -> SweepCell:
    eta, xi = point
    gamma12, gamma_opt = map_eta_xi(eta, xi, ifo.tau)
    roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
    labeled = _labeled_roots(roots, spec.root_choice)

    outcomes = []
    for rs2 in spec.srm_power_reflectivities:
        ifo_rs = replace(ifo,
                         srm_amplitude_reflectivity=math.sqrt(rs2),
                         include_additional_noise=spec.include_additional_noise)
        # a repeated root carries both labels; it is evaluated once
        by_root: dict[float, RootOutcome] = {}
        for label, delta0 in labeled:
            if delta0 is None:
                outcomes.append(_infeasible_outcome(rs2, label))
            elif delta0 in by_root:
                outcomes.append(replace(by_root[delta0], root_label=label))
            else:
                med = MediumParams(gamma12, gamma_opt, delta0)
                by_root[delta0] = _classify_and_integrate(spec, ifo_rs, rs2,
                                                          label, med)
                outcomes.append(by_root[delta0])
    return SweepCell(eta=eta, xi=xi, gamma12=gamma12,
                     gamma_opt_total=gamma_opt, feasible=bool(roots),
                     outcomes=tuple(outcomes))


def run_sweep(spec: SweepSpec, ifo: IfoParams, workers: int = 1) -> SweepGrid:
    """Evaluate every (eta, xi) cell of the survey.

    workers > 1 distributes cells over a process pool; the assembly is
    ordered by cell index, so the result does not depend on the worker
    count. Two per-cell failures are recorded in the cell's outcome
    rather than aborting the run: a MarginalStabilityError from
    classify_system (status optical, flagged marginal, with the message
    as note) and an AccuracyError from the rho_r integral (the best
    estimate, with a note). Any other exception in a cell aborts the
    sweep. Raises ZeroSignalError before any cell is computed when the
    readout carries no signal, since no strain noise could be
    integrated.
    """
    if not ifo.reads_signal:
        raise ZeroSignalError(
            f"readout at homodyne angle {ifo.homodyne_angle} carries no signal")
    points = [(eta, xi) for eta in spec.eta_grid for xi in spec.xi_grid]
    job = partial(_compute_cell, spec, ifo)
    if workers == 1:
        cells = [job(p) for p in points]
    else:
        chunk = max(1, len(points) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(job, points, chunksize=chunk))
    return SweepGrid(spec=spec, cells=tuple(cells))
