"""Parameter-space survey over the medium coordinates (eta, xi).

Each grid cell maps to medium rates in units of the arm delay (on a
detector with tau = 1; the caller's detector sets only the unit of the
reported rates and detunings), solves the phase-cancellation detuning,
classifies the loop's stability per recycling mirror value and
detuning root, and integrates the sensitivity improvement factor for
the stable configurations. An eta row is the work item: its verdicts
are computed together, and its integrals in lockstep, in one
improvement_factor call. The assembly is row-major in (eta, xi) and bit-identical for any worker count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AccuracyError, MarginalStabilityError
from .interferometer import (
    SPEED_OF_LIGHT,
    IfoParams,
    _strain_noise,
    _strain_terms,
    baseline_integrated_inverse_psd,
    reference_detector,
    strain_psd,  # noqa: F401  (unused here; bench/test_bench.py reads survey.strain_psd)
)
from .medium import MediumParams, NoiseModel, map_eta_xi, solve_detuning
from .numerics import _integrate_many
from .stability import _ROW_SAMPLES, _Loop, _verdicts, classify_system

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


def __getattr__(name: str):
    # the process pool pulls in multiprocessing, socket and logging, which
    # only a pooled sweep needs: import it on first access and bind it, so
    # a rebinding of survey.ProcessPoolExecutor is what run_sweep uses
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


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

    def __post_init__(self) -> None:
        for name, grid in (("eta_grid", self.eta_grid), ("xi_grid", self.xi_grid)):
            if not grid:
                raise ValueError(f"{name} is empty")
            if any(not 0.0 < v < 1.0 for v in grid):
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly ascending")
        if not self.srm_power_reflectivities:
            raise ValueError("srm_power_reflectivities is empty")
        if any(not 0.0 <= v < 1.0 for v in self.srm_power_reflectivities):
            raise ValueError("SRM power reflectivities must lie in [0, 1)")
        if len(set(self.srm_power_reflectivities)) < len(self.srm_power_reflectivities):
            raise ValueError("srm_power_reflectivities must not repeat a value")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        # the rows' rates (at tau = 1) grow with eta and with xi, so the
        # first cell has the smallest: if they do not round to 0, none do
        map_eta_xi(self.eta_grid[0], self.xi_grid[0], 1.0)


class RootOutcome(NamedTuple):
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


class SweepCell(NamedTuple):
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
    """Panel seeds, unsorted, at the known sharp features of the inverse noise curve."""
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
    return tuple(points)


def improvement_factor(ifo: IfoParams | Sequence[IfoParams],
                       med: MediumParams | Sequence[MediumParams], model: NoiseModel,
                       rel_tol: float = 1e-4,
                       check_stability: bool = True) -> float | list[float | AccuracyError]:
    """Integrated sensitivity gain over the conventional detector.

    Ratio of the integral of 1/S_hh over one free spectral range to the
    analytic value of the same integral for the detector without the
    medium. Defined only for stable configurations; the stability
    precheck can be skipped by callers that already classified the
    system. Raises AccuracyError when the quadrature misses rel_tol;
    its best and error estimates are in the units of the ratio.

    ifo and med may also be equal-length sequences of detectors and
    media: their integrals are then taken in lockstep, each to the same
    bits as alone, and the call returns a list holding each
    configuration's ratio, or its AccuracyError in its place; any other
    error (a singular closed loop) is raised for the whole call.
    """
    single = isinstance(ifo, IfoParams)
    detectors, media = ((ifo,), (med,)) if single else (tuple(ifo), tuple(med))
    if len(detectors) != len(media):
        raise ValueError(f"{len(detectors)} detectors for {len(media)} media")
    if check_stability:
        for ifo, med in zip(detectors, media):
            report = classify_system(ifo, med)
            if not report.stable:
                raise ValueError(
                    f"improvement factor undefined for {report.classification.value} "
                    "configuration")
    terms = np.array([_strain_terms(ifo, med, model) for ifo, med in zip(detectors, media)]).T
    results = _integrate_many(
        lambda omega, owner: 1.0 / _strain_noise(omega, *terms[:, owner]),
        [(0.0, ifo.free_spectral_range,
          _integration_breakpoints(med, ifo.free_spectral_range))
         for ifo, med in zip(detectors, media)], rel_tol=rel_tol)
    rho = []
    for ifo, result in zip(detectors, results):
        baseline = baseline_integrated_inverse_psd(ifo)
        if isinstance(result, AccuracyError):
            rho.append(AccuracyError(str(result), best_estimate=result.best_estimate / baseline,
                                     error_estimate=result.error_estimate / baseline))
        else:
            rho.append(result.value / baseline)
    if not single:
        return rho
    if isinstance(rho[0], AccuracyError):
        raise rho[0]
    return rho[0]


_UNIT_DELAY = replace(reference_detector(), arm_length=SPEED_OF_LIGHT)  # tau == 1.0

# integrals per improvement_factor call of a row: a Simpson level holds
# at most about 90 points per integral at the survey's rel_tol, so a call
# keeps to the row budget of _ROW_SAMPLES (2^18) points
_ROW_INTEGRALS = _ROW_SAMPLES // 128


def _cell_media(eta: float, xi: float, labels: tuple[str, ...]):
    """Rates (gamma12, gamma_opt_total) of the survey cell (eta, xi) and
    its medium per root label, {label: MediumParams}, empty without a
    detuning, all in units of 1/tau; a repeated root is both "smaller"
    and "larger", so the two labels share one medium. The rates stay
    below about 1e31 for every float eta < 1."""
    gamma12, gamma_opt = map_eta_xi(eta, xi, 1.0)
    roots = solve_detuning(gamma12, gamma_opt, 1.0)
    if not roots:
        return gamma12, gamma_opt, {}
    ends = {label: roots[0] if label == "smaller" else roots[-1] for label in labels}
    media = {delta0: MediumParams(gamma12, gamma_opt, delta0)
             for delta0 in set(ends.values())}
    return gamma12, gamma_opt, {label: media[delta0] for label, delta0 in ends.items()}


@lru_cache(maxsize=None)
def _infeasible_outcomes(reflectivities: tuple[float, ...],
                         choice: RootChoice) -> tuple[RootOutcome, ...]:
    """The outcomes of a cell without a detuning root; frozen, so one
    tuple is shared by every infeasible cell of a sweep."""
    return tuple(RootOutcome(rs2, label, math.nan, CellStatus.INFEASIBLE)
                 for rs2 in reflectivities for label in choice.labels)


def _status(verdict) -> tuple[CellStatus, str]:
    """Status and note of one configuration from its stability verdict:
    a report, or the MarginalStabilityError that classify_system raises
    for it."""
    if isinstance(verdict, MarginalStabilityError):
        return CellStatus.OPTICAL_INSTABILITY, str(verdict)
    status = CellStatus(verdict.classification.value)
    if verdict.marginal and status is CellStatus.STABLE:
        # too close to the critical point to trust the winding
        return CellStatus.OPTICAL_INSTABILITY, "marginal contour reclassified as unstable"
    return status, ""


def _outcome(rs2: float, label: str, delta0: float, verdict, status: CellStatus, note: str,
             rho, floats: dict) -> RootOutcome:
    """Outcome of one detuning root at one SRM reflectivity, from its
    verdict, its _status and its rho_r: None, a float, or the
    AccuracyError whose best estimate stands in for it. Its distance is
    looked up in floats, so that equal distances share one float."""
    if isinstance(verdict, MarginalStabilityError):
        return RootOutcome(rs2, label, delta0, status, marginal=True, note=note)
    if isinstance(rho, AccuracyError):
        rho, note = rho.best_estimate, f"integration tolerance not met: {rho}"
    distance = verdict.min_distance_to_critical
    return RootOutcome(rs2, label, delta0, status, winding=verdict.winding,
                       min_distance=floats.setdefault(distance, distance),
                       marginal=verdict.marginal, rho_r=rho, note=note)


def _compute_row(spec: SweepSpec, ifo: IfoParams, eta: float) -> list[SweepCell]:
    """The cells of one eta row, solved on _UNIT_DELAY. The stability
    verdicts of all its distinct (rs^2, medium) configurations come from
    one _verdicts call and the rho_r of its stable ones from one
    improvement_factor call per _ROW_INTEGRALS of them; a repeated
    root's two labels share one configuration and one rho_r. An
    AccuracyError verdict (a near window beyond the sample cap) is
    raised, naming eta, xi and rs^2."""
    detectors = {rs2: replace(_UNIT_DELAY.with_power_reflectivity(rs2),
                              include_additional_noise=spec.include_additional_noise)
                 for rs2 in spec.srm_power_reflectivities}
    cells = [(xi, *_cell_media(eta, xi, spec.root_choice.labels)) for xi in spec.xi_grid]
    # each medium's reported detuning, one float for all its reflectivities
    delta0 = {med: med.delta0 / ifo.tau for *_, media in cells for med in media.values()}
    first_label = {}  # (rs^2, medium) -> the first root label that names it, and its xi
    for xi, _, _, media in cells:
        for rs2 in detectors:
            for label, med in media.items():
                first_label.setdefault((rs2, med), (label, xi))
    verdicts = _verdicts([(_Loop.of(detectors[rs2], med), med) for rs2, med in first_label])
    for ((rs2, _), (_, xi)), verdict in zip(first_label.items(), verdicts):
        if isinstance(verdict, AccuracyError):
            raise AccuracyError(f"stability verdict at eta={eta}, xi={xi}, "
                                f"rs^2={rs2}: {verdict}")
    statuses = [_status(verdict) for verdict in verdicts]
    stable = [key for key, (status, _) in zip(first_label, statuses)
              if status is CellStatus.STABLE]
    rho = {}
    for start in range(0, len(stable), _ROW_INTEGRALS):
        chunk = stable[start:start + _ROW_INTEGRALS]
        rho.update(zip(chunk, improvement_factor(
            [detectors[rs2] for rs2, _ in chunk], [med for _, med in chunk],
            spec.noise_model, rel_tol=spec.rel_tol, check_stability=False)))
    # a row's loops with an empty near window all report the bound
    # 1 - level of their rs^2 as distance: one float for each
    floats = {}
    outcome_of = {(rs2, med): _outcome(rs2, label, delta0[med], verdict, *status,
                                       rho.get((rs2, med)), floats)
                  for ((rs2, med), (label, _)), verdict, status
                  in zip(first_label.items(), verdicts, statuses)}
    row = []
    for xi, gamma12, gamma_opt, media in cells:
        outcomes = []
        for rs2 in detectors:
            for label, med in media.items():
                outcome = outcome_of[rs2, med]
                outcomes.append(outcome if outcome.root_label == label
                                else outcome._replace(root_label=label))
        if not media:
            outcomes = _infeasible_outcomes(spec.srm_power_reflectivities, spec.root_choice)
        row.append(SweepCell(eta, xi, gamma12 / ifo.tau, gamma_opt / ifo.tau, bool(media),
                             tuple(outcomes)))
    return row


def run_sweep(spec: SweepSpec, ifo: IfoParams, workers: int = 1) -> SweepGrid:
    """Evaluate every (eta, xi) cell of the survey, one eta row at a time.

    workers > 1 distributes the rows over a process pool of at most one
    worker per row, one row per task; a single row runs in-process. The
    assembly is ordered by cell index, so the result does not depend on
    the worker count. Raises ValueError when workers < 1, before any
    cell is computed. Two per-cell failures are recorded in
    the cell's outcome rather than aborting the run: a
    MarginalStabilityError from the stability verdict (status optical,
    flagged marginal, with the message as note) and an AccuracyError
    from the rho_r integral (its best estimate of rho_r, with a note). Any other
    exception in a row aborts the sweep: an AccuracyError from a
    stability verdict (a near window beyond the sample cap) names its
    eta, xi and rs^2. Only ifo's arm delay is read, as the unit of the
    cells' rates (divided by tau once per cell) and the outcomes' delta0
    (once per medium).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    job = partial(_compute_row, spec, ifo)
    workers = min(workers, len(spec.eta_grid))
    if workers == 1:
        rows = [job(eta) for eta in spec.eta_grid]
    else:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, spec.eta_grid))
    return SweepGrid(spec=spec, cells=tuple(cell for row in rows for cell in row))
