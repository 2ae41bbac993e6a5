"""Parameter-space survey over the medium coordinates (eta, xi).

Each grid cell maps to medium rates in units of the arm delay (on a
detector with tau = 1; the caller's detector sets only the unit of the
reported rates and detunings), solves the phase-cancellation detuning,
classifies the loop's stability per recycling mirror value and
detuning root, and integrates the sensitivity improvement factor for
the stable configurations. An eta row is the work item: its verdicts
come from one classify_system call, and its integrals, in lockstep,
from one improvement_factor call. The assembly is row-major in
(eta, xi) and bit-identical for any worker count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from itertools import compress
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, MarginalStabilityError
from .interferometer import (
    SPEED_OF_LIGHT,
    IfoParams,
    improvement_factor,
    reference_detector,
    strain_psd,  # noqa: F401  (unused here; bench/test_bench.py reads survey.strain_psd)
)
from .medium import MediumParams, NoiseModel, map_eta_xi, solve_detuning
from .stability import Classification, StabilityReport, classify_system

__all__ = [
    "RootChoice",
    "CellStatus",
    "SweepSpec",
    "RootOutcome",
    "SweepCell",
    "SweepGrid",
    "default_grid",
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
        # a field of the wrong type would be misread or fail deep in a row
        for name, kind in (("eta_grid", tuple), ("xi_grid", tuple),
                           ("srm_power_reflectivities", tuple), ("root_choice", RootChoice),
                           ("include_additional_noise", bool), ("noise_model", NoiseModel)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
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
            raise ValueError("srm_power_reflectivities must lie in [0, 1)")
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


_UNIT_DELAY = replace(reference_detector(), arm_length=SPEED_OF_LIGHT)  # tau == 1.0


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
    media = [MediumParams(gamma12, gamma_opt, delta0) for delta0 in roots]
    return gamma12, gamma_opt, {label: media[0 if label == "smaller" else -1] for label in labels}


@lru_cache(maxsize=None)
def _infeasible_outcomes(reflectivities: tuple[float, ...],
                         choice: RootChoice) -> tuple[RootOutcome, ...]:
    """The outcomes of a cell without a detuning root; frozen, so one
    tuple is shared by every infeasible cell of a sweep."""
    return tuple(RootOutcome(rs2, label, math.nan, CellStatus.INFEASIBLE)
                 for rs2 in reflectivities for label in choice.labels)


# the status of each Nyquist classification, looked up by its value: a
# str key hashes in C, an Enum key through Python-level Enum.__hash__
_STATUS = {c.value: CellStatus(c.value) for c in Classification}
_VALUE = attrgetter("_value_")
# what a MarginalStabilityError verdict leaves in an outcome's columns:
# an optical status flagged marginal, with no winding or distance
_NO_REPORT = StabilityReport(Classification.OPTICAL_INSTABILITY, None, None, None, True)


def _outcomes(reflectivities: tuple[float, ...], labels: list[str], delta0: list[float],
              verdicts: list, errors: list[int], integrate: Callable) -> list[RootOutcome]:
    """The outcome of each configuration k of a row, the rs^2 k // n and
    the medium k % n of n media, under the label and the detuning delta0
    of its medium. verdicts holds its stability report, or at the
    indices errors the MarginalStabilityError that classify_system's row
    form gives in its place; integrate takes the indices of the stable
    ones and gives their rho_r, each a float or the AccuracyError whose
    best estimate stands in for it. Built a column at a time, with one
    status lookup per verdict; equal distances share one float."""
    if not verdicts:
        return []
    notes, reports = [""] * len(verdicts), verdicts.copy()
    for k in errors:
        reports[k], notes[k] = _NO_REPORT, str(verdicts[k])
    classes, windings, distances, _, marginals = zip(*reports)
    statuses = list(map(_STATUS.__getitem__, map(_VALUE, classes)))
    for k in compress(range(len(marginals)), marginals):
        if statuses[k] is CellStatus.STABLE:
            # too close to the critical point to trust the winding
            statuses[k] = CellStatus.OPTICAL_INSTABILITY
            notes[k] = "marginal contour reclassified as unstable"
    rho = [None] * len(verdicts)
    stable = [k for k, status in enumerate(statuses) if status is CellStatus.STABLE]
    for k, value in zip(stable, integrate(stable) if stable else ()):
        if isinstance(value, AccuracyError):
            value, notes[k] = value.best_estimate, f"integration tolerance not met: {value}"
        rho[k] = value
    floats = {}
    return list(map(RootOutcome._make, zip(
        [rs2 for rs2 in reflectivities for _ in range(len(labels))], labels * len(reflectivities),
        delta0 * len(reflectivities), statuses, windings,
        map(floats.setdefault, distances, distances), marginals, rho, notes)))


def _compute_row(spec: SweepSpec, ifo: IfoParams, eta: float) -> list[SweepCell]:
    """The cells of one eta row, solved on _UNIT_DELAY. The row lists its
    media, a repeated root's two labels sharing one, and its
    configuration k is the rs^2 k // n and the medium k % n of n: their
    stability verdicts come from one classify_system call and the rho_r
    of the stable ones from one improvement_factor call, each kept by
    position. An AccuracyError verdict (a near window beyond the sample
    cap) is raised, naming eta, xi and rs^2 of the first in cell order."""
    reflectivities, labels = spec.srm_power_reflectivities, spec.root_choice.labels
    detectors = [replace(_UNIT_DELAY.with_power_reflectivity(rs2),
                         include_additional_noise=spec.include_additional_noise)
                 for rs2 in reflectivities]
    # the media with the label each is first met under, the medium of
    # each label of each feasible cell, and which of those share theirs
    media, first_label, slots, shared, cells = [], [], [], [], []
    for xi in spec.xi_grid:
        gamma12, gamma_opt, by_label = _cell_media(eta, xi, labels)
        cells.append((xi, gamma12, gamma_opt, bool(by_label)))
        for label, med in by_label.items():
            if media and media[-1] is med:
                shared.append(len(slots))
            else:
                media.append(med)
                first_label.append(label)
            slots.append(len(media) - 1)
    n, count, width = len(media), len(reflectivities), len(labels)
    verdicts = classify_system([det for det in detectors for _ in range(n)], media * count)
    errors = [k for k, verdict in enumerate(verdicts) if not isinstance(verdict, StabilityReport)]
    failed = [k for k in errors if isinstance(verdicts[k], AccuracyError)]
    if failed:
        feasible = [xi for xi, *_, has_roots in cells if has_roots]
        cell_of = [slots.index(m) // width for m in range(n)]
        k = min(failed, key=lambda k: (cell_of[k % n], k // n, k))
        raise AccuracyError(f"stability verdict at eta={eta}, xi={feasible[cell_of[k % n]]}, "
                            f"rs^2={reflectivities[k // n]}: {verdicts[k]}")

    def integrate(stable: list[int]) -> list:
        return improvement_factor([detectors[k // n] for k in stable],
                                  [media[k % n] for k in stable], spec.noise_model,
                                  rel_tol=spec.rel_tol)

    # each medium's reported detuning, one float for all its reflectivities
    tau = ifo.tau
    outcomes = _outcomes(reflectivities, first_label, [med.delta0 / tau for med in media],
                         verdicts, errors, integrate)
    # a feasible cell's outcomes run over rs^2, then label: those of the
    # configurations r n + m for the medium m of each label, a shared
    # medium's relabeled
    index = np.array(slots, dtype=int).reshape(-1, 1, width) + n * np.arange(count)[:, None]
    picked = list(map(outcomes.__getitem__, index.ravel().tolist()))
    for e in shared:
        cell, label = divmod(e, width)
        for at in range(cell * count * width + label, (cell + 1) * count * width, width):
            picked[at] = picked[at]._replace(root_label=labels[label])
    picked = tuple(picked)
    infeasible = _infeasible_outcomes(reflectivities, spec.root_choice)
    row, start, size = [], 0, count * width
    for xi, gamma12, gamma_opt, has_roots in cells:
        if has_roots:
            cell_outcomes, start = picked[start:start + size], start + size
        else:
            cell_outcomes = infeasible
        row.append(SweepCell(eta, xi, gamma12 / tau, gamma_opt / tau, has_roots, cell_outcomes))
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
