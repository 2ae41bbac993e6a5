#!/usr/bin/env python3
"""Benchmark of the wlcnoise (eta, xi) survey.

Run from the root of a checkout:

    python3 bench/run.py --workload survey_serial --seed 0 --seconds 10 --trace 0

Workloads (see bench/README.md for why each exists):

  survey_serial   run_sweep at workers=1 over the 50x50 (eta, xi) grid,
                  rs^2 in {0.5, 0.8, 0.9}, both detuning roots, added
                  noise on, local noise model, rel_tol 1e-4
  sweep_cli_pool  ``wlcnoise sweep --threads 0`` on the same inputs,
                  through cli.main in-process, checked from its own CSV
                  tables and summary.json
  stability_gate  classify_system and root_count_oracle on every
                  stationary configuration of the same grid

Seed 0 is the paper's exact grid, default_grid(50), and is checked
outcome by outcome against bench/reference.json. Any other seed shifts
the grid by a seeded fraction of a grid step, and the paper's
invariants are checked instead.

With ``--trace 0`` the workload runs in passes until ``--seconds`` have
passed (at least MIN_PASSES); each pass times its slices one by one, and
the end-to-end times sum, per slice, the fastest pass's time read at a
reference host speed (speed.py). With ``--trace 1`` the workload runs
one untraced and one traced pass, and the per-layer metrics are printed.
The last line of standard output is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path

import speed
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "survey_full.json"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("survey_serial", "sweep_cli_pool", "stability_gate")
GRID_COUNT = 50
GRID_LO, GRID_HI = 0.02, 0.98
RS2 = (0.5, 0.8, 0.9)
REL_TOL = 1e-4
RHO_LIMIT = 1.0 + 1e-3
SETUP_PROBES = 2

# statuses in the order of wlcnoise.survey.CellStatus, one letter each
STATUS_CODES = {"infeasible": "I", "atomic": "A", "non-stationary": "N",
                "optical": "O", "stable": "S"}

END_TO_END = (
    ("wall_s", "s"),
    ("outcomes_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("stability.classify_system.calls", "count"),
    ("stability.classify_system.busy_s", "s"),
    ("stability.classify_system.self_s", "s"),
    ("stability.classify_system.p50_ms", "ms"),
    ("stability.classify_system.p99_ms", "ms"),
    ("stability.open_loop_gain.calls", "count"),
    ("stability.open_loop_gain.busy_s", "s"),
    ("stability.contour_samples", "count"),
    ("numerics.accumulate_winding.calls", "count"),
    ("numerics.accumulate_winding.busy_s", "s"),
    ("stability.root_count_oracle.calls", "count"),
    ("stability.root_count_oracle.busy_s", "s"),
    ("stability.root_count_oracle.p50_ms", "ms"),
    ("stability.root_count_oracle.p99_ms", "ms"),
    ("stability.oracle_disagreements", "count"),
    ("survey.improvement_factor.calls", "count"),
    ("survey.improvement_factor.busy_s", "s"),
    ("survey.improvement_factor.p50_ms", "ms"),
    ("survey.improvement_factor.p98_ms", "ms"),
    ("interferometer.strain_psd.calls", "count"),
    ("interferometer.strain_psd.busy_s", "s"),
    ("interferometer.strain_psd.p50_us", "us"),
    ("numerics.integrate_adaptive.calls", "count"),
    ("numerics.integrate_adaptive.self_s", "s"),
    ("numerics.integrate_adaptive.evaluations", "count"),
    ("numerics.integrate_adaptive.fallbacks", "count"),
    ("numerics.integrate_adaptive.max_error_estimate", "ratio"),
    ("medium.solve_detuning.calls", "count"),
    ("medium.solve_detuning.busy_s", "s"),
    ("survey.self_s", "s"),
    ("survey.cell.p50_ms", "ms"),
    ("survey.cell.p99_ms", "ms"),
    ("survey.outcomes.infeasible", "count"),
    ("survey.outcomes.atomic", "count"),
    ("survey.outcomes.non-stationary", "count"),
    ("survey.outcomes.optical", "count"),
    ("survey.outcomes.stable", "count"),
    ("survey.marginal_reclassified", "count"),
    ("survey.duplicate_outcomes", "count"),
    ("survey.pool.workers", "count"),
    ("survey.pool.chunk_cells", "count"),
    ("survey.pool.efficiency", "ratio"),
    ("survey.pool.predicted_efficiency", "ratio"),
    ("survey.pool.idle_s", "s"),
    ("scenario.load_scenario.busy_s", "s"),
    ("cli.output_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up: import the package from this checkout and build the inputs
# ---------------------------------------------------------------------------

def load_package():
    """Import wlcnoise from this checkout's src/, never from elsewhere."""
    if not (SRC / "wlcnoise" / "__init__.py").is_file():
        raise BenchError(f"no wlcnoise package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wlcnoise
    import wlcnoise.cli  # noqa: F401  (the CLI workload's entry point)
    if not Path(wlcnoise.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported wlcnoise from {wlcnoise.__file__}, not {SRC}")
    return wlcnoise


def grid_bounds(seed: int) -> tuple[float, float]:
    """The paper's grid ends at seed 0; otherwise shifted by a seeded
    fraction of a grid step, in (-1/2, 1/2).

    eta and xi share the shift, so the feasibility diagonal xi = eta
    stays on the grid.
    """
    step = (GRID_HI - GRID_LO) / (GRID_COUNT - 1)
    shift = 0.0 if seed == 0 else random.Random(seed).uniform(-0.5, 0.5) * step
    return GRID_LO + shift, GRID_HI + shift


def survey_grid(seed: int) -> tuple[float, ...]:
    """Built like a scenario's start/stop/count axis, so the CLI sees the
    same values."""
    from wlcnoise.survey import default_grid
    return default_grid(GRID_COUNT, *grid_bounds(seed))


@dataclass(frozen=True)
class GateConfig:
    eta: float
    xi: float
    rs2: float
    root: str
    ifo: object
    med: object


@dataclass(frozen=True)
class Inputs:
    """A workload's inputs, cut into the slices that a pass times one by
    one: a one-row spec per eta for survey_serial, the configurations of
    one eta for stability_gate, and the whole command for sweep_cli_pool."""
    workload: str
    seed: int
    spec: object
    ifo: object
    slices: tuple = (None,)
    scenario_text: str | None = None

    @property
    def configs(self) -> tuple[GateConfig, ...]:
        return tuple(cfg for row in self.slices for cfg in row)


def build_inputs(workload: str, seed: int) -> Inputs:
    from wlcnoise.interferometer import reference_detector
    from wlcnoise.medium import (MediumClass, MediumParams, NoiseModel,
                                 classify_medium, map_eta_xi, solve_detuning)
    from wlcnoise.survey import RootChoice, SweepSpec

    grid = survey_grid(seed)
    spec = SweepSpec(eta_grid=grid, xi_grid=grid, srm_power_reflectivities=RS2,
                     root_choice=RootChoice.BOTH, include_additional_noise=True,
                     noise_model=NoiseModel.LOCAL, rel_tol=REL_TOL)
    ifo = reference_detector(0.8)
    if workload == "sweep_cli_pool":
        doc = json.loads(SCENARIO.read_text(encoding="utf-8"))
        lo, hi = grid_bounds(seed)
        doc["sweep"]["eta"] = doc["sweep"]["xi"] = {
            "start": lo, "stop": hi, "count": GRID_COUNT}
        return Inputs(workload, seed, spec, ifo, scenario_text=json.dumps(doc))
    if workload == "survey_serial":
        return Inputs(workload, seed, spec, ifo,
                      slices=tuple(replace(spec, eta_grid=(eta,)) for eta in grid))
    rows = []
    for eta in grid:
        configs = []
        for xi in grid:
            gamma12, gamma_opt = map_eta_xi(eta, xi, ifo.tau)
            roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
            for rs2 in RS2:
                ifo_rs = ifo.with_power_reflectivity(rs2)
                for k, delta0 in enumerate(roots):
                    med = MediumParams(gamma12, gamma_opt, delta0)
                    if classify_medium(med) is not MediumClass.STATIONARY:
                        continue
                    root = "repeated" if len(roots) == 1 else ("smaller", "larger")[k]
                    configs.append(GateConfig(eta, xi, rs2, root, ifo_rs, med))
        rows.append(tuple(configs))
    return Inputs(workload, seed, spec, ifo, slices=tuple(rows))


def setup(workload: str, seed: int) -> tuple[Inputs, float]:
    """Import wlcnoise and build the inputs; returns them and the time taken."""
    start = time.perf_counter()
    load_package()
    inputs = build_inputs(workload, seed)
    return inputs, time.perf_counter() - start


_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run, speed; "
          "print(run.setup(sys.argv[2], int(sys.argv[3]))[1], speed.slowdown())")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, where the import is cold, and
    the host slowdown sampled right after it."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(BENCH_DIR), workload,
                           str(seed)], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    setup_s, slow = proc.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(slow)


# ---------------------------------------------------------------------------
# workloads: each runs one slice; assemble() joins the slices' outputs
# ---------------------------------------------------------------------------

def survey_slice(inputs: Inputs, row_spec, out_dir: Path):
    from wlcnoise import survey
    return survey.run_sweep(row_spec, inputs.ifo, workers=1).cells


def cli_slice(inputs: Inputs, _, out_dir: Path):
    from wlcnoise import cli
    scenario = SCENARIO
    if inputs.seed != 0:
        scenario = out_dir.with_suffix(".json")
        scenario.write_text(inputs.scenario_text, encoding="utf-8")
    with redirect_stdout(StringIO()):
        code = cli.main(["sweep", "--scenario", str(scenario), "--out", str(out_dir),
                         "--threads", "0"])
    if code != 0:
        raise BenchError(f"wlcnoise sweep exited with code {code}")
    return out_dir


def gate_slice(inputs: Inputs, configs, out_dir: Path):
    """(nyquist_stable, winding, min_distance, zeros, error) per configuration."""
    from wlcnoise import stability
    results = []
    for cfg in configs:
        try:
            report = stability.classify_system(cfg.ifo, cfg.med)
            zeros = stability.root_count_oracle(cfg.ifo, cfg.med)
        except Exception as exc:  # a failed operation, recorded and counted
            results.append((None, None, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        results.append((report.stable, report.winding,
                        report.min_distance_to_critical, zeros, None))
    return results


RUNNERS = {"survey_serial": survey_slice,
           "sweep_cli_pool": cli_slice,
           "stability_gate": gate_slice}

# Every step is speed-adjusted (see speed.py). The gate's large-array
# NumPy work tracks the speed kernel less closely than the survey's, so
# it also keeps each slice's fastest of two passes, which drops a slice
# whose slowdown samples missed a change of host state: over five seeds
# that took its spread from about 13 % to 8 % of the median. The survey
# read about 6 % from one pass, and a second would take a run on the
# slow host state past 70 s.
MIN_PASSES = {"survey_serial": 1, "sweep_cli_pool": 1, "stability_gate": 2}


def assemble(inputs: Inputs, parts: list):
    if inputs.workload == "survey_serial":
        from wlcnoise.survey import SweepGrid
        return SweepGrid(spec=inputs.spec, cells=tuple(c for part in parts for c in part))
    if inputs.workload == "stability_gate":
        return [r for part in parts for r in part]
    return parts[0]


# ---------------------------------------------------------------------------
# checks: results fingerprint, reference and invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Record:
    """One survey outcome, in table order (rs^2, root, then cell order)."""
    rs2: float
    root: str
    eta: float
    xi: float
    status: str
    rho_r: float | None


def records_from_grid(grid) -> list[Record]:
    labels = ("smaller", "larger")
    return [Record(rs2, label, cell.eta, cell.xi, o.status.value, o.rho_r)
            for rs2 in grid.spec.srm_power_reflectivities
            for label in labels
            for cell, o in grid.outcomes(rs2, label)]


def records_from_cli(out_dir: Path) -> tuple[list[Record], list[str]]:
    """Outcomes read back from the CLI's CSV tables, plus any disagreement
    between those tables and summary.json."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    records: list[Record] = []
    problems = []
    for table in summary["tables"]:
        rs2, label = table["srm_power_reflectivity"], table["root"]
        with (out_dir / table["file"]).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        part = [Record(rs2, label, float(r["eta"]), float(r["xi"]), r["classification"],
                       float(r["rho_r"]) if r["rho_r"] else None) for r in rows]
        stable = [r.rho_r for r in part if r.status == "stable"]
        rhos = [v for v in stable if v is not None]
        if table["stable_cells"] != len(stable):
            problems.append(f"{table['file']}: summary stable_cells "
                            f"{table['stable_cells']} != table {len(stable)}")
        if table["max_rho_r"] != (max(rhos) if rhos else None):
            problems.append(f"{table['file']}: summary max_rho_r disagrees with table")
        records.extend(part)
    return records, problems


def fingerprint(records: list[Record]) -> dict:
    """Stable counts per (rs^2, root), status counts, max rho_r, table hash."""
    stable = Counter(f"{r.rs2:g}/{r.root}" for r in records if r.status == "stable")
    rhos = [r.rho_r for r in records if r.status == "stable" and r.rho_r is not None]
    lines = "\n".join(f"{r.rs2!r},{r.root},{r.eta!r},{r.xi!r},{r.status}"
                      for r in records)
    return {
        "outcomes": len(records),
        "status_counts": dict(sorted(Counter(r.status for r in records).items())),
        "stable_counts": {f"{rs2:g}/{label}": stable[f"{rs2:g}/{label}"]
                          for rs2 in RS2 for label in ("smaller", "larger")},
        "max_rho_r": max(rhos) if rhos else None,
        "table_sha256": hashlib.sha256(lines.encode()).hexdigest(),
    }


def reference_from_records(records: list[Record]) -> dict:
    ref = fingerprint(records)
    ref["statuses"] = "".join(STATUS_CODES[r.status] for r in records)
    ref["rho_r"] = [r.rho_r for r in records if r.status == "stable"]
    return ref


def within_tol(value: float | None, expected: float | None) -> bool:
    if value is None or expected is None:
        return value is expected
    return abs(value - expected) <= REL_TOL * abs(expected)


@dataclass
class Check:
    attempted: int
    failed: int
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems


def check_survey(records: list[Record], seed: int, reference: dict) -> Check:
    """Every outcome is checked; a mismatching outcome is a failed operation.

    Everywhere: infeasible exactly when xi > eta, every stable outcome
    carries a finite rho_r <= 1 + 1e-3, and stable counts do not rise
    with rs^2. At seed 0 also: status and rho_r (within rel_tol) of every
    outcome against the reference, and the whole fingerprint.
    """
    problems: list[str] = []
    bad = set()
    for i, r in enumerate(records):
        if (r.status == "infeasible") != (r.xi > r.eta):
            bad.add(i)
        if r.status == "stable" and not (r.rho_r is not None and math.isfinite(r.rho_r)
                                         and r.rho_r <= RHO_LIMIT):
            bad.add(i)
    if len(records) != 6 * GRID_COUNT * GRID_COUNT:
        problems.append(f"{len(records)} outcomes, expected {6 * GRID_COUNT**2}")
    fp = fingerprint(records)
    for label in ("smaller", "larger"):
        counts = [fp["stable_counts"][f"{rs2:g}/{label}"] for rs2 in RS2]
        if counts != sorted(counts, reverse=True):
            problems.append(f"stable counts on the {label} root rise with rs^2: {counts}")
    if seed == 0:
        statuses = reference["statuses"]
        rho_ref = dict(zip((i for i, code in enumerate(statuses) if code == "S"),
                           reference["rho_r"]))
        for i, r in enumerate(records):
            if (i >= len(statuses) or STATUS_CODES[r.status] != statuses[i]
                    or (r.status == "stable" and not within_tol(r.rho_r, rho_ref[i]))):
                bad.add(i)
        for key in ("outcomes", "status_counts", "stable_counts", "table_sha256"):
            if fp[key] != reference[key]:
                problems.append(f"{key} {fp[key]} differs from reference {reference[key]}")
        if not within_tol(fp["max_rho_r"], reference["max_rho_r"]):
            problems.append(f"max rho_r {fp['max_rho_r']} differs from reference "
                            f"{reference['max_rho_r']}")
    if bad:
        problems.append(f"{len(bad)} outcomes fail their checks, first at table "
                        f"row {min(bad)}: {records[min(bad)]}")
    return Check(len(records), len(bad), problems)


def gate_disagreements(inputs: Inputs, results) -> list[dict]:
    """Configurations whose Nyquist verdict and oracle zero count disagree."""
    return [{"eta": c.eta, "xi": c.xi, "rs2": c.rs2, "root": c.root,
             "delta0": c.med.delta0, "winding": w, "zeros": z, "min_distance": d}
            for c, (stable, w, d, z, err) in zip(inputs.configs, results)
            if err is None and stable != (z == 0)]


def check_gate(inputs: Inputs, results, reference: dict) -> Check:
    """A disagreement between the Nyquist verdict and the root-counting
    oracle, or an exception, is a failed operation.

    The run is correct when nothing raised and, at seed 0, the
    configurations are those of the reference and every disagreement is
    one recorded there. A shifted grid has no recorded disagreements, so
    there its disagreements count as failed operations only.
    """
    problems = []
    configs = inputs.configs
    errors = [(c, r[4]) for c, r in zip(configs, results) if r[4] is not None]
    for cfg, err in errors[:3]:
        problems.append(f"exception at eta={cfg.eta!r} xi={cfg.xi!r} rs2={cfg.rs2} "
                        f"{cfg.root} root: {err}")
    found = gate_disagreements(inputs, results)
    if inputs.seed == 0:
        if len(configs) != reference["configurations"]:
            problems.append(f"{len(configs)} configurations, reference has "
                            f"{reference['configurations']}")
        known = {(d["eta"], d["xi"], d["rs2"], d["root"])
                 for d in reference["disagreements"]}
        new = [d for d in found if (d["eta"], d["xi"], d["rs2"], d["root"]) not in known]
        if new:
            problems.append(f"{len(new)} disagreements not in the reference, first {new[0]}")
    return Check(len(configs), len(errors) + len(found), problems)


def check(inputs: Inputs, output, reference: dict) -> Check:
    if inputs.workload == "stability_gate":
        return check_gate(inputs, output, reference["gate"])
    if inputs.workload == "survey_serial":
        return check_survey(records_from_grid(output), inputs.seed, reference["survey"])
    records, problems = records_from_cli(output)
    result = check_survey(records, inputs.seed, reference["survey"])
    result.problems.extend(problems)
    return result


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


@dataclass
class Pass:
    """One pass over all slices, then the check. Per step (the slices,
    then the check): wall and CPU time, and the host slowdown then."""
    walls: list[float]
    cpus: list[float]
    slows: list[float]
    check: Check
    output: object

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def adjusted(self, field: str) -> list[float]:
        """Per-step times read at the reference host speed."""
        return [speed.adjust(t, s) for t, s in zip(getattr(self, field), self.slows)]


def run_pass(inputs: Inputs, work_dir: Path, index: int, reference: dict) -> Pass:
    """Times each slice and the check. The slowdown of a step is sampled
    in-line before and after it, on the CPU the step ran on; the pool's
    workers run on every CPU, so during its slice a background sampler
    takes it instead."""
    out_dir = work_dir / f"run{index}"
    walls: list[float] = []
    cpus: list[float] = []
    slows: list[float] = []
    edge = [speed.slowdown()]

    def timed(fn, *args, background=False):
        sampler = speed.Sampler() if background else nullcontext()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        with sampler:
            result = fn(*args)
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds() - cpu0)
        after = speed.slowdown()
        slows.append(sampler.mean() if background else 0.5 * (edge[0] + after))
        edge[0] = after
        return result

    background = inputs.workload == "sweep_cli_pool"
    parts = [timed(RUNNERS[inputs.workload], inputs, piece, out_dir, background=background)
             for piece in inputs.slices]
    output = assemble(inputs, parts)
    result = timed(check, inputs, output, reference)
    return Pass(walls, cpus, slows, result, output)


def fastest_total(passes: list[Pass], field: str, adjust: bool = True) -> float:
    """Sum over the steps of the fastest pass's time, speed-adjusted
    unless ``adjust`` is false."""
    per_pass = (p.adjusted(field) if adjust else getattr(p, field) for p in passes)
    return sum(map(min, zip(*per_pass)))


def percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def outcome_counts(grid) -> dict[str, float]:
    """Status counts, marginal outcomes and repeated-root duplicates."""
    from wlcnoise.survey import CellStatus
    metrics = {f"survey.outcomes.{s.value}": 0 for s in CellStatus}
    marginal = duplicates = 0
    for cell in grid.cells:
        seen = set()
        for o in cell.outcomes:
            metrics[f"survey.outcomes.{o.status.value}"] += 1
            marginal += o.marginal
            if not math.isnan(o.delta0):
                key = (o.srm_power_reflectivity, o.delta0)
                duplicates += key in seen
                seen.add(key)
    metrics["survey.marginal_reclassified"] = marginal
    metrics["survey.duplicate_outcomes"] = duplicates
    return metrics


def cell_costs(tracer: Tracer) -> list[float]:
    """Per-cell wall time; each cell starts with its one solve_detuning call."""
    starts = tracer.layer("medium.solve_detuning").starts
    sweep = tracer.layer("survey.run_sweep")
    end = sweep.starts[-1] + sweep.durations[-1]
    return [b - a for a, b in zip(starts, starts[1:] + [end])]


def replay_schedule(costs: list[float], workers: int, chunk: int) -> float:
    """Makespan of consecutive chunks handed to the first idle worker."""
    free = [0.0] * workers
    for i in range(0, len(costs), chunk):
        heapq.heappush(free, heapq.heappop(free) + sum(costs[i:i + chunk]))
    return max(free)


def trace_survey_layers(tracer: Tracer) -> None:
    """Wrap every layer the survey and the gate pass through."""
    def count_samples(args, kwargs):
        tracer.counts["contour_samples"] += int(math.prod(getattr(args[2], "shape", ())))

    def quadrature_done(args, kwargs, result):
        tracer.counts["evaluations"] += result.evaluations
        if result.value:
            tracer.note_max("error", result.error_estimate / abs(result.value))

    def quadrature_failed(exc):
        from wlcnoise.errors import AccuracyError
        if isinstance(exc, AccuracyError):
            tracer.counts["fallbacks"] += 1
            if exc.error_estimate is not None and exc.best_estimate:
                tracer.note_max("error", exc.error_estimate / abs(exc.best_estimate))

    tracer.wrap("survey", "run_sweep")
    tracer.wrap("medium", "map_eta_xi")
    tracer.wrap("medium", "solve_detuning")
    tracer.wrap("stability", "classify_system")
    tracer.wrap("stability", "root_count_oracle")
    tracer.wrap("interferometer", "open_loop_gain", before=count_samples)
    tracer.wrap("numerics", "accumulate_winding")
    tracer.wrap("survey", "improvement_factor")
    tracer.wrap("numerics", "integrate_adaptive", after=quadrature_done,
                on_error=quadrature_failed)
    tracer.wrap("interferometer", "strain_psd")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    layer = tracer.layer

    def ms(name, pct):
        return 1e3 * percentile(layer(name).durations, pct)

    classify = layer("stability.classify_system")
    oracle = layer("stability.root_count_oracle")
    improve = layer("survey.improvement_factor")
    psd = layer("interferometer.strain_psd")
    sweep = layer("survey.run_sweep")
    return {
        "stability.classify_system.calls": classify.calls,
        "stability.classify_system.busy_s": classify.busy_s,
        "stability.classify_system.self_s": classify.self_s,
        "stability.classify_system.p50_ms": ms("stability.classify_system", 50),
        "stability.classify_system.p99_ms": ms("stability.classify_system", 99),
        "stability.open_loop_gain.calls": layer("interferometer.open_loop_gain").calls,
        "stability.open_loop_gain.busy_s": layer("interferometer.open_loop_gain").busy_s,
        "stability.contour_samples": tracer.counts["contour_samples"],
        "numerics.accumulate_winding.calls": layer("numerics.accumulate_winding").calls,
        "numerics.accumulate_winding.busy_s": layer("numerics.accumulate_winding").busy_s,
        "stability.root_count_oracle.calls": oracle.calls,
        "stability.root_count_oracle.busy_s": oracle.busy_s,
        "stability.root_count_oracle.p50_ms": ms("stability.root_count_oracle", 50),
        "stability.root_count_oracle.p99_ms": ms("stability.root_count_oracle", 99),
        "survey.improvement_factor.calls": improve.calls,
        "survey.improvement_factor.busy_s": improve.busy_s,
        "survey.improvement_factor.p50_ms": ms("survey.improvement_factor", 50),
        "survey.improvement_factor.p98_ms": ms("survey.improvement_factor", 98),
        "interferometer.strain_psd.calls": psd.calls,
        "interferometer.strain_psd.busy_s": psd.busy_s,
        "interferometer.strain_psd.p50_us": 1e6 * percentile(psd.durations, 50),
        "numerics.integrate_adaptive.calls": layer("numerics.integrate_adaptive").calls,
        "numerics.integrate_adaptive.self_s": layer("numerics.integrate_adaptive").self_s,
        "numerics.integrate_adaptive.evaluations": tracer.counts["evaluations"],
        "numerics.integrate_adaptive.fallbacks": tracer.counts["fallbacks"],
        "numerics.integrate_adaptive.max_error_estimate": tracer.maxima.get("error", 0.0),
        "medium.solve_detuning.calls": layer("medium.solve_detuning").calls,
        "medium.solve_detuning.busy_s": layer("medium.solve_detuning").busy_s,
        "survey.self_s": sweep.self_s,
    }


def run_traced(inputs: Inputs, work_dir: Path, reference: dict):
    """One untraced and one traced pass; returns (checks, metrics)."""
    untraced = run_pass(inputs, work_dir, 0, reference)
    checks = [untraced.check]
    metrics = {name: 0 for name, _ in PER_LAYER}
    if inputs.workload == "sweep_cli_pool":
        from concurrent.futures import ProcessPoolExecutor

        from wlcnoise import survey
        pool = {"workers": 1, "chunk_cells": GRID_COUNT * GRID_COUNT}

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pool["workers"] = max_workers
                super().__init__(max_workers, *args, **kwargs)

            def map(self, fn, *iterables, chunksize=1, **kwargs):
                pool["chunk_cells"] = chunksize
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        # the pool's workers are forked, so only the parent's layers are
        # traced here; per-cell costs come from a serial pass below
        with Tracer() as tracer:
            tracer.patch(survey.ProcessPoolExecutor, RecordingPool)
            tracer.wrap("cli", "main")
            tracer.wrap("scenario", "load_scenario")
            tracer.wrap("survey", "run_sweep")
            traced = run_pass(inputs, work_dir, 1, reference)
        main, sweep = tracer.layer("cli.main"), tracer.layer("survey.run_sweep")
        pool_wall = sweep.durations[0]
        metrics["scenario.load_scenario.busy_s"] = tracer.layer("scenario.load_scenario").busy_s
        metrics["cli.output_s"] = ((main.starts[0] + main.durations[0])
                                   - (sweep.starts[0] + pool_wall))
        metrics["cli.bytes_written"] = sum(p.stat().st_size for p in traced.output.iterdir())
        before = speed.slowdown()
        with Tracer() as cells:
            cells.wrap("survey", "run_sweep")
            cells.wrap("medium", "solve_detuning")
            grid = survey.run_sweep(inputs.spec, inputs.ifo, workers=1)
        serial_slow = 0.5 * (before + speed.slowdown())
        checks.append(check_survey(records_from_grid(grid), inputs.seed,
                                   reference["survey"]))
        costs = cell_costs(cells)
        workers, chunk = pool["workers"], pool["chunk_cells"]
        # the serial and the pool pass ran at different host speeds
        serial_s = speed.adjust(sum(costs), serial_slow)
        pool_s = speed.adjust(pool_wall, traced.slows[0])
        metrics.update(outcome_counts(grid))
        metrics.update({
            "medium.solve_detuning.calls": cells.layer("medium.solve_detuning").calls,
            "medium.solve_detuning.busy_s": cells.layer("medium.solve_detuning").busy_s,
            "survey.cell.p50_ms": 1e3 * percentile(costs, 50),
            "survey.cell.p99_ms": 1e3 * percentile(costs, 99),
            "survey.pool.workers": workers,
            "survey.pool.chunk_cells": chunk,
            "survey.pool.efficiency": serial_s / (workers * pool_s),
            "survey.pool.predicted_efficiency":
                sum(costs) / (workers * replay_schedule(costs, workers, chunk)),
            "survey.pool.idle_s": workers * pool_s - serial_s,
        })
    else:
        with Tracer() as tracer:
            trace_survey_layers(tracer)
            traced = run_pass(inputs, work_dir, 1, reference)
        metrics.update(layer_metrics(tracer))
        if inputs.workload == "survey_serial":
            costs = cell_costs(tracer)
            metrics.update(outcome_counts(traced.output))
            metrics["survey.cell.p50_ms"] = 1e3 * percentile(costs, 50)
            metrics["survey.cell.p99_ms"] = 1e3 * percentile(costs, 99)
        else:
            metrics["stability.oracle_disagreements"] = len(
                gate_disagreements(inputs, traced.output))
    checks.append(traced.check)
    metrics["trace.overhead_s"] = (sum(traced.adjusted("walls"))
                                   - sum(untraced.adjusted("walls")))
    return checks, metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def run_measured(inputs: Inputs, seconds: float, work_dir: Path, reference: dict,
                 first_setup: float):
    """Repeat passes until ``seconds`` have passed, and at least
    MIN_PASSES times; returns (checks, end-to-end metrics).

    wall_s and cpu_s sum, over the slices and the check, the fastest
    pass's speed-adjusted time. Set-up is also timed in fresh
    interpreters, SETUP_PROBES times before each of the first two passes
    and after the last, so that one stretch of the host does not set
    every sample; setup_s is the median speed-adjusted set-up.
    """
    def probe():
        return [probe_setup(inputs.workload, inputs.seed) for _ in range(SETUP_PROBES)]

    setups = [(first_setup, speed.slowdown())]
    passes: list[Pass] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES[inputs.workload]
           or time.perf_counter() - start < seconds):
        if len(passes) < 2:
            setups += probe()
        passes.append(run_pass(inputs, work_dir, len(passes), reference))
    setups += probe()
    wall = fastest_total(passes, "walls")
    for p in passes:
        print(f"pass raw_wall_s {p.wall_s:.3f} mean_slowdown "
              f"{statistics.mean(p.slows):.3f}")
    print(f"raw_wall_s {fastest_total(passes, 'walls', adjust=False):.6g} s "
          f"(per slice, the fastest pass, not speed-adjusted)")
    print(f"raw_cpu_s {fastest_total(passes, 'cpus', adjust=False):.6g} s")
    print(f"raw_setup_s {statistics.median(t for t, _ in setups):.6g} s")
    print("setup samples (s, slowdown) "
          + " ".join(f"{t:.3f},{k:.2f}" for t, k in setups))
    return [p.check for p in passes], {
        "wall_s": wall,
        "outcomes_per_s": passes[0].check.attempted / wall,
        "cpu_s": fastest_total(passes, "cpus"),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(speed.adjust(t, k) for t, k in setups)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload != "sweep_cli_pool":
        # one CPU, so that in-line slowdown samples see the CPU the work ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs, first_setup = setup(workload, seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    print(f"workload {workload} seed {seed} grid {inputs.spec.eta_grid[0]!r}.."
          f"{inputs.spec.eta_grid[-1]!r} x{GRID_COUNT} rs2 {RS2}")
    print("environment " + json.dumps(environment()))
    work_dir = Path(tempfile.mkdtemp(prefix=".benchtmp-", dir=ROOT))
    try:
        if trace:
            checks, metrics = run_traced(inputs, work_dir, reference)
        else:
            checks, metrics = run_measured(inputs, seconds, work_dir, reference,
                                           first_setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    table = PER_LAYER if trace else END_TO_END
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for problem in c.problems:
            print(f"check failed: {problem}")
    for name, unit in table:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    return {"correct": all(c.correct for c in checks), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in table}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
