"""Command line front end: scenario files in, CSV tables out.

Exit codes are a stable contract: 0 success / stable, 1 usage or
scenario errors, 2 optical instability, 3 atomic instability or
non-stationary medium, 4 marginal stability.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import medium as med_mod
from .errors import AccuracyError, MarginalStabilityError
from .scenario import Scenario, ScenarioError, load_scenario
from .stability import Classification, classify_system, nyquist_contour
from .survey import CellStatus, SweepGrid, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSTABLE = 2
EXIT_NOT_STATIONARY = 3
EXIT_MARGINAL = 4

_CLASSIFICATION_EXIT = {
    Classification.STABLE: EXIT_OK,
    Classification.OPTICAL_INSTABILITY: EXIT_UNSTABLE,
    Classification.ATOMIC_INSTABILITY: EXIT_NOT_STATIONARY,
    Classification.NON_STATIONARY: EXIT_NOT_STATIONARY,
}


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(value))


def _write(path: Path, text: str) -> None:
    """Write one output file; an unusable --out is a usage error."""
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ScenarioError(f"--out: {exc}") from None


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    """Write rows of string fields, the header first, as the csv module's
    excel dialect does: no field here holds a comma, a quote or a line
    break, and no row is one empty field, so nothing needs quoting. An
    entry may be several fields already joined by commas."""
    _write(path, "\r\n".join(map(",".join, rows)) + "\r\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ScenarioError(f"usage: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wlcnoise",
                     description="shot noise and stability of a recycled "
                                 "interferometer with an anomalous-dispersion "
                                 "gain medium")
    parser.add_argument("command", choices=["response", "nyquist", "sweep"],
                        help="what to compute")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for sweeps, at most the core "
                             "count and the eta row count (0 = all cores)")
    return parser


def _cmd_response(scenario: Scenario, out_dir: Path) -> int:
    med = scenario.medium
    if med is None:
        raise ScenarioError("response command needs a 'medium' block")
    if scenario.response_omegas is None:
        raise ScenarioError("response command needs a 'response' block")
    header = ["omega", "re_chi", "im_chi", "abs_m", "arg_m",
              "abs_n_plus", "abs_n_minus", "validity_margin"]
    rows = []
    for omega in scenario.response_omegas:
        try:
            chi = med_mod.susceptibility(med, omega)
        except ValueError:  # a pole: no other ValueError arises here
            raise ScenarioError(
                f"response.omega: {_fmt(omega)} is a pole of the medium response "
                "(gamma12 == gamma_opt_total and omega == +-delta0)") from None
        # the other response functions share the pole guard checked above
        m = med_mod.probe_transfer(med, omega)
        n_up, n_lo = med_mod.noise_coefficients(med, omega, med_mod.NoiseModel.COLLECTIVE)
        rows.append([_fmt(omega), _fmt(chi.real), _fmt(chi.imag),
                     _fmt(abs(m)), _fmt(math.atan2(m.imag, m.real)),
                     _fmt(abs(n_up)), _fmt(abs(n_lo)),
                     _fmt(med_mod.validity_margin(med, omega))])
    _write_csv(out_dir / "response.csv", [header, *rows])
    print(f"wrote {out_dir / 'response.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_nyquist(scenario: Scenario, out_dir: Path) -> int:
    med = scenario.medium
    if med is None:
        raise ScenarioError("nyquist command needs a 'medium' block")
    ifo = scenario.detector
    try:
        report = classify_system(ifo, med)
        stationary = report.classification not in (Classification.ATOMIC_INSTABILITY,
                                                    Classification.NON_STATIONARY)
        contour = nyquist_contour(ifo, med) if stationary else None
    except MarginalStabilityError as exc:
        print(f"marginal: {exc}")
        return EXIT_MARGINAL
    except AccuracyError as exc:  # the delay turns grow with the arm and the rates
        raise ScenarioError(f"detector.arm_length, medium: {exc}") from None
    if contour is not None:
        _write_csv(out_dir / "nyquist.csv",
                   [["re", "im"], *([_fmt(z.real), _fmt(z.imag)] for z in contour)])
        print(f"wrote {out_dir / 'nyquist.csv'} ({len(contour)} points)")
    print(f"classification: {report.classification.value}")
    print(f"winding: {report.winding}")
    print(f"min_distance_to_critical: {report.min_distance_to_critical:.6g}")
    print(f"omega_range: [{report.omega_range_used[0]:.6g}, "
          f"{report.omega_range_used[1]:.6g}]")
    if report.marginal:
        print("marginal: contour within 1e-6 of the critical point")
        return EXIT_MARGINAL
    return _CLASSIFICATION_EXIT[report.classification]


def _sweep_tables(grid: SweepGrid, out_dir: Path) -> dict:
    spec = grid.spec
    summary: dict = {
        "eta_count": len(spec.eta_grid),
        "xi_count": len(spec.xi_grid),
        "include_additional_noise": spec.include_additional_noise,
        "noise_model": spec.noise_model.value,
        "tables": [],
    }
    keys = [(rs2, label) for rs2 in spec.srm_power_reflectivities
            for label in spec.root_choice.labels]
    rows = {key: [["eta", "xi", "classification", "delta0", "rho_r"]] for key in keys}
    stable, marginal = dict.fromkeys(keys, 0), dict.fromkeys(keys, 0)
    max_rho = dict.fromkeys(keys)
    # one pass over the cells builds every table's rows and summary counts
    for cell in grid.cells:
        prefix = f"{_fmt(cell.eta)},{_fmt(cell.xi)}"
        for outcome in cell.outcomes:
            key = (outcome.srm_power_reflectivity, outcome.root_label)
            rho = outcome.rho_r
            if outcome.status is CellStatus.STABLE:
                stable[key] += 1
                if rho is not None and (max_rho[key] is None or rho > max_rho[key]):
                    max_rho[key] = rho
            marginal[key] += outcome.marginal
            # delta0 is NaN on infeasible outcomes; rho_r is set only on stable ones
            rows[key].append([prefix, outcome.status.value,
                              "" if math.isnan(outcome.delta0) else _fmt(outcome.delta0),
                              "" if rho is None else _fmt(rho)])
    for rs2, label in keys:
        name = f"sweep_rs2_{_fmt(rs2)}_root_{label}.csv"
        _write_csv(out_dir / name, rows[rs2, label])
        summary["tables"].append({
            "file": name,
            "srm_power_reflectivity": rs2,
            "root": label,
            "stable_cells": stable[rs2, label],
            "marginal_cells": marginal[rs2, label],
            "max_rho_r": max_rho[rs2, label],
        })
    return summary


def _cmd_sweep(scenario: Scenario, out_dir: Path, threads: int) -> int:
    if scenario.sweep is None:
        raise ScenarioError("sweep command needs a 'sweep' block")
    cores = os.cpu_count() or 1
    workers = min(threads, cores) if threads > 0 else cores
    try:
        grid = run_sweep(scenario.sweep, scenario.detector, workers=workers)
    except AccuracyError as exc:  # a near window beyond the sample cap
        raise ScenarioError(f"sweep: {exc}") from None
    summary = _sweep_tables(grid, out_dir)
    summary_path = out_dir / "summary.json"
    _write(summary_path, json.dumps(summary, indent=2) + "\n")
    print(f"wrote {summary_path}")
    for table in summary["tables"]:
        print(f"  {table['file']}: stable={table['stable_cells']}"
              f" max_rho_r={table['max_rho_r']}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 0:
            raise ScenarioError("--threads must be >= 0")
        scenario = load_scenario(args.scenario)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"--out: {exc}") from None
        if args.command == "response":
            return _cmd_response(scenario, out_dir)
        if args.command == "nyquist":
            return _cmd_nyquist(scenario, out_dir)
        return _cmd_sweep(scenario, out_dir, args.threads)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
