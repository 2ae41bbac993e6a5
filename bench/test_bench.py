"""Tests of the benchmark itself: its contract file, its checks, its
tracing and the exact repeatability of the counts it reports.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

run.load_package()

from wlcnoise import cli, survey  # noqa: E402
from wlcnoise.medium import MediumParams  # noqa: E402
from wlcnoise.scenario import load_scenario  # noqa: E402

# counts a later change may quote only while they repeat exactly
EXACT_COUNTS = (
    "stability.classify_system.calls",
    "stability.open_loop_gain.calls",
    "stability.contour_samples",
    "numerics.accumulate_winding.calls",
    "survey.improvement_factor.calls",
    "interferometer.strain_psd.calls",
    "numerics.integrate_adaptive.evaluations",
    "numerics.integrate_adaptive.fallbacks",
    "survey.marginal_reclassified",
    "survey.duplicate_outcomes",
)


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def reference_records(reference):
    """The seed-0 outcomes rebuilt from the reference, in table order."""
    grid = run.survey_grid(0)
    rhos = iter(reference["survey"]["rho_r"])
    codes = {code: status for status, code in run.STATUS_CODES.items()}
    statuses = iter(reference["survey"]["statuses"])
    records = []
    for rs2 in run.RS2:
        for label in ("smaller", "larger"):
            for eta in grid:
                for xi in grid:
                    status = codes[next(statuses)]
                    rho = next(rhos) if status == "stable" else None
                    records.append(run.Record(rs2, label, eta, xi, status, rho))
    return records


def small_spec(count=9):
    grid = survey.default_grid(count, 0.05, 0.95)
    return replace(run.build_inputs("survey_serial", 0).spec, eta_grid=grid, xi_grid=grid)


def traced_counts(spec, ifo):
    with Tracer() as tracer:
        run.trace_survey_layers(tracer)
        grid = survey.run_sweep(spec, ifo, workers=1)
    metrics = run.layer_metrics(tracer)
    metrics.update(run.outcome_counts(grid))
    return {name: metrics[name] for name in EXACT_COUNTS}


def test_benchmark_json_matches_the_harness():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_reference_rebuilds_to_its_own_fingerprint(reference):
    records = reference_records(reference)
    fp = run.fingerprint(records)
    for key in ("outcomes", "status_counts", "stable_counts", "table_sha256", "max_rho_r"):
        assert fp[key] == reference["survey"][key]
    assert fp["status_counts"]["stable"] == 965
    assert fp["max_rho_r"] == pytest.approx(0.9946472793175183, rel=run.REL_TOL)
    result = run.check_survey(records, 0, reference["survey"])
    assert (result.correct, result.failed) == (True, 0)


def test_survey_check_counts_each_wrong_outcome(reference):
    records = reference_records(reference)
    stable = [i for i, r in enumerate(records) if r.status == "stable"]
    optical = next(i for i, r in enumerate(records) if r.status == "optical")
    moved = records[stable[0]]
    records[stable[0]] = replace(moved, rho_r=moved.rho_r * (1 + 3 * run.REL_TOL))
    records[optical] = replace(records[optical], status="stable", rho_r=0.5)
    result = run.check_survey(records, 0, reference["survey"])
    assert not result.correct
    assert result.failed == 2
    # within rel_tol is a match
    records = reference_records(reference)
    records[stable[1]] = replace(records[stable[1]],
                                 rho_r=records[stable[1]].rho_r * (1 + 0.5 * run.REL_TOL))
    assert run.check_survey(records, 0, reference["survey"]).failed == 0


def test_invariants_hold_without_a_reference(reference):
    records = reference_records(reference)
    assert run.check_survey(records, 7, {}).correct
    i = next(i for i, r in enumerate(records) if r.status == "stable")
    records[i] = replace(records[i], rho_r=1.01)
    result = run.check_survey(records, 7, {})
    assert (result.correct, result.failed) == (False, 1)


def test_gate_check_accepts_only_the_recorded_disagreements(reference):
    gate = reference["gate"]
    known = gate["disagreements"]
    assert len(known) == 26 and gate["configurations"] == 5163
    configs = [run.GateConfig(d["eta"], d["xi"], d["rs2"], d["root"], None,
                              MediumParams(1.0, 0.5, d["delta0"])) for d in known]
    extra = replace(configs[0], eta=0.5)
    inputs = run.Inputs("stability_gate", 0, None, None, slices=(tuple(configs + [extra]),))
    results = [(True, 0, d["min_distance"], 1, None) for d in known]
    ok = run.check_gate(inputs, results + [(True, 0, 0.5, 0, None)],
                        {**gate, "configurations": len(configs) + 1})
    assert (ok.correct, ok.failed, ok.attempted) == (True, 26, 27)
    bad = run.check_gate(inputs, results + [(False, 1, 0.5, 0, None)],
                         {**gate, "configurations": len(configs) + 1})
    assert (bad.correct, bad.failed) == (False, 27)
    raised = run.check_gate(inputs, results + [(None, None, None, None, "boom")],
                            {**gate, "configurations": len(configs) + 1})
    assert (raised.correct, raised.failed) == (False, 27)
    # a shifted grid has no recorded disagreements: each only counts as failed
    shifted = replace(inputs, seed=5)
    unknown = run.check_gate(shifted, results + [(False, 2, 0.5, 0, None)], {})
    assert (unknown.correct, unknown.failed) == (True, 27)


def test_shifted_grid_is_seeded_and_matches_the_cli_axis(tmp_path):
    assert run.survey_grid(0) == survey.default_grid(50)
    shifted = run.survey_grid(11)
    assert shifted == run.survey_grid(11) != run.survey_grid(12)
    assert 0.0 < shifted[0] < shifted[-1] < 1.0
    inputs = run.build_inputs("sweep_cli_pool", 11)
    path = tmp_path / "scenario.json"
    path.write_text(inputs.scenario_text, encoding="utf-8")
    spec = load_scenario(path).sweep
    assert spec.eta_grid == spec.xi_grid == shifted
    assert spec == inputs.spec


def test_cli_tables_give_the_serial_fingerprint(tmp_path):
    spec = small_spec()
    ifo = run.build_inputs("survey_serial", 0).ifo
    scenario = json.loads(run.SCENARIO.read_text(encoding="utf-8"))
    scenario["sweep"]["eta"] = scenario["sweep"]["xi"] = list(spec.eta_grid)
    (tmp_path / "s.json").write_text(json.dumps(scenario), encoding="utf-8")
    assert cli.main(["sweep", "--scenario", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
    records, problems = run.records_from_cli(tmp_path / "out")
    serial = run.records_from_grid(survey.run_sweep(spec, ifo, workers=1))
    assert problems == []
    assert records == serial
    assert run.fingerprint(records) == run.fingerprint(serial)


def test_sliced_passes_equal_one_run_sweep():
    spec = small_spec()
    ifo = run.build_inputs("survey_serial", 0).ifo
    inputs = run.Inputs("survey_serial", 0, spec, ifo,
                        slices=tuple(replace(spec, eta_grid=(eta,)) for eta in spec.eta_grid))
    sliced = run.assemble(inputs, [run.survey_slice(inputs, row, None)
                                   for row in inputs.slices])
    assert sliced == survey.run_sweep(spec, ifo, workers=1)


def test_fastest_total_keeps_each_slices_fastest_pass():
    slow = 2.0 ** (1.0 / speed.SLOWDOWN_EXPONENT)  # halves an adjusted time
    passes = [run.Pass([1.0, 5.0, 0.1], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], None, None),
              run.Pass([2.0, 3.0, 0.2], [0.5, 2.0, 1.0], [1.0, slow, 1.0], None, None)]
    assert run.fastest_total(passes, "walls", adjust=False) == pytest.approx(4.1)
    assert run.fastest_total(passes, "walls") == pytest.approx(1.0 + 1.5 + 0.1)
    assert run.fastest_total(passes, "cpus") == pytest.approx(0.5 + 1.0 + 1.0)


def test_counts_repeat_exactly():
    spec = small_spec()
    ifo = run.build_inputs("survey_serial", 0).ifo
    first = traced_counts(spec, ifo)
    assert first["survey.improvement_factor.calls"] > 0
    assert first["survey.duplicate_outcomes"] == 3 * 9
    assert first == traced_counts(spec, ifo)


def test_tracer_restores_every_binding():
    originals = {name: getattr(survey, name) for name in
                 ("classify_system", "improvement_factor", "strain_psd", "run_sweep")}
    with Tracer() as tracer:
        run.trace_survey_layers(tracer)
        assert survey.classify_system is not originals["classify_system"]
        assert cli.run_sweep is survey.run_sweep is not originals["run_sweep"]
    assert {name: getattr(survey, name) for name in originals} == originals
    assert cli.run_sweep is originals["run_sweep"]


def test_replayed_schedule_hands_chunks_to_the_first_idle_worker():
    assert run.replay_schedule([1.0] * 8, 2, 2) == 4.0
    assert run.replay_schedule([4.0, 1.0, 1.0, 1.0], 2, 1) == 4.0
    assert run.replay_schedule([1.0, 1.0, 4.0, 1.0], 2, 2) == 5.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "survey_serial",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
