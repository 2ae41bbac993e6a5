import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wlcnoise
from wlcnoise import cli, stability, survey
from wlcnoise.cli import main
from wlcnoise.errors import AccuracyError
from wlcnoise.interferometer import reference_detector
from wlcnoise.medium import MediumParams, map_eta_xi, solve_detuning
from wlcnoise.scenario import ScenarioError, load_scenario
from wlcnoise.survey import CellStatus, RootChoice, SweepSpec, default_grid, run_sweep

DETECTOR = {"arm_length": 4000.0, "srm_power_reflectivity": 0.5}
TAU = 4000.0 / 299792458.0
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_csv_writer_bytes(path, rows=None):
    """The file holds exactly what csv.writer writes for these rows of
    fields, by default the fields csv.reader reads back from it."""
    if rows is None:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    expected = io.StringIO()
    csv.writer(expected).writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 2e4, "gamma_opt_total": 1e3, "delta0": 5e3},
    })
    scenario = load_scenario(path)
    assert scenario.detector.arm_length == 4000.0
    assert scenario.detector.srm_amplitude_reflectivity == pytest.approx(
        math.sqrt(0.5))
    assert scenario.medium == MediumParams(2e4, 1e3, 5e3)


def test_scenario_eta_xi_medium(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"eta": 0.4, "xi": 0.1, "root": "larger"},
    })
    med = load_scenario(path).medium
    gamma12, gamma_opt = map_eta_xi(0.4, 0.1, TAU)
    assert med.gamma12 == pytest.approx(gamma12)
    assert med.delta0 == pytest.approx(
        solve_detuning(gamma12, gamma_opt, TAU)[-1])


def test_scenario_repeated_root_matches_the_sweep(tmp_path):
    # at xi == eta the detuning is a repeated root: both labels load it,
    # and the sweep's outcomes at that cell carry the same delta0
    media = [load_scenario(write_scenario(tmp_path, {
        "detector": DETECTOR, "medium": {"eta": 0.4, "xi": 0.4, "root": root},
    })).medium for root in ("smaller", "larger")]
    assert media[0] == media[1]
    detector = load_scenario(write_scenario(tmp_path, {"detector": DETECTOR})).detector
    spec = survey.SweepSpec(eta_grid=(0.4,), xi_grid=(0.4,))
    (cell,) = run_sweep(spec, detector).cells
    assert [o.delta0 for o in cell.outcomes] == [media[0].delta0] * 2


def test_scenario_infeasible_eta_xi(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"eta": 0.1, "xi": 0.4, "root": "smaller"},
    })
    with pytest.raises(ScenarioError, match="xi <= eta"):
        load_scenario(path)


def test_sweep_rejects_infeasible_medium(tmp_path, capsys):
    # the medium block is solved at load time, so an infeasible one
    # fails every command, a sweep that never reads it included
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"eta": 0.1, "xi": 0.4},
        "sweep": {"eta": [0.5], "xi": [0.3], "srm_power_reflectivities": [0.5],
                  "root_choice": "larger"},
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "error: medium" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert not list(tmp_path.glob("sweep_*.csv"))


def test_axis_parses_to_default_grid(tmp_path):
    # a start/stop/count axis and the survey's default grid are one
    # computation, so a scenario and the library see the same floats
    spec = load_scenario(SCENARIOS / "survey_full.json").sweep
    assert spec.eta_grid == spec.xi_grid == default_grid(50, 0.02, 0.98)
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {"eta": {"start": 0.1, "stop": 0.7, "count": 1},
                  "xi": {"start": 0.03, "stop": 0.91, "count": 7}},
    })
    spec = load_scenario(path).sweep
    assert spec.eta_grid == default_grid(1, 0.1, 0.7) == (0.5 * (0.1 + 0.7),)
    assert spec.xi_grid == default_grid(7, 0.03, 0.91)


def test_scenario_syntax_error_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "detector": {,}\n}\n', encoding="utf-8")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(path)


@pytest.mark.parametrize("medium", [
    {},  # neither form
    {"gamma12": 1e3, "eta": 0.5, "xi": 0.5},  # both forms
    {"gamma12": -1.0, "gamma_opt_total": 1.0},
    {"eta": 0.5, "xi": 0.5, "root": "middle"},
    {"gamma12": 1e3, "gamma_opt_total": 1.0, "root": "larger"},  # mixed forms
])
def test_scenario_medium_validation(tmp_path, medium):
    path = write_scenario(tmp_path, {"detector": DETECTOR, "medium": medium})
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_unknown_fields(tmp_path):
    path = write_scenario(tmp_path, {"detector": DETECTOR, "mediun": {}})
    with pytest.raises(ScenarioError, match="unknown"):
        load_scenario(path)


def test_readme_schema_example_loads(tmp_path):
    # the README's schema example is a scenario the loader accepts, so
    # it names no field the schema has dropped
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S)
    path = tmp_path / "readme.json"
    path.write_text(example, encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.medium is not None and scenario.response_omegas is not None
    assert scenario.sweep is not None


_ONE_CELL_SWEEP = {"eta": [0.5], "xi": [0.3], "srm_power_reflectivities": [0.5]}


@pytest.mark.parametrize("command,doc,block,key", [
    ("nyquist", {"detector": {**DETECTOR, "homodyne_angel": 1.57},
                 "medium": {"eta": 0.4, "xi": 0.4}},
     "detector", "homodyne_angel"),
    ("nyquist", {"detector": DETECTOR,
                 "medium": {"eta": 0.4, "xi": 0.4, "root_chioce": "larger"}},
     "medium", "root_chioce"),
    ("response", {"detector": DETECTOR,
                  "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3, "delta0": 2e4},
                  "response": {"omega": [0.0], "omgea": [1.0]}},
     "response", "omgea"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {**_ONE_CELL_SWEEP, "rel_tl": 1e-12}},
     "sweep", "rel_tl"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {**_ONE_CELL_SWEEP,
                         "xi": {"start": 0.1, "stop": 0.9, "count": 3,
                                "step": 0.4}}},
     "sweep.xi", "step"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {**_ONE_CELL_SWEEP, "abs_tol": 1e-12}},
     "sweep", "abs_tol"),
    ("sweep", {"detector": {**DETECTOR, "homodyne_angle": 0.0},
               "sweep": _ONE_CELL_SWEEP},
     "detector", "homodyne_angle"),
    ("nyquist", {"detector": {**DETECTOR, "carrier_angular_frequency": 1.0},
                 "medium": {"eta": 0.4, "xi": 0.4}},
     "detector", "carrier_angular_frequency"),
    ("sweep", {"detector": {**DETECTOR, "include_additional_noise": False},
               "sweep": _ONE_CELL_SWEEP},
     "detector", "include_additional_noise"),
    ("sweep", {"detector": DETECTOR, "noise_model": "collective",
               "sweep": _ONE_CELL_SWEEP},
     "scenario", "noise_model"),
    ("response", {"detector": DETECTOR,
                  "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3,
                             "delta0": 2e4, "atom_count": 3},
                  "response": {"omega": [0.0]}},
     "medium", "atom_count"),
    ("nyquist", {"detector": {**DETECTOR, "circulating_power": 800e3},
                 "medium": {"eta": 0.4, "xi": 0.4}},
     "detector", "circulating_power"),
    ("sweep", {"detector": {**DETECTOR, "carrier_wavelength": 1.064e-6},
               "sweep": _ONE_CELL_SWEEP},
     "detector", "carrier_wavelength"),
], ids=["detector", "medium", "response", "sweep", "axis", "sweep-abs-tol",
        "detector-homodyne-angle", "detector-carrier-angular-frequency",
        "detector-include-additional-noise", "noise-model", "medium-atom-count",
        "detector-circulating-power", "detector-carrier-wavelength"])
def test_scenario_unknown_field_in_each_block(tmp_path, capsys, command, doc,
                                              block, key):
    # a misspelt or retired key fails by block and name; it never runs
    # the command on the defaults
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: unknown fields") and key in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,key", [
    ("nyquist", '{"detector": {"arm_length": 4000.0, "srm_power_reflectivity": 0.5, '
                '"srm_power_reflectivity": 0.9}, "medium": {"eta": 0.4, "xi": 0.4}}',
     "srm_power_reflectivity"),
    ("sweep", '{"detector": {"arm_length": 4000.0, "srm_power_reflectivity": 0.5}, '
              '"sweep": {"eta": [0.5], "xi": [0.3], "xi": [0.4]}}',
     "xi"),
], ids=["detector", "sweep"])
def test_scenario_repeated_field(tmp_path, capsys, command, text, key):
    # a key given twice fails by name; json.loads alone would run on the
    # last value (here an unstable rs^2 = 0.9 after a stable 0.5)
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: field '{key}' is given twice in one object\n"
    assert not out.exists()


@pytest.mark.parametrize("command,doc,literal,field", [
    ("nyquist", {"detector": {**DETECTOR, "arm_length": "@"},
                 "medium": {"eta": 0.4, "xi": 0.4}},
     "NaN", "detector.arm_length"),
    ("nyquist", {"detector": {**DETECTOR, "arm_length": "@"},
                 "medium": {"eta": 0.4, "xi": 0.4}},
     "1e400", "detector.arm_length"),
    ("nyquist", {"detector": {**DETECTOR, "srm_power_reflectivity": "@"},
                 "medium": {"eta": 0.4, "xi": 0.4}},
     "9" * 401, "detector.srm_power_reflectivity"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {"eta": {"start": 0.1, "stop": 0.9, "count": "@"},
                         "xi": [0.1]}},
     "9" * 401, "sweep.eta.count: expected a positive integer"),
    ("response", {"detector": DETECTOR,
                  "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3,
                             "delta0": 2e4},
                  "response": {"omega": [0.0, "@"]}},
     "NaN", "response.omega"),
    ("response", {"detector": DETECTOR,
                  "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3,
                             "delta0": 2e4},
                  "response": {"omega": [0.0, "@"]}},
     "-Infinity", "response.omega"),
], ids=["nan", "overflowing-float", "huge-integer", "huge-axis-count",
        "nan-omega", "infinite-omega"])
def test_scenario_non_finite_numbers(tmp_path, capsys, command, doc, literal,
                                     field):
    # numbers with no finite float value are rejected by field, never
    # turned into NaN rows, misleading messages or tracebacks
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    assert main([command, "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    assert f"error: {field}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


def test_detector_needs_arm_length(tmp_path, capsys):
    detector = {k: v for k, v in DETECTOR.items() if k != "arm_length"}
    path = write_scenario(tmp_path, {**_nyquist_doc(0.5), "detector": detector})
    assert main(["nyquist", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: detector: missing required field 'arm_length'\n"
    assert not (tmp_path / "nyquist.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("arm_length", 1e200),
    ("arm_length", 1e-200),
], ids=["squared-arm-overflow", "signal-scale-underflow"])
def test_detector_out_of_float_range(tmp_path, capsys, field, value):
    # finite inputs whose derived scales overflow or underflow to 0 fail
    # at load by field, not with a non-finite integrand inside the sweep
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, field: value},
        "sweep": {"eta": [0.02], "xi": [0.02],
                  "srm_power_reflectivities": [0.5]},
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector.") and field in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command,doc,field", [
    ("sweep", {"detector": DETECTOR,
               "sweep": {"eta": {"start": 0.1, "stop": 0.9, "count": True},
                         "xi": [0.1]}},
     "sweep.eta.count"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {"eta": [0.5],
                         "xi": {"start": 0.1, "stop": 0.9, "count": 10_001}}},
     "sweep.xi.count"),
    # SweepSpec's own checks name the scenario field, not the attribute
    ("sweep", {"detector": DETECTOR, "sweep": {"eta": [0.5, 0.3], "xi": [0.1]}},
     "sweep.eta: must be strictly ascending"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {"eta": [0.5], "xi": {"start": 0.0, "stop": 0.4, "count": 3}}},
     "sweep.xi: must lie strictly inside (0, 1)"),
    ("sweep", {"detector": DETECTOR, "sweep": {"eta": [0.5], "xi": []}}, "sweep.xi: is empty"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {"eta": [0.5], "xi": [0.1], "srm_power_reflectivities": [0.5, 1.0]}},
     "sweep.srm_power_reflectivities: must lie in [0, 1)"),
    ("sweep", {"detector": DETECTOR,
               "sweep": {"eta": [0.5], "xi": [0.1], "srm_power_reflectivities": [0.5, 0.5]}},
     "sweep.srm_power_reflectivities: must not repeat a value"),
], ids=["boolean-count", "count-over-limit", "descending-eta", "xi-out-of-range", "empty-xi",
        "reflectivity-out-of-range", "repeated-reflectivity"])
def test_scenario_axis_and_atom_count_validation(tmp_path, capsys, command,
                                                 doc, field):
    path = write_scenario(tmp_path, doc)
    assert main([command, "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / f"{command}.csv").exists()


_HUGE_COUNT_PROBE = """
import sys, tracemalloc
from wlcnoise.cli import main
tracemalloc.start()
code = main(["response", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(code, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX rlimits")
def test_scenario_huge_count_rejected_before_allocation(tmp_path):
    # a count of 10^18 is refused before any grid list is built; the
    # probe runs under a 1 GiB address-space cap, so a missing check
    # fails with a MemoryError instead of exhausting the host
    import resource

    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3, "delta0": 2e4},
        "response": {"omega": {"start": 0.0, "stop": 1e4, "count": 10**18}},
    })

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.dirname(os.path.dirname(wlcnoise.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _HUGE_COUNT_PROBE, str(path),
                           str(tmp_path)], env=env, preexec_fn=cap_memory,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 1
    assert "error: response.omega.count: at most 10000" in proc.stderr
    assert peak < 2**20


def test_cli_import_leaves_scipy_unloaded():
    # the runtime depends on NumPy only; SciPy, when installed, is not
    # imported by the package
    src = os.path.dirname(os.path.dirname(wlcnoise.__file__))
    probe = ("import sys, wlcnoise.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_leaves_process_pool_unloaded():
    # only a pooled sweep needs concurrent.futures and multiprocessing;
    # survey.ProcessPoolExecutor imports them on first access
    src = os.path.dirname(os.path.dirname(wlcnoise.__file__))
    probe = ("import sys, wlcnoise, wlcnoise.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules))); "
             "import concurrent.futures; "
             "print(wlcnoise.survey.ProcessPoolExecutor is "
             "concurrent.futures.ProcessPoolExecutor)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


# ---------------------------------------------------------------------------
# response command
# ---------------------------------------------------------------------------

def test_response_identity_medium(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 1e4, "gamma_opt_total": 0.0, "delta0": 2e4},
        "response": {"omega": {"start": -5e4, "stop": 5e4, "count": 21}},
    })
    assert main(["response", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "response.csv")
    assert len(rows) == 21
    assert all(float(r["abs_m"]) == 1.0 for r in rows)
    assert all(float(r["arg_m"]) == 0.0 for r in rows)
    assert all(float(r["validity_margin"]) == 0.0 for r in rows)


def test_response_dispersion_shape(tmp_path):
    # anomalous dispersion: monotone falling phase inside the gain
    # doublet, gain maxima near the pump splitting
    gamma12, gamma_opt = map_eta_xi(0.25, 0.02, TAU)
    delta0 = solve_detuning(gamma12, gamma_opt, TAU)[-1]
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": gamma12, "gamma_opt_total": gamma_opt,
                   "delta0": delta0},
        "response": {"omega": {"start": -2.0 * delta0, "stop": 2.0 * delta0,
                               "count": 401}},
    })
    assert main(["response", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "response.csv")
    omegas = np.array([float(r["omega"]) for r in rows])
    phases = np.array([float(r["arg_m"]) for r in rows])
    gains = np.array([float(r["abs_m"]) for r in rows])
    inside = np.abs(omegas) <= 0.8 * delta0
    assert np.all(np.diff(phases[inside]) < 0.0)
    peak = abs(omegas[int(np.argmax(gains))])
    assert peak == pytest.approx(delta0, rel=0.05)


def test_response_empty_omega_list(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3, "delta0": 2e4},
        "response": {"omega": []},
    })
    assert main(["response", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "response.csv")
    assert rows == []


def test_response_round_trip_precision(tmp_path):
    med = MediumParams(1e4, 1e3, 2e4)
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 1e4, "gamma_opt_total": 1e3, "delta0": 2e4},
        "response": {"omega": [0.0, 12345.6789, -9876.54321]},
    })
    assert main(["response", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    from wlcnoise.medium import susceptibility
    for row in read_csv(tmp_path / "response.csv"):
        chi = susceptibility(med, float(row["omega"]))
        assert float(row["re_chi"]) == chi.real
        assert float(row["im_chi"]) == chi.imag


# ---------------------------------------------------------------------------
# nyquist command
# ---------------------------------------------------------------------------

def _nyquist_doc(rs2, eta=0.4, xi=0.4, root="smaller"):
    return {
        "detector": {**DETECTOR, "srm_power_reflectivity": rs2},
        "medium": {"eta": eta, "xi": xi, "root": root},
    }


def test_nyquist_stable_exit(tmp_path, capsys):
    path = write_scenario(tmp_path, _nyquist_doc(0.5))
    assert main(["nyquist", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "classification: stable" in out
    rows = read_csv(tmp_path / "nyquist.csv")
    assert len(rows) > 100


def test_nyquist_unstable_exit(tmp_path):
    path = write_scenario(tmp_path, _nyquist_doc(0.8))
    assert main(["nyquist", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 2


def test_nyquist_non_stationary_exit(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 1e4, "gamma_opt_total": 0.999e4, "delta0": 10.0},
    })
    assert main(["nyquist", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 3


def test_nyquist_open_loop_exit(tmp_path):
    doc = _nyquist_doc(0.0)
    path = write_scenario(tmp_path, doc)
    assert main(["nyquist", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0


def test_nyquist_marginal_exit(tmp_path):
    gamma12, gamma_opt = map_eta_xi(0.4, 0.3, TAU)
    delta0 = solve_detuning(gamma12, gamma_opt, TAU)[0]
    from wlcnoise.medium import probe_transfer
    m0 = probe_transfer(MediumParams(gamma12, gamma_opt, delta0), 0.0).real
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "srm_power_reflectivity": (1.0 / m0) ** 2},
        "medium": {"gamma12": gamma12, "gamma_opt_total": gamma_opt,
                   "delta0": delta0},
    })
    assert main(["nyquist", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 4


def test_nyquist_near_window_beyond_sample_cap(tmp_path, capsys):
    # the closest-approach search samples 16 points per delay turn of
    # the near window; an arm so long that this exceeds the sample cap
    # fails by field instead of asking NumPy for ~1e26 points
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "arm_length": 1e30},
        "medium": {"gamma12": 1e4, "gamma_opt_total": 5e3, "delta0": 2e4},
    })
    out = tmp_path / "out"
    assert main(["nyquist", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector.arm_length, medium: ") and "delay turns" in err
    assert not (out / "nyquist.csv").exists()


def test_nyquist_contour_beyond_sample_cap(tmp_path, capsys):
    # rates of 4e4 / tau: the verdict's near window fits the sample cap,
    # but the contour's start nodes, 8 per delay turn of its range, do
    # not; the contour fails by field and writes no nyquist.csv
    rate = 4e4 / TAU
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": rate, "gamma_opt_total": 0.5 * rate, "delta0": rate},
    })
    out = tmp_path / "out"
    assert main(["nyquist", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector.arm_length, medium: ") and "delay turns" in err
    assert not (out / "nyquist.csv").exists()


def test_nyquist_detuning_at_a_short_arm(tmp_path, capsys):
    # a short arm and eta near 1 give rates near 1e173, whose squared
    # damping gap would overflow; the detuning is solved in units of the
    # arm delay, so the medium loads, and it is not stationary
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "arm_length": 1e-150},
        "medium": {"eta": 0.99999999, "xi": 0.4},
    })
    scenario = load_scenario(path)
    _, _, media = survey._cell_media(0.99999999, 0.4, ("smaller",))
    unit, tau = media["smaller"], scenario.detector.tau
    assert scenario.medium == MediumParams(unit.gamma12 / tau, unit.gamma_opt_total / tau,
                                           unit.delta0 / tau)
    assert 1e173 < scenario.medium.gamma12 < 1e174
    out = tmp_path / "out"
    assert main(["nyquist", "--scenario", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "classification: non-stationary" in captured.out and captured.err == ""
    assert not (out / "nyquist.csv").exists()


@pytest.mark.parametrize("command", ["nyquist", "sweep"])
def test_medium_rates_rounding_to_zero(tmp_path, capsys, command):
    # at arm_length 1e130 the rates of (0.5, 1e-300), some 5e-301 per tau,
    # divide by tau to 0 rad/s: the medium fails by block, naming the
    # cell and the arm length, whatever the command
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "arm_length": 1e130},
        "medium": {"eta": 0.5, "xi": 1e-300},
        "sweep": {"eta": [0.5], "xi": [1e-300]},
    })
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: medium: ") and "Traceback" not in err
    assert "eta=0.5, xi=1e-300" in err and "arm_length=1e+130" in err
    assert not out.exists()


@pytest.mark.parametrize("block,command", [("sweep", "sweep"), ("medium", "sweep"),
                                           ("medium", "response"), ("medium", "nyquist")])
def test_rates_rounding_to_zero_in_delay_units(tmp_path, capsys, block, command):
    # at eta = xi = 1e-300 the rates per tau, gamma12 1.25e-301 and Gamma
    # = eta gamma12, round to 0 whatever the arm: the block fails while
    # the scenario loads, naming the cell, before any table is written
    doc = {"detector": DETECTOR, "response": {"omega": [0.0]},
           "sweep": {"eta": [0.5], "xi": [0.1]}}
    doc[block] = {"eta": [1e-300, 0.5], "xi": [1e-300]} if block == "sweep" else {
        "eta": 1e-300, "xi": 1e-300}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: the rates round to 0 at eta=1e-300, xi=1e-300")
    assert "Traceback" not in err and not out.exists()
    if block == "sweep":
        with pytest.raises(ValueError, match="round to 0"):
            SweepSpec(eta_grid=(1e-300, 0.5), xi_grid=(1e-300,))


def test_sweep_rows_do_not_see_the_arm_length(tmp_path, capsys):
    # the same detector and cell as a sweep alone: its rows solve in units
    # of the arm delay, and only the delta0 column reads the arm length
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "arm_length": 1e130},
        "sweep": {"eta": [0.5], "xi": [1e-300], "srm_power_reflectivities": [0.5]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
    _, _, media = survey._cell_media(0.5, 1e-300, ("smaller",))
    (row,) = read_csv(out / "sweep_rs2_0.5_root_smaller.csv")
    assert row["delta0"] == repr(media["smaller"].delta0 / load_scenario(path).detector.tau)
    assert row["classification"] == "stable"


def test_nyquist_rates_near_float_range(tmp_path, capsys):
    # rates near 1e300, whose squares overflow a float, are a stationary
    # medium whose near window needs far more samples than the cap: an
    # error by field
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "medium": {"gamma12": 1e300, "gamma_opt_total": 5e299, "delta0": 1e300},
    })
    out = tmp_path / "out"
    assert main(["nyquist", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector.arm_length, medium: ") and "delay turns" in err
    assert not (out / "nyquist.csv").exists()


def test_nyquist_contour_accuracy_error_by_field(tmp_path, capsys, monkeypatch):
    # a contour whose refinement does not end fails by field, with no
    # traceback and no nyquist.csv
    def unresolved(ifo, med):
        raise AccuracyError("3 contour segments still turn by pi/2 or more")

    monkeypatch.setattr(cli, "nyquist_contour", unresolved)
    path = write_scenario(tmp_path, _nyquist_doc(0.5))
    out = tmp_path / "out"
    assert main(["nyquist", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector.arm_length, medium: 3 contour segments")
    assert not (out / "nyquist.csv").exists()


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", ["1", "0"])
def test_sweep_detuning_at_a_short_arm(tmp_path, capsys, threads):
    # rates near 1e151 and 1e167 rad/s: the rows solve in units of the
    # arm delay, so the detuning of eta = 0.99999999 stays in the float
    # range, and the delta0 column is the unit-delay root divided by tau
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "arm_length": 1e-144},
        "sweep": {"eta": [0.5, 0.99999999], "xi": [0.4],
                  "srm_power_reflectivities": [0.5]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--threads", threads]) == 0
    assert capsys.readouterr().err == ""
    tau = load_scenario(path).detector.tau
    rows = read_csv(out / "sweep_rs2_0.5_root_larger.csv")
    for eta, row in zip((0.5, 0.99999999), rows, strict=True):
        _, _, media = survey._cell_media(eta, 0.4, ("larger",))
        assert row["delta0"] == repr(media["larger"].delta0 / tau)
    assert rows[1]["classification"] == "non-stationary"


def test_sweep_near_window_beyond_sample_cap(tmp_path, capsys, monkeypatch):
    # a verdict whose near window needs more than MAX_SAMPLES samples
    # aborts the sweep with an error line naming its cell, and no table
    monkeypatch.setattr(stability, "MAX_SAMPLES", 33)
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {"eta": [0.5], "xi": [0.1, 0.3], "srm_power_reflectivities": [0.5]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: sweep: stability verdict at eta=0\.5, xi=0\.[13], rs\^2=0\.5: "
                    "the near window spans .* delay turns", err)
    assert "Traceback" not in err and not list(out.iterdir())

def test_sweep_single_cell(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {
            "eta": [0.5], "xi": [0.3],
            "srm_power_reflectivities": [0.8],
            "root_choice": "both",
        },
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path), "--threads", "1"]) == 0
    for label in ("smaller", "larger"):
        rows = read_csv(tmp_path / f"sweep_rs2_0.8_root_{label}.csv")
        assert len(rows) == 1
        assert rows[0]["eta"] == "0.5" and rows[0]["xi"] == "0.3"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["tables"]) == 2


def test_sweep_noise_switch(tmp_path):
    # sweep.include_additional_noise is the scenario's one noise switch:
    # the table holds the rho_r run_sweep gives with the same switch
    detector = load_scenario(write_scenario(tmp_path, {"detector": DETECTOR})).detector
    written = {}
    for noise in (True, False):
        path = write_scenario(tmp_path, {
            "detector": DETECTOR,
            "sweep": {**_ONE_CELL_SWEEP, "include_additional_noise": noise},
        })
        out = tmp_path / f"noise_{noise}"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        (row,) = read_csv(out / "sweep_rs2_0.5_root_larger.csv")
        spec = SweepSpec(eta_grid=(0.5,), xi_grid=(0.3,),
                         srm_power_reflectivities=(0.5,),
                         include_additional_noise=noise)
        ((_, outcome),) = run_sweep(spec, detector).outcomes(0.5, "larger")
        assert row["rho_r"] == repr(outcome.rho_r)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["include_additional_noise"] is noise
        written[noise] = float(row["rho_r"])
    # 0.662... with the added noise, 0.734... without it
    assert written[True] < written[False]


def test_sweep_tables_round_trip(tmp_path):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {
            "eta": {"start": 0.1, "stop": 0.9, "count": 5},
            "xi": {"start": 0.1, "stop": 0.9, "count": 5},
            "srm_power_reflectivities": [0.5, 0.9],
            "root_choice": "both",
        },
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path), "--threads", "2"]) == 0
    # every table against csv.writer on the fields and summary counts of
    # the same sweep run in-process
    scenario = load_scenario(path)
    grid = run_sweep(scenario.sweep, scenario.detector)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["tables"]) == 4
    for table in summary["tables"]:
        rs2, label = table["srm_power_reflectivity"], table["root"]
        pairs = list(grid.outcomes(rs2, label))
        assert_csv_writer_bytes(tmp_path / table["file"], [
            ["eta", "xi", "classification", "delta0", "rho_r"],
            *([repr(cell.eta), repr(cell.xi), o.status.value,
               "" if math.isnan(o.delta0) else repr(o.delta0),
               "" if o.rho_r is None else repr(o.rho_r)] for cell, o in pairs)])
        assert table["stable_cells"] == grid.stable_count(rs2, label)
        assert table["marginal_cells"] == sum(o.marginal for _, o in pairs)
        assert table["max_rho_r"] == grid.max_rho(rs2, label)
    assert any(o.status is CellStatus.STABLE for _, o in grid.outcomes(0.9))
    rows = read_csv(tmp_path / "sweep_rs2_0.5_root_larger.csv")
    assert len(rows) == 25
    infeasible = [r for r in rows if r["classification"] == "infeasible"]
    assert all(r["delta0"] == "" and r["rho_r"] == "" for r in infeasible)
    assert all(float(r["eta"]) < float(r["xi"]) for r in infeasible)
    stable = [r for r in rows if r["classification"] == "stable"]
    for row in stable:
        assert float(row["rho_r"]) > 0.0
        # full float precision survives the round trip
        assert repr(float(row["rho_r"])) == row["rho_r"]
    table = summary["tables"][1]
    assert table["file"] == "sweep_rs2_0.5_root_larger.csv"
    assert table["stable_cells"] == len(stable)


def reference_sweep_table(grid, rs2, label):
    """One sweep table's bytes and summary counts by the per-outcome rule
    that cli._sweep_tables replaced, kept here as its reference."""
    rows, stable, marginal, max_rho = [["eta", "xi", "classification", "delta0", "rho_r"]], 0, 0, None
    for cell, outcome in grid.outcomes(rs2, label):
        rho = outcome.rho_r
        if outcome.status is CellStatus.STABLE:
            stable += 1
            if rho is not None and (max_rho is None or rho > max_rho):
                max_rho = rho
        marginal += outcome.marginal
        rows.append([f"{cli._fmt(cell.eta)},{cli._fmt(cell.xi)}", outcome.status.value,
                     "" if math.isnan(outcome.delta0) else cli._fmt(outcome.delta0),
                     "" if rho is None else cli._fmt(rho)])
    text = "\r\n".join(map(",".join, rows)) + "\r\n"
    return text.encode("utf-8"), stable, marginal, max_rho


def test_sweep_tables_match_the_per_outcome_rule(tmp_path):
    # the tables, built from texts made once per status, per delta0 and
    # per infeasible cell, hold the per-outcome rule's bytes, and
    # summary.json its counts, on a sweep with infeasible and stable
    # cells joined by made-up ones: a repeated root (both labels at one
    # delta0 float), marginal outcomes, and each other status
    spec = SweepSpec(eta_grid=default_grid(5, 0.1, 0.9), xi_grid=default_grid(5, 0.1, 0.9),
                     srm_power_reflectivities=(0.5, 0.9), root_choice=RootChoice.BOTH)
    swept = run_sweep(spec, reference_detector(0.5))
    root, other = 1234.5678, 98.765

    def outcome(rs2, label, status, delta0=root, marginal=False, rho=None):
        return survey.RootOutcome(rs2, label, delta0, status, marginal=marginal, rho_r=rho)

    made_up = [
        survey.SweepCell(0.95, 0.05, 1.0, 2.0, True, tuple(
            outcome(rs2, label, CellStatus.STABLE, rho=0.25 + rs2)
            for rs2 in (0.5, 0.9) for label in ("smaller", "larger"))),
        survey.SweepCell(0.96, 0.06, 1.0, 2.0, True, (
            outcome(0.5, "smaller", CellStatus.OPTICAL_INSTABILITY, marginal=True),
            outcome(0.5, "larger", CellStatus.STABLE, other, marginal=True, rho=1.5),
            outcome(0.9, "smaller", CellStatus.ATOMIC_INSTABILITY, other),
            outcome(0.9, "larger", CellStatus.NON_STATIONARY))),
    ]
    grid = survey.SweepGrid(spec=spec, cells=swept.cells + tuple(made_up))
    statuses = {o.status for _, o in grid.outcomes()}
    assert statuses == set(CellStatus)
    summary = cli._sweep_tables(grid, tmp_path)
    assert len(summary["tables"]) == 4
    for table in summary["tables"]:
        text, stable, marginal, max_rho = reference_sweep_table(
            grid, table["srm_power_reflectivity"], table["root"])
        assert (tmp_path / table["file"]).read_bytes() == text
        assert (table["stable_cells"], table["marginal_cells"], table["max_rho_r"]) == (
            stable, marginal, max_rho)
    assert sum(table["marginal_cells"] for table in summary["tables"]) == 2


def test_sweep_duplicate_reflectivities(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {"eta": [0.5], "xi": [0.3],
                  "srm_power_reflectivities": [0.8, 0.8]},
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "srm_power_reflectivities" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_sweep_table_names_keep_full_precision(tmp_path):
    # reflectivities that agree to six digits still get their own tables
    path = write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {"eta": [0.5], "xi": [0.3],
                  "srm_power_reflectivities": [0.5, 0.5000001],
                  "root_choice": "larger"},
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    names = [table["file"] for table in summary["tables"]]
    assert names == ["sweep_rs2_0.5_root_larger.csv",
                     "sweep_rs2_0.5000001_root_larger.csv"]
    for name in names:
        assert len(read_csv(tmp_path / name)) == 1


def test_sweep_default_reflectivity_as_written(tmp_path):
    # without srm_power_reflectivities the sweep runs at the detector's
    # value as written, not at the square of its square root
    path = write_scenario(tmp_path, {
        "detector": {**DETECTOR, "srm_power_reflectivity": 0.7},
        "sweep": {"eta": [0.5], "xi": [0.3], "root_choice": "larger"},
    })
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    [table] = summary["tables"]
    assert table["file"] == "sweep_rs2_0.7_root_larger.csv"
    assert table["srm_power_reflectivity"] == 0.7
    assert len(read_csv(tmp_path / table["file"])) == 1


def test_sweep_requires_block(tmp_path):
    path = write_scenario(tmp_path, {"detector": DETECTOR})
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# exit codes for bad input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_missing_scenario_file(tmp_path, capsys, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    assert main(["nyquist", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read scenario file {path}: ")


# one scenario every command accepts
_EVERY_COMMAND_DOC = {
    "detector": DETECTOR,
    "medium": {"eta": 0.4, "xi": 0.4, "root": "smaller"},
    "response": {"omega": [0.0, 1e3]},
    "sweep": {"eta": [0.5], "xi": [0.3], "srm_power_reflectivities": [0.5],
              "root_choice": "larger"},
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["response", "nyquist", "sweep"])
def test_out_naming_a_file(tmp_path, capsys, command, under):
    path = write_scenario(tmp_path, _EVERY_COMMAND_DOC)
    out = tmp_path / "taken"
    out.write_text("")
    assert main([command, "--scenario", str(path),
                 "--out", str(out / "sub" if under else out)]) == 1
    assert capsys.readouterr().err.startswith("error: --out: ")


@pytest.mark.parametrize("command,name", [
    ("response", "response.csv"), ("nyquist", "nyquist.csv"),
    ("sweep", "sweep_rs2_0.5_root_larger.csv"), ("sweep", "summary.json"),
])
def test_output_path_is_a_directory(tmp_path, capsys, command, name):
    path = write_scenario(tmp_path, _EVERY_COMMAND_DOC)
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main([command, "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: --out: ")


def test_pool_failure_is_not_an_out_error(tmp_path, monkeypatch):
    # only writes under --out become usage errors; a pool that cannot
    # start its workers still raises
    def no_workers(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(survey, "ProcessPoolExecutor", no_workers)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # two eta rows, since a single row runs in-process with no pool
    path = _small_sweep(tmp_path, eta=(0.5, 0.6))
    with pytest.raises(BlockingIOError):
        main(["sweep", "--scenario", str(path), "--out", str(tmp_path),
              "--threads", "2"])


def test_bad_usage_returns_one():
    assert main(["frobnicate", "--scenario", "x"]) == 1
    assert main(["nyquist"]) == 1


def test_bad_flag_values(tmp_path, capsys):
    path = write_scenario(tmp_path, _nyquist_doc(0.5))
    # the contour's range follows from the gain window, so there is no
    # range multiplier, and the stationarity threshold is the paper's,
    # so there is no margin: each old flag fails as an unknown argument
    for flag, value in (("--omega-max-mult", "50"), ("--margin", "2")):
        assert main(["nyquist", "--scenario", str(path), flag, value,
                     "--out", str(tmp_path)]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,field", [
    ("nyquist", {"detector": DETECTOR, "medium": {"eta": 1.0, "xi": 0.4}},
     "medium.eta"),
    ("response", {"detector": DETECTOR, "medium": {"eta": 1.5, "xi": 0.4},
                  "response": {"omega": [0.0]}},
     "medium.eta"),
    ("nyquist", {"detector": DETECTOR, "medium": {"eta": 0.4, "xi": 1.5}},
     "medium.xi"),
    ("response", {"detector": DETECTOR,
                  "medium": {"gamma12": 1e4, "gamma_opt_total": 1e4,
                             "delta0": 2e4},
                  "response": {"omega": [0.0, -2e4]}},
     "response.omega"),
], ids=["eta-singular", "eta-above-one", "xi-above-one", "omega-on-pole"])
def test_bad_medium_input(tmp_path, capsys, command, doc, field):
    # out-of-range survey coordinates and a frequency on a pole of the
    # medium response fail by field, not with a traceback
    path = write_scenario(tmp_path, doc)
    assert main([command, "--scenario", str(path),
                 "--out", str(tmp_path)]) == 1
    assert f"error: {field}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


class _RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def _small_sweep(tmp_path, eta=(0.5,)):
    return write_scenario(tmp_path, {
        "detector": DETECTOR,
        "sweep": {"eta": list(eta), "xi": [0.3], "srm_power_reflectivities": [0.5],
                  "root_choice": "larger"},
    })


@pytest.mark.parametrize("threads,cores,workers", [
    ("100000", 2, 2), ("0", 3, 3), ("2", 3, 2),
])
def test_sweep_threads_capped_at_core_count(tmp_path, monkeypatch, threads,
                                            cores, workers):
    # the pool never asks for more processes than there are cores; the
    # stand-in runs the cells serially, so no process is started; three
    # eta rows, so the row count does not cap the pool here
    monkeypatch.setattr(survey, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    path = _small_sweep(tmp_path, eta=(0.3, 0.5, 0.7))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path),
                 "--threads", threads]) == 0
    assert _RecordingPool.sizes == [workers]


@pytest.mark.parametrize("rows,sizes", [(1, []), (3, [3])])
def test_pool_sized_to_rows(monkeypatch, rows, sizes):
    # with the fork start method a pool starts all its workers at its
    # first task, so it gets at most one per eta row, and one row gets none
    monkeypatch.setattr(survey, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    spec = SweepSpec(eta_grid=default_grid(rows), xi_grid=(0.3, 0.6),
                     srm_power_reflectivities=(0.5,), root_choice=RootChoice.LARGER)
    ifo = reference_detector(0.5)
    pooled = run_sweep(spec, ifo, workers=8)
    assert _RecordingPool.sizes == sizes
    # a nan field compares unequal to a copy of itself, so compare the full repr
    assert repr(pooled) == repr(run_sweep(spec, ifo, workers=1))


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_workers_below_one_rejected(monkeypatch, workers):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(survey, "_compute_row", no_rows)
    spec = SweepSpec(eta_grid=(0.5,), xi_grid=(0.3,))
    with pytest.raises(ValueError, match=r"^workers must be >= 1, got -?\d"):
        run_sweep(spec, reference_detector(0.5), workers=workers)


def test_sweep_negative_threads_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(survey, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    path = _small_sweep(tmp_path)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path),
                 "--threads", "-1"]) == 1
    assert "error: --threads" in capsys.readouterr().err
    assert _RecordingPool.sizes == []
    assert not (tmp_path / "summary.json").exists()


# ---------------------------------------------------------------------------
# shipped scenario files
# ---------------------------------------------------------------------------

def test_shipped_response_scenario(tmp_path):
    assert main(["response", "--scenario",
                 str(SCENARIOS / "response_dispersion.json"),
                 "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "response.csv")) == 801
    assert_csv_writer_bytes(tmp_path / "response.csv")


def test_shipped_nyquist_scenario(tmp_path, capsys):
    assert main(["nyquist", "--scenario",
                 str(SCENARIOS / "nyquist_boundary_cell.json"),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "classification: stable" in out
    assert "winding: 0" in out
    rows = read_csv(tmp_path / "nyquist.csv")
    assert len(rows) > 100
    assert_csv_writer_bytes(tmp_path / "nyquist.csv")
    first, last = ([float(row["re"]), float(row["im"])]
                   for row in (rows[0], rows[-1]))
    assert first == last  # closed at the omega = 0 point
    # every written segment turns by less than pi/2 about (1, 0)
    w = np.array([complex(float(row["re"]), float(row["im"])) for row in rows]) - 1.0
    assert np.abs(np.angle(w[1:] / w[:-1])).max() < 0.5 * math.pi


def test_shipped_survey_scenario_parses():
    # parse only: the full 50x50 sweep is left to the benchmark
    spec = load_scenario(SCENARIOS / "survey_full.json").sweep
    assert len(spec.eta_grid) == 50
    assert len(spec.xi_grid) == 50
    assert spec.srm_power_reflectivities == (0.5, 0.8, 0.9)
