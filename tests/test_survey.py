import math
import pickle
from dataclasses import replace
from functools import partial

import pytest

from wlcnoise import interferometer, numerics, stability, survey
from wlcnoise.errors import AccuracyError, MarginalStabilityError
from wlcnoise.interferometer import SPEED_OF_LIGHT, improvement_factor, reference_detector
from wlcnoise.medium import MediumParams, NoiseModel, map_eta_xi, solve_detuning
from wlcnoise.stability import Classification, classify_system
from wlcnoise.survey import (
    CellStatus,
    RootChoice,
    RootOutcome,
    SweepSpec,
    default_grid,
    run_sweep,
)

IFO = reference_detector(0.8)
SMALL_GRID = default_grid(6)


@pytest.fixture(scope="module")
def small_sweep():
    spec = SweepSpec(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID,
                     srm_power_reflectivities=(0.5, 0.8))
    return run_sweep(spec, IFO, workers=1)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_default_grid_inside_unit_interval():
    grid = default_grid(50)
    assert len(grid) == 50
    assert grid[0] == pytest.approx(0.02) and grid[-1] == pytest.approx(0.98)
    assert all(0.0 < v < 1.0 for v in grid)


@pytest.mark.parametrize("kwargs", [
    dict(eta_grid=(), xi_grid=SMALL_GRID),
    dict(eta_grid=SMALL_GRID, xi_grid=(0.0, 0.5)),
    dict(eta_grid=SMALL_GRID, xi_grid=(0.5, 0.5)),
    dict(eta_grid=(0.5, 0.2), xi_grid=SMALL_GRID),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID, srm_power_reflectivities=()),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID,
         srm_power_reflectivities=(1.0,)),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID,
         srm_power_reflectivities=(0.8, 0.8)),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID, rel_tol=0.0),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID, rel_tol=-1e-4),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID, rel_tol=math.nan),
    dict(eta_grid=SMALL_GRID, xi_grid=SMALL_GRID, rel_tol=math.inf),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


# ---------------------------------------------------------------------------
# improvement factor
# ---------------------------------------------------------------------------

def test_no_pump_improvement_is_unity():
    # medium removed entirely: the conventional detector saturates the
    # analytic bound, so the ratio is 1 up to quadrature error
    med = MediumParams(1.0 / IFO.tau, 0.0, 0.0)
    rho = improvement_factor(IFO, med, NoiseModel.LOCAL)
    assert rho == pytest.approx(1.0, abs=1e-4)


def test_weak_medium_improvement_near_unity():
    # low peak gain (small eta) keeps the loop stable and the narrow
    # gain lines barely dent the integrated sensitivity
    gamma12, gamma_opt = map_eta_xi(0.01, 0.005, IFO.tau)
    assert gamma_opt * IFO.tau < 1e-4
    roots = solve_detuning(gamma12, gamma_opt, IFO.tau)
    med = MediumParams(gamma12, gamma_opt, roots[-1])
    rho = improvement_factor(IFO, med, NoiseModel.LOCAL)
    assert rho == pytest.approx(1.0, abs=0.01)


def test_improvement_tolerance_stability():
    gamma12, gamma_opt = map_eta_xi(0.88, 0.03, IFO.tau)
    roots = solve_detuning(gamma12, gamma_opt, IFO.tau)
    med = MediumParams(gamma12, gamma_opt, roots[-1])
    rel_tol = 1e-4
    rho = improvement_factor(IFO, med, NoiseModel.LOCAL, rel_tol=rel_tol)
    rho_tight = improvement_factor(IFO, med, NoiseModel.LOCAL, rel_tol=rel_tol / 2.0)
    assert abs(rho - rho_tight) / rho_tight < 5.0 * rel_tol
    assert rho > 0.0


@pytest.mark.parametrize("eta_index,xi_index,rs2,label,rho_r,evaluations", [
    (16, 9, 0.5, "smaller", 0.7344308627635273, 97),
    (44, 1, 0.8, "larger", 0.5533127950902343, 117),
    (2, 0, 0.9, "larger", 0.8234567565542421, 165),
])
def test_improvement_factor_pinned(monkeypatch, eta_index, xi_index, rs2, label,
                                   rho_r, evaluations):
    # stable cells of the paper's 50x50 survey, at its rel_tol 1e-4: the
    # quadrature's nodes and sums are pinned, so a faster integrand or
    # refinement loop that moved either shows here
    results, integrate = [], interferometer._integrate_many

    def spy(*args, **kwargs):
        returned = integrate(*args, **kwargs)
        results.extend(returned)
        return returned

    grid = default_grid(50)
    ifo = reference_detector(rs2)
    gamma12, gamma_opt = map_eta_xi(grid[eta_index], grid[xi_index], ifo.tau)
    roots = solve_detuning(gamma12, gamma_opt, ifo.tau)
    med = MediumParams(gamma12, gamma_opt, roots[0] if label == "smaller" else roots[-1])
    assert classify_system(ifo, med).stable
    monkeypatch.setattr(interferometer, "_integrate_many", spy)
    rho = improvement_factor(ifo, med, NoiseModel.LOCAL)
    assert rho == pytest.approx(rho_r, rel=1e-12, abs=0.0)
    assert [r.evaluations for r in results] == [evaluations]


def test_sweep_fallback_rho_is_in_rho_units(monkeypatch):
    # with the quadrature cut at depth 1, every stable outcome of the row
    # falls back to the best estimate; it is a ratio like rho_r, the
    # single call's own, and near the converged value
    grid = default_grid(50)
    spec = SweepSpec(eta_grid=(grid[16],), xi_grid=grid[5:12], srm_power_reflectivities=(0.5,))
    converged = run_sweep(spec, IFO)
    monkeypatch.setattr(interferometer, "_integrate_many",
                        partial(interferometer._integrate_many, max_depth=1))
    detector = survey._UNIT_DELAY.with_power_reflectivity(0.5)
    compared = 0
    for (cell, good), (_, shallow) in zip(converged.outcomes(), run_sweep(spec, IFO).outcomes(),
                                          strict=True):
        if good.status is not CellStatus.STABLE:
            assert shallow == good
            continue
        assert shallow.note.startswith("integration tolerance not met: quadrature did not "
                                       "converge at depth 1 near x = ")
        _, _, media = survey._cell_media(cell.eta, cell.xi, (good.root_label,))
        with pytest.raises(AccuracyError) as info:
            improvement_factor(detector, media[good.root_label], NoiseModel.LOCAL)
        assert shallow.rho_r == info.value.best_estimate
        assert shallow.rho_r == pytest.approx(good.rho_r, abs=1e-3)
        compared += 1
    assert compared >= 4


@pytest.mark.parametrize("cap", [None, 2])
def test_row_integrates_in_one_call(monkeypatch, small_sweep, cap):
    # a row's stable configurations go to improvement_factor as one
    # stack, which the quadrature takes in passes of at most
    # numerics._ROW_SAMPLES // 128 integrals; rows without one make no
    # call, and how a stack is cut into passes changes no bit
    calls, original = [], survey.improvement_factor

    def counting(ifo, med, *args, **kwargs):
        calls.append(len(ifo))
        return original(ifo, med, *args, **kwargs)

    monkeypatch.setattr(survey, "improvement_factor", counting)
    if cap:
        monkeypatch.setattr(numerics, "_ROW_SAMPLES", 128 * cap)
    grid = run_sweep(small_sweep.spec, IFO)
    assert repr(grid) == repr(small_sweep)
    width = len(small_sweep.spec.xi_grid)
    expected = []
    for start in range(0, len(grid.cells), width):
        keys = {(o.srm_power_reflectivity, o.delta0) for cell in grid.cells[start:start + width]
                for o in cell.outcomes if o.status is CellStatus.STABLE}
        expected += [len(keys)] if keys else []
    assert calls == expected
    assert cap is None or max(calls) > cap


def test_improvement_factor_sequences():
    # the sequence form gives each configuration the bits of its own call:
    # on three media at three rs^2, and on the stable, non-marginal
    # configurations of a whole survey row, stacked as the row stacks them
    grid = default_grid(50)
    media = []
    for eta_index, xi_index in ((16, 9), (44, 1), (2, 0)):
        gamma12, gamma_opt = map_eta_xi(grid[eta_index], grid[xi_index], IFO.tau)
        media.append(MediumParams(gamma12, gamma_opt,
                                  solve_detuning(gamma12, gamma_opt, IFO.tau)[-1]))
    detectors = [reference_detector(rs2) for rs2 in (0.5, 0.8, 0.9)]
    row_media = list({med: None for xi in grid
                      for med in survey._cell_media(grid[16], xi, RootChoice.BOTH.labels)[2]
                      .values()})
    row_detectors = [survey._UNIT_DELAY.with_power_reflectivity(rs2) for rs2 in (0.5, 0.8, 0.9)]
    row = [(ifo, med) for ifo in row_detectors for med in row_media]
    verdicts = classify_system(*zip(*row))
    row = [config for config, verdict in zip(row, verdicts)
           if verdict.classification is Classification.STABLE and not verdict.marginal]
    assert len(row) == 28
    for ifos, meds in ((detectors, media), zip(*row)):
        stacked = improvement_factor(ifos, meds, NoiseModel.LOCAL)
        assert stacked == [improvement_factor(ifo, med, NoiseModel.LOCAL)
                           for ifo, med in zip(ifos, meds)]
    assert improvement_factor([], [], NoiseModel.LOCAL) == []
    with pytest.raises(ValueError, match="2 detectors for 3 media"):
        improvement_factor(detectors[:2], media, NoiseModel.LOCAL)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="improvement_factor raises only when a panel reaches max_depth, "
                          "and a converged quadrature can still miss rel_tol (ROADMAP item 8)")
def test_improvement_factor_meets_rel_tol():
    # the seed-0 survey's (eta 0.2746938775510204, xi 0.02, rs^2 0.5,
    # larger root) reads 0.9351569 at rel_tol 1e-4, without raising; the
    # rel_tol 1e-10 value is 0.9354379, so its error is -3.0e-4
    ifo = reference_detector(0.5)
    grid = default_grid(50)
    gamma12, gamma_opt = map_eta_xi(grid[13], grid[0], ifo.tau)
    med = MediumParams(gamma12, gamma_opt, solve_detuning(gamma12, gamma_opt, ifo.tau)[-1])
    rho = improvement_factor(ifo, med, NoiseModel.LOCAL, rel_tol=1e-4)
    assert rho == pytest.approx(improvement_factor(ifo, med, NoiseModel.LOCAL, rel_tol=1e-10),
                                rel=1e-4)


def test_row_shares_equal_floats(small_sweep):
    # a medium's delta0 is one float at every rs^2, and the distance
    # bound that loops with an empty near window report is one float
    for start in range(0, len(small_sweep.cells), len(SMALL_GRID)):
        outcomes = [o for cell in small_sweep.cells[start:start + len(SMALL_GRID)]
                    for o in cell.outcomes if cell.feasible]
        for field in ("delta0", "min_distance"):
            values = [getattr(o, field) for o in outcomes]
            assert len({id(v) for v in values}) == len(set(values))


def test_survey_independent_of_power_and_carrier():
    # with heavy test masses S_hh scales as 1 / (P_c omega_0), so rho_r
    # cancels both and no verdict reads them; the sweep rows take the
    # reference detector's power and carrier on this cancellation, which
    # a term such as radiation pressure would break
    spec = SweepSpec(eta_grid=(default_grid(50)[16],), xi_grid=default_grid(50),
                     srm_power_reflectivities=(0.5, 0.8, 0.9))
    stable = set()
    for cell, outcome in run_sweep(spec, IFO).outcomes():
        if outcome.status is not CellStatus.STABLE:
            continue
        rs2 = outcome.srm_power_reflectivity
        _, _, media = survey._cell_media(cell.eta, cell.xi, (outcome.root_label,))
        for power, wavelength in ((1.234e6, 1550e-9), (1.0, 1.0), (3e9, 210e-9)):
            ifo = replace(survey._UNIT_DELAY.with_power_reflectivity(rs2),
                          circulating_power=power,
                          carrier_angular_frequency=2.0 * math.pi * SPEED_OF_LIGHT / wavelength)
            rho = improvement_factor(ifo, media[outcome.root_label], spec.noise_model,
                                     rel_tol=spec.rel_tol)
            assert rho == pytest.approx(outcome.rho_r, rel=1e-12, abs=0.0)
        stable.add(rs2)
    assert stable == {0.5, 0.8, 0.9}


def test_sweep_independent_of_arm_length():
    # the rows solve in units of the arm delay: the arm length reaches
    # only the unit of the rates and of delta0
    spec = SweepSpec(eta_grid=default_grid(12), xi_grid=default_grid(12),
                     srm_power_reflectivities=(0.5, 0.9))
    reference = run_sweep(spec, IFO)
    statuses = set()
    for arm in (1.0, 4e6):
        ifo = replace(IFO, arm_length=arm)
        for (ref_cell, ref), (cell, out) in zip(reference.outcomes(),
                                                run_sweep(spec, ifo).outcomes(), strict=True):
            assert out._replace(delta0=0.0) == ref._replace(delta0=0.0)
            statuses.add(out.status)
            if out.status is not CellStatus.INFEASIBLE:
                assert out.delta0 * ifo.tau == pytest.approx(ref.delta0 * IFO.tau,
                                                              rel=1e-14, abs=0.0)
            assert cell.gamma12 * ifo.tau == pytest.approx(ref_cell.gamma12 * IFO.tau,
                                                           rel=1e-14, abs=0.0)
    assert statuses == set(CellStatus) - {CellStatus.ATOMIC_INSTABILITY}


# ---------------------------------------------------------------------------
# sweep grid
# ---------------------------------------------------------------------------

def test_sweep_row_major_order(small_sweep):
    cells = small_sweep.cells
    assert len(cells) == len(SMALL_GRID) ** 2
    etas = [c.eta for c in cells]
    assert etas == sorted(etas)
    for i, eta in enumerate(SMALL_GRID):
        row = cells[i * len(SMALL_GRID):(i + 1) * len(SMALL_GRID)]
        assert all(c.eta == eta for c in row)
        assert [c.xi for c in row] == list(SMALL_GRID)


def test_sweep_partition(small_sweep):
    # every (cell, srm, root) combination carries exactly one status
    for cell in small_sweep.cells:
        assert len(cell.outcomes) == 2 * 2  # two srm values, both roots
        for outcome in cell.outcomes:
            assert isinstance(outcome.status, CellStatus)
            if outcome.status is CellStatus.STABLE:
                assert outcome.rho_r is not None and outcome.rho_r > 0.0
            if outcome.status is CellStatus.INFEASIBLE:
                assert math.isnan(outcome.delta0)


def test_sweep_feasibility_matches_detuning(small_sweep):
    for cell in small_sweep.cells:
        expected = cell.xi <= cell.eta
        assert cell.feasible == expected
        statuses = {o.status for o in cell.outcomes}
        if not expected:
            assert statuses == {CellStatus.INFEASIBLE}
        else:
            assert CellStatus.INFEASIBLE not in statuses


def test_infeasible_outcomes_shared(small_sweep):
    # a missing root gives one frozen outcome per (rs^2, label), shared by
    # every infeasible cell and equal to one built afresh
    shared = {}
    for _, outcome in small_sweep.outcomes():
        if outcome.status is not CellStatus.INFEASIBLE:
            continue
        key = (outcome.srm_power_reflectivity, outcome.root_label)
        fresh = RootOutcome(*key, math.nan, CellStatus.INFEASIBLE)
        # a nan field compares unequal to a copy of itself, so compare the full repr
        assert repr(outcome) == repr(fresh)
        assert shared.setdefault(key, outcome) is outcome
    assert set(shared) == {(rs2, label) for rs2 in (0.5, 0.8)
                           for label in ("smaller", "larger")}


def test_pickle_round_trip(small_sweep):
    # a worker's row crosses the pool as constructor arguments: every
    # field, in declaration order, and the shared infeasible outcomes
    outcome = RootOutcome(0.8, "larger", 1.5e3, CellStatus.OPTICAL_INSTABILITY,
                          winding=1, min_distance=0.25, marginal=True, rho_r=0.75,
                          note="marginal contour reclassified as unstable")
    assert all(getattr(outcome, name) != default
               for name, default in RootOutcome._field_defaults.items())
    assert repr(pickle.loads(pickle.dumps(outcome))) == repr(outcome)
    row = small_sweep.cells[:len(SMALL_GRID)]
    copied = pickle.loads(pickle.dumps(list(row)))
    # a nan field compares unequal to a copy of itself, so compare the full repr
    assert repr(copied) == repr(list(row))
    infeasible = [cell.outcomes for cell in copied if not cell.feasible]
    assert len(infeasible) > 1
    assert all(outcomes is infeasible[0] for outcomes in infeasible)


def test_sweep_rates_match_map(small_sweep):
    # the rows map (eta, xi) in units of the arm delay, then divide by tau
    for cell in small_sweep.cells:
        gamma12, gamma_opt = map_eta_xi(cell.eta, cell.xi, 1.0)
        assert cell.gamma12 == gamma12 / IFO.tau
        assert cell.gamma_opt_total == gamma_opt / IFO.tau


def reference_outcome(spec, rs2, label, med):
    """One outcome from classify_system and improvement_factor, called
    per configuration on the rows' unit-delay detector, as the survey
    did before it took its verdicts a row at a time; delta0 in rad/s."""
    ifo = replace(survey._UNIT_DELAY.with_power_reflectivity(rs2),
                  include_additional_noise=spec.include_additional_noise)
    delta0 = med.delta0 / IFO.tau
    try:
        report = classify_system(ifo, med)
    except MarginalStabilityError as exc:
        return RootOutcome(rs2, label, delta0, CellStatus.OPTICAL_INSTABILITY,
                           marginal=True, note=str(exc))
    status, note, rho = CellStatus(report.classification.value), "", None
    if report.marginal and status is CellStatus.STABLE:
        status, note = CellStatus.OPTICAL_INSTABILITY, "marginal contour reclassified as unstable"
    if status is CellStatus.STABLE:
        try:
            rho = improvement_factor(ifo, med, spec.noise_model, rel_tol=spec.rel_tol)
        except AccuracyError as exc:
            rho, note = exc.best_estimate, f"integration tolerance not met: {exc}"
    return RootOutcome(rs2, label, delta0, status, winding=report.winding,
                       min_distance=report.min_distance_to_critical,
                       marginal=report.marginal, rho_r=rho, note=note)


def test_sweep_matches_per_configuration_reference(small_sweep):
    # the row verdicts and the integrals behind them against the
    # per-configuration calls they replace, outcome by outcome
    spec = small_sweep.spec
    compared = set()
    for cell in small_sweep.cells:
        gamma12, gamma_opt = map_eta_xi(cell.eta, cell.xi, 1.0)
        roots = solve_detuning(gamma12, gamma_opt, 1.0)
        expected = []
        for rs2 in spec.srm_power_reflectivities:
            for label, delta0 in (("smaller", roots[:1]), ("larger", roots[-1:])):
                if not delta0:
                    expected.append(RootOutcome(rs2, label, math.nan, CellStatus.INFEASIBLE))
                    continue
                med = MediumParams(gamma12, gamma_opt, *delta0)
                expected.append(reference_outcome(spec, rs2, label, med))
        # a nan field compares unequal to a copy of itself, so compare the full repr
        assert repr(cell.outcomes) == repr(tuple(expected))
        compared |= {o.status for o in expected}
    # eta < 1 on the grid, so no medium is inverted
    assert compared == set(CellStatus) - {CellStatus.ATOMIC_INSTABILITY}


def test_sweep_deterministic_across_workers():
    spec = SweepSpec(eta_grid=default_grid(4), xi_grid=default_grid(4),
                     srm_power_reflectivities=(0.8,))
    serial = run_sweep(spec, IFO, workers=1)
    parallel = run_sweep(spec, IFO, workers=2)
    # a nan field compares unequal to a copy of itself, so compare the full repr
    assert repr(serial) == repr(parallel)


def test_sweep_names_a_near_window_beyond_the_sample_cap(monkeypatch):
    # under a cap of 33 samples every nonempty near window is too wide:
    # its verdict is an AccuracyError, which the row raises naming the
    # cell and the reflectivity of the first such configuration
    monkeypatch.setattr(stability, "MAX_SAMPLES", 33)
    spec = SweepSpec(eta_grid=(0.5,), xi_grid=(0.1, 0.3), srm_power_reflectivities=(0.5, 0.8))
    with pytest.raises(AccuracyError, match=(
            r"^stability verdict at eta=0\.5, xi=0\.1, rs\^2=0\.5: "
            r"the near window spans 0\.03 delay turns; 16 samples per turn exceed 33$")):
        run_sweep(spec, IFO)


def test_sweep_counts_and_filters(small_sweep):
    total = sum(1 for _ in small_sweep.outcomes())
    assert total == len(small_sweep.cells) * 4
    by_rs = sum(1 for _ in small_sweep.outcomes(srm_power_reflectivity=0.5))
    assert by_rs == len(small_sweep.cells) * 2
    assert small_sweep.stable_count() >= small_sweep.stable_count(0.8)


def test_sweep_stable_shrinks_with_reflectivity(small_sweep):
    assert small_sweep.stable_count(0.5) >= small_sweep.stable_count(0.8)


def test_root_choice_single():
    spec = SweepSpec(eta_grid=(0.5,), xi_grid=(0.3,),
                     srm_power_reflectivities=(0.8,),
                     root_choice=RootChoice.LARGER)
    grid = run_sweep(spec, IFO)
    (cell,) = grid.cells
    assert len(cell.outcomes) == 1
    assert cell.outcomes[0].root_label == "larger"
    roots = solve_detuning(*map_eta_xi(0.5, 0.3, 1.0), 1.0)
    assert cell.outcomes[0].delta0 == roots[-1] / IFO.tau


def test_root_choice_labels():
    assert RootChoice.BOTH.labels == ("smaller", "larger")
    assert RootChoice.SMALLER.labels == ("smaller",)
    assert RootChoice.LARGER.labels == ("larger",)


def test_every_classification_is_a_cell_status():
    # the survey maps a verdict to a cell status by its value
    for classification in Classification:
        assert CellStatus(classification.value).name == classification.name


def test_all_regions_appear():
    # the phase diagram at rs^2 = 0.8 contains all four regions:
    # infeasible above the diagonal, a non-stationary wedge, a large
    # loop-unstable region, and a small stable one
    grid = default_grid(10)
    spec = SweepSpec(eta_grid=grid, xi_grid=grid,
                     srm_power_reflectivities=(0.8,))
    result = run_sweep(spec, IFO, workers=1)
    statuses = {o.status for _, o in result.outcomes()}
    assert statuses == {CellStatus.INFEASIBLE, CellStatus.NON_STATIONARY,
                        CellStatus.OPTICAL_INSTABILITY, CellStatus.STABLE}


def test_double_root_cell_has_equal_labels():
    # on the xi == eta boundary both labels resolve to the repeated root
    spec = SweepSpec(eta_grid=(0.4,), xi_grid=(0.4,),
                     srm_power_reflectivities=(0.8,))
    grid = run_sweep(spec, IFO)
    (cell,) = grid.cells
    assert cell.feasible
    smaller, larger = cell.outcomes
    assert smaller.delta0 == larger.delta0


def test_double_root_cell_computed_once(monkeypatch):
    # the repeated root is classified (and integrated when stable) once
    # per reflectivity, and both labels share that outcome
    calls = []
    original = survey.classify_system

    def counting(detectors, media):
        calls.extend((ifo.srm_amplitude_reflectivity, med.delta0)
                     for ifo, med in zip(detectors, media, strict=True))
        return original(detectors, media)

    monkeypatch.setattr(survey, "classify_system", counting)
    spec = SweepSpec(eta_grid=(0.4,), xi_grid=(0.4,),
                     srm_power_reflectivities=(0.5, 0.8))
    (cell,) = run_sweep(spec, IFO).cells
    assert len(calls) == len(set(calls)) == 2
    statuses = []
    for smaller, larger in (cell.outcomes[:2], cell.outcomes[2:]):
        assert (smaller.root_label, larger.root_label) == ("smaller", "larger")
        assert smaller._replace(root_label="larger") == larger
        statuses.append(smaller.status)
    assert statuses == [CellStatus.STABLE, CellStatus.OPTICAL_INSTABILITY]
