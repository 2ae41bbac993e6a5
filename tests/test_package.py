import importlib
from operator import attrgetter

import pytest

import wlcnoise
from wlcnoise import errors

MODULES = ["interferometer", "medium", "numerics", "scenario", "stability", "survey"]


@pytest.mark.parametrize("name", MODULES)
def test_root_exports_each_module_all(name):
    # the package root re-exports every public name of every module, as
    # the same object, so the two can never drift apart
    module = importlib.import_module(f"wlcnoise.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(wlcnoise, public) is getattr(module, public), public


def test_root_exports_every_exception():
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert len(classes) == 6
    for cls in classes:
        assert getattr(wlcnoise, cls.__name__) is cls


# the names the benchmark harness (bench/run.py, bench/test_bench.py)
# wraps, patches or calls; without one only the benchmark would fail
BENCH_BINDINGS = {
    "survey": ("run_sweep", "improvement_factor", "classify_system", "strain_psd",
               "ProcessPoolExecutor"),
    "cli": ("main", "run_sweep"),
    "medium": ("map_eta_xi", "solve_detuning"),
    "stability": ("classify_system", "root_count_oracle"),
    "interferometer": ("open_loop_gain", "strain_psd", "IfoParams.with_power_reflectivity"),
    "numerics": ("accumulate_winding", "integrate_adaptive"),
    "scenario": ("load_scenario",),
}


@pytest.mark.parametrize("module,name", [(module, name) for module, names
                                         in BENCH_BINDINGS.items() for name in names])
def test_bench_bindings_exist(module, name):
    assert callable(attrgetter(name)(importlib.import_module(f"wlcnoise.{module}")))
