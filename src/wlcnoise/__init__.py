"""Quantum-noise and stability survey of a signal-recycled interferometer
with a double-pumped anomalous-dispersion gain medium."""

from .errors import (
    AccuracyError,
    DegenerateEquationError,
    MarginalStabilityError,
    MediumNotStationaryError,
    PoleError,
    SingularParametrizationError,
    ZeroSignalError,
)
from .interferometer import (
    IfoParams,
    baseline_integrated_inverse_psd,
    open_loop_gain,
    reference_detector,
    strain_psd,
)
from .medium import (
    MediumClass,
    MediumParams,
    NoiseModel,
    classify_medium,
    eta_xi_of,
    map_eta_xi,
    noise_coefficients,
    probe_transfer,
    round_trip_phase,
    solve_detuning,
    susceptibility,
    validity_margin,
)
from .numerics import (
    QuadraticRoots,
    QuadratureResult,
    integrate_adaptive,
    solve_quadratic,
    winding_number,
)
from .stability import (
    Classification,
    StabilityReport,
    classify_system,
    default_omega_max,
    nyquist_contour,
    root_count_oracle,
)
from .survey import (
    CellStatus,
    RootChoice,
    SweepCell,
    SweepGrid,
    SweepSpec,
    default_grid,
    improvement_factor,
    run_sweep,
)

__version__ = "0.1.0"
