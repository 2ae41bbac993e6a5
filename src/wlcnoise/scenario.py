"""Scenario files: the JSON schema consumed by the command line tool.

A scenario bundles the detector, the medium (either raw rates plus
detuning, or survey coordinates plus a root choice), the noise model,
and optional response / sweep blocks. See README for the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .interferometer import SPEED_OF_LIGHT, IfoParams
from .medium import MediumParams, NoiseModel, map_eta_xi, solve_detuning
from .survey import RootChoice, SweepSpec

__all__ = ["ScenarioError", "Scenario", "load_scenario"]

MAX_AXIS_COUNT = 10_000


class ScenarioError(ValueError):
    """Scenario file is syntactically or semantically invalid."""


class _NonFinite(str):
    """Text of a JSON number with no finite float value (NaN, Infinity,
    1e400, a 400-digit integer). Not an int or float, so every numeric
    field rejects it by name."""

    def __repr__(self) -> str:
        return str(self) if len(self) <= 32 else f"a {len(self)}-character number"


def _parse_float(text: str):
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def _parse_int(text: str):
    return int(text) if math.isfinite(float(text)) else _NonFinite(text)


@dataclass(frozen=True)
class EtaXiMedium:
    eta: float
    xi: float
    root: str  # "smaller" or "larger"


@dataclass(frozen=True)
class Scenario:
    detector: IfoParams
    noise_model: NoiseModel
    medium_rates: MediumParams | None = None
    medium_eta_xi: EtaXiMedium | None = None
    response_omegas: tuple[float, ...] | None = None
    sweep: SweepSpec | None = None

    def resolve_medium(self) -> MediumParams:
        """The medium to simulate, solving the detuning if needed."""
        if self.medium_rates is not None:
            return self.medium_rates
        assert self.medium_eta_xi is not None
        exm = self.medium_eta_xi
        tau = self.detector.tau
        gamma12, gamma_opt = map_eta_xi(exm.eta, exm.xi, tau)
        roots = solve_detuning(gamma12, gamma_opt, tau)
        if not roots:
            raise ScenarioError(
                f"medium: no phase-cancellation detuning exists at "
                f"eta={exm.eta}, xi={exm.xi} (requires xi <= eta)")
        delta0 = roots[0] if exm.root == "smaller" else roots[-1]
        return MediumParams(gamma12, gamma_opt, delta0)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _number(mapping: dict, key: str, where: str, positive: bool = True,
            default: float | None = None) -> float:
    if key not in mapping:
        if default is not None:
            return default
        raise ScenarioError(f"{where}: missing required field '{key}'")
    value = mapping[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{where}.{key}: expected a finite number, got {value!r}")
    if positive and value <= 0:
        raise ScenarioError(f"{where}.{key}: must be positive, got {value}")
    return float(value)


def _parse_detector(block: dict) -> IfoParams:
    where = "detector"
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    arm = _number(block, "arm_length", where)
    power = _number(block, "circulating_power", where)
    if "carrier_angular_frequency" in block:
        omega0 = _number(block, "carrier_angular_frequency", where)
    else:
        wavelength = _number(block, "carrier_wavelength", where)
        omega0 = 2.0 * math.pi * SPEED_OF_LIGHT / wavelength
    rs2 = _number(block, "srm_power_reflectivity", where, positive=False)
    if not 0.0 <= rs2 < 1.0:
        raise ScenarioError(f"{where}.srm_power_reflectivity: must lie in [0, 1)")
    zeta = block.get("homodyne_angle", 0.0)
    if not isinstance(zeta, (int, float)) or isinstance(zeta, bool):
        raise ScenarioError(f"{where}.homodyne_angle: expected a finite number, "
                            f"got {zeta!r}")
    include = block.get("include_additional_noise", True)
    if not isinstance(include, bool):
        raise ScenarioError(f"{where}.include_additional_noise: expected a boolean")
    return IfoParams(
        arm_length=arm, circulating_power=power,
        carrier_angular_frequency=omega0,
        srm_amplitude_reflectivity=math.sqrt(rs2),
        homodyne_angle=float(zeta),
        include_additional_noise=include,
    )


def _parse_medium(block: dict) -> tuple[MediumParams | None, EtaXiMedium | None]:
    where = "medium"
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    has_rates = "gamma12" in block
    has_eta_xi = "eta" in block or "xi" in block
    if has_rates == has_eta_xi:
        raise ScenarioError(
            f"{where}: specify exactly one of raw rates "
            "(gamma12/gamma_opt_total/delta0) or survey coordinates (eta/xi)")
    if has_rates:
        gamma12 = _number(block, "gamma12", where)
        gamma_opt = _number(block, "gamma_opt_total", where, positive=False)
        if gamma_opt < 0:
            raise ScenarioError(f"{where}.gamma_opt_total: must be nonnegative")
        delta0 = _number(block, "delta0", where, positive=False, default=0.0)
        if delta0 < 0:
            raise ScenarioError(f"{where}.delta0: must be nonnegative")
        atoms = block.get("atom_count", 1)
        if not isinstance(atoms, int) or isinstance(atoms, bool) or atoms < 1:
            raise ScenarioError(f"{where}.atom_count: expected a positive integer")
        return MediumParams(gamma12, gamma_opt, delta0, atoms), None
    eta = _number(block, "eta", where)
    if eta >= 1.0:
        raise ScenarioError(f"{where}.eta: must lie in (0, 1), got {eta}")
    xi = _number(block, "xi", where)
    if xi > 1.0:
        raise ScenarioError(f"{where}.xi: must lie in (0, 1], got {xi}")
    root = block.get("root", "smaller")
    if root not in ("smaller", "larger"):
        raise ScenarioError(f"{where}.root: expected 'smaller' or 'larger', got {root!r}")
    return None, EtaXiMedium(eta=eta, xi=xi, root=root)


def _parse_axis(block, where: str) -> tuple[float, ...]:
    if isinstance(block, list):
        values = block
    elif isinstance(block, dict):
        start = _number(block, "start", where, positive=False)
        stop = _number(block, "stop", where, positive=False)
        count = block.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ScenarioError(f"{where}.count: expected a positive integer")
        if count > MAX_AXIS_COUNT:
            raise ScenarioError(
                f"{where}.count: at most {MAX_AXIS_COUNT} points per axis, got {count}")
        if count == 1:
            values = [0.5 * (start + stop)]
        else:
            step = (stop - start) / (count - 1)
            values = [start + k * step for k in range(count)]
    else:
        raise ScenarioError(f"{where}: expected a list of values or start/stop/count")
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ScenarioError(f"{where}: expected finite numbers, got {v!r}")
    return tuple(float(v) for v in values)


def _parse_sweep(block: dict, detector: IfoParams,
                 noise_model: NoiseModel) -> SweepSpec:
    where = "sweep"
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    if not detector.reads_signal:
        raise ScenarioError(
            f"detector.homodyne_angle: readout at {detector.homodyne_angle} "
            "carries no signal, so a sweep has no strain noise to integrate")
    eta_grid = _parse_axis(_require(block, "eta", where), f"{where}.eta")
    xi_grid = _parse_axis(_require(block, "xi", where), f"{where}.xi")
    rs2_list = block.get("srm_power_reflectivities")
    if rs2_list is None:
        rs2_list = [detector.srm_amplitude_reflectivity**2]
    if (not isinstance(rs2_list, list) or not rs2_list
            or any(not isinstance(v, (int, float)) or isinstance(v, bool)
                   for v in rs2_list)):
        raise ScenarioError(f"{where}.srm_power_reflectivities: expected a "
                            "nonempty list of finite numbers")
    choice = block.get("root_choice", "both")
    try:
        root_choice = RootChoice(choice)
    except ValueError:
        raise ScenarioError(f"{where}.root_choice: expected one of "
                            f"'smaller', 'larger', 'both'; got {choice!r}") from None
    include = block.get("include_additional_noise",
                        detector.include_additional_noise)
    if not isinstance(include, bool):
        raise ScenarioError(f"{where}.include_additional_noise: expected a boolean")
    rel_tol = _number(block, "rel_tol", where, default=1e-4)
    abs_tol = block.get("abs_tol", 0.0)
    if not isinstance(abs_tol, (int, float)) or isinstance(abs_tol, bool) or abs_tol < 0:
        raise ScenarioError(f"{where}.abs_tol: expected a nonnegative number")
    try:
        return SweepSpec(
            eta_grid=eta_grid, xi_grid=xi_grid,
            srm_power_reflectivities=tuple(float(v) for v in rs2_list),
            root_choice=root_choice,
            include_additional_noise=include,
            noise_model=noise_model,
            rel_tol=rel_tol, abs_tol=float(abs_tol),
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with a line/field diagnostic on any problem,
    including numbers with no finite float value.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        doc = json.loads(text, parse_float=_parse_float, parse_int=_parse_int,
                         parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: JSON syntax error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")

    unknown = set(doc) - {"detector", "medium", "noise_model", "response", "sweep"}
    if unknown:
        raise ScenarioError(f"unknown top-level fields: {sorted(unknown)}")

    detector = _parse_detector(_require(doc, "detector", "scenario"))

    model_name = doc.get("noise_model", "local")
    try:
        noise_model = NoiseModel(model_name)
    except ValueError:
        raise ScenarioError(
            f"noise_model: expected 'local' or 'collective', got {model_name!r}"
        ) from None

    medium_rates = medium_eta_xi = None
    if "medium" in doc:
        medium_rates, medium_eta_xi = _parse_medium(doc["medium"])

    response_omegas = None
    if "response" in doc:
        block = doc["response"]
        if not isinstance(block, dict):
            raise ScenarioError("response: expected an object")
        if "omega" in block:
            axis = block["omega"]
            response_omegas = (_parse_axis(axis, "response.omega")
                               if axis != [] else ())
        else:
            raise ScenarioError("response: missing required field 'omega'")

    sweep = None
    if "sweep" in doc:
        sweep = _parse_sweep(doc["sweep"], detector, noise_model)

    return Scenario(detector=detector, noise_model=noise_model,
                    medium_rates=medium_rates, medium_eta_xi=medium_eta_xi,
                    response_omegas=response_omegas, sweep=sweep)
