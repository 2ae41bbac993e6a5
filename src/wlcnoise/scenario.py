"""Scenario files: the JSON schema consumed by the command line tool.

A scenario bundles the detector, the medium (either raw rates plus
detuning, or survey coordinates plus a root choice, whose detuning is
solved at load time) and optional response / sweep blocks. See README
for the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .interferometer import IfoParams, baseline_integrated_inverse_psd, reference_detector
from .medium import MediumParams
from .survey import RootChoice, SweepSpec, _cell_media, default_grid

__all__ = ["ScenarioError", "Scenario", "load_scenario"]

MAX_AXIS_COUNT = 10_000

# the fields each block accepts; any other key is rejected by name
_SCENARIO_FIELDS = ("detector", "medium", "response", "sweep")
_DETECTOR_FIELDS = ("arm_length", "srm_power_reflectivity")
_RATE_FIELDS = ("gamma12", "gamma_opt_total", "delta0")
_COORDINATE_FIELDS = ("eta", "xi", "root")
_RESPONSE_FIELDS = ("omega",)
_SWEEP_FIELDS = ("eta", "xi", "srm_power_reflectivities", "root_choice",
                 "include_additional_noise", "rel_tol")
_AXIS_FIELDS = ("start", "stop", "count")


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


def _unique_keys(pairs: list, path: Path) -> dict:
    """A JSON object as a dict; json.loads alone keeps a repeated key's
    last value without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"{path}: field {key!r} is given twice in one object")
        obj[key] = value
    return obj


@dataclass(frozen=True)
class Scenario:
    detector: IfoParams
    medium: MediumParams | None = None
    response_omegas: tuple[float, ...] | None = None
    sweep: SweepSpec | None = None


# Each reader takes the block, the field's key and the block's name, and
# raises ScenarioError naming <block>.<field>.
def _object(block, where: str, fields: tuple[str, ...]) -> dict:
    """The block, checked to be an object with no key outside fields."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(block) - set(fields)
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {sorted(unknown)}")
    return block


def _field(block: dict, key: str, where: str, default=None):
    """block[key]; a field without a default is required."""
    if key in block:
        return block[key]
    if default is None:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return default


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(block: dict, key: str, where: str, sign: str = "positive",
            default: float | None = None) -> float:
    """A finite number; sign is "positive", "nonnegative" or "any"."""
    value = _field(block, key, where, default)
    if not _is_number(value):
        raise ScenarioError(f"{where}.{key}: expected a finite number, got {value!r}")
    if (sign == "positive" and value <= 0) or (sign == "nonnegative" and value < 0):
        raise ScenarioError(f"{where}.{key}: must be {sign}, got {value}")
    return float(value)


def _count(block: dict, key: str, where: str) -> int:
    """A positive integer; true and false are not counts."""
    value = _field(block, key, where)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{where}.{key}: expected a positive integer")
    return value


def _flag(block: dict, key: str, where: str, default: bool) -> bool:
    value = _field(block, key, where, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}.{key}: expected a boolean")
    return value


def _choice(block: dict, key: str, where: str, options: tuple[str, ...],
            default: str) -> str:
    value = _field(block, key, where, default)
    if value not in options:
        raise ScenarioError(f"{where}.{key}: expected one of "
                            f"{', '.join(map(repr, options))}; got {value!r}")
    return value


def _numbers(block: dict, key: str, where: str,
             default: list | None = None) -> tuple[float, ...]:
    """A list of finite numbers."""
    values = _field(block, key, where, default)
    if not isinstance(values, list):
        raise ScenarioError(f"{where}.{key}: expected a list of finite numbers")
    for v in values:
        if not _is_number(v):
            raise ScenarioError(f"{where}.{key}: expected finite numbers, got {v!r}")
    return tuple(float(v) for v in values)


def _axis(block: dict, key: str, where: str) -> tuple[float, ...]:
    """A list of values, or a start/stop/count block on default_grid."""
    axis = _field(block, key, where)
    if isinstance(axis, list):
        return _numbers(block, key, where)
    where = f"{where}.{key}"
    if not isinstance(axis, dict):
        raise ScenarioError(f"{where}: expected a list of values or start/stop/count")
    _object(axis, where, _AXIS_FIELDS)
    start = _number(axis, "start", where, sign="any")
    stop = _number(axis, "stop", where, sign="any")
    count = _count(axis, "count", where)
    if count > MAX_AXIS_COUNT:
        raise ScenarioError(
            f"{where}.count: at most {MAX_AXIS_COUNT} points per axis, got {count}")
    return default_grid(count, start, stop)


def _parse_detector(block) -> tuple[IfoParams, float]:
    """The detector and its SRM power reflectivity as written.

    S_hh scales as 1 / (P_c omega_0) and rho_r not at all, so no output
    depends on the power or the carrier: both are the reference detector's.
    """
    where = "detector"
    _object(block, where, _DETECTOR_FIELDS)
    arm = _number(block, "arm_length", where)
    rs2 = _number(block, "srm_power_reflectivity", where, sign="any")
    if not 0.0 <= rs2 < 1.0:
        raise ScenarioError(f"{where}.srm_power_reflectivity: must lie in [0, 1)")
    ifo = replace(reference_detector(rs2), arm_length=arm)
    try:  # the strain noise scale and the rho_r baseline; arm_length**2 may raise
        scales = (ifo.signal_strength, baseline_integrated_inverse_psd(ifo))
    except OverflowError:
        scales = (math.inf,)
    if not all(0.0 < v < math.inf for v in scales):
        raise ScenarioError(f"{where}.arm_length: the signal scale or the baseline "
                            "integral leaves the float range")
    return ifo, rs2


def _parse_medium(block, tau: float) -> MediumParams:
    where = "medium"
    _object(block, where, _RATE_FIELDS + _COORDINATE_FIELDS)
    has_rates = not block.keys().isdisjoint(_RATE_FIELDS)
    if has_rates == (not block.keys().isdisjoint(_COORDINATE_FIELDS)):
        raise ScenarioError(
            f"{where}: specify exactly one of raw rates ({'/'.join(_RATE_FIELDS)}) "
            f"or survey coordinates ({'/'.join(_COORDINATE_FIELDS)})")
    if has_rates:
        return MediumParams(
            _number(block, "gamma12", where),
            _number(block, "gamma_opt_total", where, sign="nonnegative"),
            _number(block, "delta0", where, sign="nonnegative", default=0.0))
    eta = _number(block, "eta", where)
    if eta >= 1.0:
        raise ScenarioError(f"{where}.eta: must lie in (0, 1), got {eta}")
    xi = _number(block, "xi", where)
    if xi > 1.0:
        raise ScenarioError(f"{where}.xi: must lie in (0, 1], got {xi}")
    root = _choice(block, "root", where, RootChoice.BOTH.labels, "smaller")
    try:
        *_, media = _cell_media(eta, xi, tau, (root,))
    except OverflowError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    if not media:
        raise ScenarioError(
            f"{where}: no phase-cancellation detuning exists at "
            f"eta={eta}, xi={xi} (requires xi <= eta)")
    return media[root]


def _parse_sweep(block, rs2: float) -> SweepSpec:
    """The sweep; its reflectivities default to the detector's, rs2."""
    where = "sweep"
    _object(block, where, _SWEEP_FIELDS)
    fields = dict(
        eta_grid=_axis(block, "eta", where),
        xi_grid=_axis(block, "xi", where),
        srm_power_reflectivities=_numbers(block, "srm_power_reflectivities",
                                          where, default=[rs2]),
        root_choice=RootChoice(_choice(block, "root_choice", where,
                                       tuple(c.value for c in RootChoice), "both")),
        include_additional_noise=_flag(block, "include_additional_noise", where, True),
        rel_tol=_number(block, "rel_tol", where, default=1e-4),
    )
    try:
        return SweepSpec(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with a line/field diagnostic on any problem,
    including unknown fields in any block, a field given twice and
    numbers with no finite float value.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        doc = json.loads(text, parse_float=_parse_float, parse_int=_parse_int,
                         parse_constant=_NonFinite,
                         object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: JSON syntax error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from None
    where = "scenario"
    _object(doc, where, _SCENARIO_FIELDS)
    detector, rs2 = _parse_detector(_field(doc, "detector", where))
    medium = _parse_medium(doc["medium"], detector.tau) if "medium" in doc else None
    response_omegas = None
    if "response" in doc:
        response = _object(doc["response"], "response", _RESPONSE_FIELDS)
        response_omegas = _axis(response, "omega", "response")
    sweep = _parse_sweep(doc["sweep"], rs2) if "sweep" in doc else None
    return Scenario(detector=detector, medium=medium,
                    response_omegas=response_omegas, sweep=sweep)
