"""Configuration ingestion, trajectory emission, and run manifests.

Configs are strict JSON: unknown keys are rejected with their path so typos
surface instead of silently falling back to defaults. Simulation output is
dimensionless; every emitted file gets a sibling manifest recording the fully
resolved config, the unit scales for SI reconstruction, the command line, the
seed, and a digest of each output file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .grid import GridSpec
from .units import (ApparatusParams, FdivSpec, G_NEWTON, MeasurementConfig,
                    Scales)

TRAJECTORY_HEADER = "t,xbar,x2bar,x_plus,x_minus,d,norm_plus,norm_minus,energy"

_TOP_KEYS = {"mass_kg", "radius_m", "density_kgm3", "G", "p", "F_meas_N",
             "tau_meas_s", "l0_m", "F_div", "grid", "gamma", "engine"}
_REQUIRED_KEYS = {"p", "F_meas_N", "tau_meas_s", "l0_m", "F_div"}
_GRID_KEYS = {"n", "l", "dt", "sample_every"}
# (MeasurementConfig field, its SI config key, the Scales attribute that
# makes it dimensionless; p already is)
_MEASUREMENT_KEYS = (("p", "p", None), ("f_meas", "F_meas_N", "force"),
                     ("tau_meas", "tau_meas_s", "time"),
                     ("l0", "l0_m", "length"))


class ConfigError(ValueError):
    """Configuration rejected; the message carries the offending key path."""


@dataclass(frozen=True)
class LoadedConfig:
    """A validated config. grid holds the keys of the config's grid block
    (n and sample_every as int, l and dt as float); the command that runs
    fills in the rest."""

    apparatus: ApparatusParams
    measurement: MeasurementConfig
    scales: Scales
    grid: dict
    gamma: float
    engine: str | None

    @property
    def f_meas_dimensionless(self) -> float:
        return self.measurement.f_meas / self.scales.force

    def f_div_dimensionless(self) -> float:
        """Fixed diverting force in packet units; rejects the uniform kind."""
        if self.measurement.f_div.kind != "fixed":
            raise ConfigError(
                'F_div.kind: deterministic evolution needs {"kind": "fixed", '
                '"value_N": ...}; the uniform kind is for ensembles')
        return self.measurement.f_div.value / self.scales.force

    def manifest_config(self, grid: tuple[GridSpec, int | None] | None) -> dict:
        """The config as a manifest records it: every value after defaults,
        in SI and in packet units, and the (GridSpec, sample_every) the run
        used (None if it used no grid)."""
        a, m = self.apparatus, self.measurement
        record = None
        if grid is not None:
            spec, sample_every = grid
            record = {"n": spec.n, "l": spec.half_length, "dt": spec.dt,
                      "sample_every": sample_every}
        fixed = m.f_div.kind == "fixed"
        si = {"mass_kg": a.mass, "radius_m": a.radius,
              "density_kgm3": a.density, "G": a.big_g,
              "F_div": ({"kind": "fixed", "value_N": m.f_div.value} if fixed
                        else {"kind": "uniform"}),
              "gamma": self.gamma, "engine": self.engine, "grid": record}
        dimensionless = {"gamma": self.gamma,
                         "f_div": (self.f_div_dimensionless() if fixed
                                   else "uniform")}
        for field, key, scale in _MEASUREMENT_KEYS:
            si[key] = value = getattr(m, field)
            dimensionless[field] = (value / getattr(self.scales, scale)
                                    if scale else value)
        return {"si": si, "dimensionless": dimensionless}


def _require_number(obj: dict, key: str, path: str = "") -> float:
    where = f"{path}{key}"
    if key not in obj:
        raise ConfigError(f"missing required key: {where}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def load_config(path) -> LoadedConfig:
    """Read and fully validate a JSON config file.

    Returns the apparatus, measurement settings, unit scales, the grid
    block as given, damping and default engine.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown key: {unknown[0]}")
    missing = sorted(_REQUIRED_KEYS - set(raw))
    if missing:
        raise ConfigError(f"missing required key: {missing[0]}")

    body = {}
    for key in ("mass_kg", "radius_m", "density_kgm3"):
        if key in raw:
            body[key] = _require_number(raw, key)
    if len(body) < 2:
        raise ConfigError(
            "need at least two of mass_kg, radius_m, density_kgm3")
    big_g = _require_number(raw, "G") if "G" in raw else G_NEWTON
    if not big_g > 0.0:
        raise ConfigError(f"G: must be > 0, got {big_g!r}")
    try:
        apparatus = ApparatusParams.derive(mass=body.get("mass_kg"),
                                           radius=body.get("radius_m"),
                                           density=body.get("density_kgm3"),
                                           big_g=big_g)
    except (ValueError, ZeroDivisionError) as exc:  # radius**3 can underflow
        raise ConfigError(f"mass_kg/radius_m/density_kgm3: {exc}")

    fdiv_raw = raw["F_div"]
    if not isinstance(fdiv_raw, dict) or "kind" not in fdiv_raw:
        raise ConfigError('F_div: expected an object with a "kind" key')
    kind = fdiv_raw["kind"]
    if kind == "uniform":
        if set(fdiv_raw) != {"kind"}:
            extra = sorted(set(fdiv_raw) - {"kind"})
            raise ConfigError(f"F_div.{extra[0]}: not allowed for the uniform kind")
        fdiv = FdivSpec("uniform")
    elif kind == "fixed":
        if set(fdiv_raw) != {"kind", "value_N"}:
            raise ConfigError('F_div: the fixed kind takes exactly "kind" and "value_N"')
        fdiv = FdivSpec("fixed", _require_number(fdiv_raw, "value_N", "F_div."))
    else:
        raise ConfigError(f"F_div.kind: expected 'uniform' or 'fixed', got {kind!r}")

    try:
        measurement = MeasurementConfig(
            f_div=fdiv, **{field: _require_number(raw, key)
                           for field, key, _ in _MEASUREMENT_KEYS})
    except ValueError as exc:
        msg = str(exc)
        field = msg.split(" ", 1)[0]
        rename = {field: key for field, key, _ in _MEASUREMENT_KEYS}
        raise ConfigError(f"{rename.get(field, field)}: {msg}")

    grid_raw = raw.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid: expected an object")
    unknown = sorted(set(grid_raw) - _GRID_KEYS)
    if unknown:
        raise ConfigError(f"grid.{unknown[0]}: unknown key")
    grid = {key: _require_number(grid_raw, key, "grid.") for key in grid_raw}
    for key in ("n", "sample_every"):
        if key in grid:
            if grid[key] != int(grid[key]):
                raise ConfigError(f"grid.{key}: expected an integer, got {grid[key]!r}")
            grid[key] = int(grid[key])
    if grid.get("sample_every", 1) < 1:
        raise ConfigError(
            f"grid.sample_every: expected a positive integer, got {grid['sample_every']!r}")
    try:
        # GridSpec checks each field on its own, so the placeholders let
        # only the keys the block sets fail
        GridSpec(half_length=grid.get("l", 1.0), n=grid.get("n", 1),
                 dt=grid.get("dt", 1.0))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")

    gamma = _require_number(raw, "gamma") if "gamma" in raw else 0.0
    if gamma < 0.0:
        raise ConfigError(f"gamma: must be >= 0, got {gamma!r}")
    engine = raw.get("engine")
    if engine is not None and engine not in ("analytic", "grid"):
        raise ConfigError(f"engine: expected 'analytic' or 'grid', got {engine!r}")

    scales = _packet_scales(apparatus, measurement)
    return LoadedConfig(apparatus=apparatus, measurement=measurement,
                        scales=scales, grid=grid, gamma=gamma, engine=engine)


def _packet_scales(apparatus: ApparatusParams,
                   measurement: MeasurementConfig) -> Scales:
    """The unit scales, after checking that they and every value the run
    uses in packet units are finite: a finite SI value can still overflow
    there."""
    scales = Scales.from_apparatus(apparatus)
    for name, value in vars(scales).items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(
                f"mass_kg/radius_m/density_kgm3/G: the {name} scale is "
                f"{value!r}, not a finite positive number")
    derived = [(key, getattr(measurement, field), getattr(scales, scale))
               for field, key, scale in _MEASUREMENT_KEYS if scale]
    if measurement.f_div.kind == "fixed":
        derived.append(("F_div.value_N", measurement.f_div.value, scales.force))
    for key, value, scale in derived:
        if not math.isfinite(value / scale):
            raise ConfigError(
                f"{key}: {value!r} is {value / scale!r} in packet units; "
                f"expected a finite number")
    return scales


def emit_trajectory(table, path) -> None:
    """Write the trajectory CSV: fixed header and column order, 17 significant
    digits, '\\n' line endings, one trailing newline.

    table carries one array per column as attributes, a GridTrajectory or the
    closed form's columns; d is x_plus - x_minus, and a column table lacks
    (the grid-only ones, for the closed form) is written as empty cells.
    """
    if len(table.t) == 0:
        raise ValueError("trajectory is empty")
    columns = [table.x_plus - table.x_minus if name == "d"
               else getattr(table, name, None)
               for name in TRAJECTORY_HEADER.split(",")]
    row = ",".join("" if col is None else "%.17g" for col in columns) + "\n"
    values = zip(*(col.tolist() for col in columns if col is not None))
    with open(path, "w", newline="\n") as out:
        out.write(TRAJECTORY_HEADER + "\n")
        out.writelines(row % cells for cells in values)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(output_paths, command, loaded: LoadedConfig,
                   grid: tuple[GridSpec, int | None] | None = None,
                   master_seed: int | None = None) -> Path:
    """Write a manifest next to the first output, covering all of them.

    grid is the (GridSpec, sample_every) the run used, None if it used none.
    """
    outputs = [{"path": Path(p).name, "sha256": file_digest(p)}
               for p in output_paths]
    scales = loaded.scales
    manifest = {
        "tool": "gravimean",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": list(command),
        "master_seed": master_seed,
        "config": loaded.manifest_config(grid),
        "scales": {"length_m": scales.length, "time_s": scales.time,
                   "force_N": scales.force, "energy_J": scales.energy},
        "outputs": outputs,
    }
    path = Path(str(output_paths[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def verify_manifest(manifest_path) -> list[str]:
    """Recompute output digests; returns a list of mismatch descriptions."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    problems = []
    for entry in manifest.get("outputs", []):
        target = manifest_path.parent / entry["path"]
        if not target.exists():
            problems.append(f"missing output file: {entry['path']}")
            continue
        actual = file_digest(target)
        if actual != entry["sha256"]:
            problems.append(
                f"digest mismatch for {entry['path']}: manifest {entry['sha256']}, "
                f"file {actual}")
    return problems
