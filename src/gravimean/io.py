"""Configuration ingestion, trajectory emission, and run manifests.

Configs are strict JSON: unknown keys are rejected with their path so typos
surface instead of silently falling back to defaults. Simulation output is
dimensionless; every emitted file gets a sibling manifest recording the fully
resolved config, the unit scales for SI reconstruction, the command line, the
seed, and a digest of each output file. Only file_digest imports hashlib,
and with it OpenSSL, so a run that writes or verifies no manifest never
loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .grid import MAX_N, GridSpec, NumericalError
from .units import (ApparatusParams, FdivSpec, G_NEWTON, MeasurementConfig,
                    Scales)

TRAJECTORY_HEADER = "t,xbar,x2bar,x_plus,x_minus,d,norm_plus,norm_minus,energy"
_COLUMNS = TRAJECTORY_HEADER.split(",")
# Rows emit_trajectory formats and writes at a time, and bytes file_digest
# reads at a time: what either holds does not grow with the output.
EMIT_ROWS = 2**11
DIGEST_CHUNK = 2**16

_TOP_KEYS = {"mass_kg", "radius_m", "density_kgm3", "G", "p", "F_meas_N",
             "tau_meas_s", "l0_m", "F_div", "grid", "gamma"}
_REQUIRED_KEYS = {"p", "F_meas_N", "tau_meas_s", "l0_m", "F_div"}
_GRID_KEYS = {"n", "l", "dt", "sample_every"}
# (MeasurementConfig field, its SI config key, the Scales attribute that
# makes it dimensionless; p already is)
_MEASUREMENT_KEYS = (("p", "p", None), ("f_meas", "F_meas_N", "force"),
                     ("tau_meas", "tau_meas_s", "time"),
                     ("l0", "l0_m", "length"))


@dataclass(frozen=True)
class LoadedConfig:
    """A validated config. packet holds the measurement in packet units, as
    converted once at load (f_div is a float or "uniform"). grid holds the
    keys of the config's grid block (n and sample_every as int, l and dt as
    float); the command that runs fills in the rest."""

    apparatus: ApparatusParams
    measurement: MeasurementConfig
    scales: Scales
    packet: dict
    grid: dict
    gamma: float

    @property
    def f_meas_dimensionless(self) -> float:
        return self.packet["f_meas"]

    def f_div_dimensionless(self) -> float:
        """Fixed diverting force in packet units; rejects the uniform kind."""
        if self.measurement.f_div.kind != "fixed":
            raise ValueError(
                'F_div.kind: deterministic evolution needs {"kind": "fixed", '
                '"value_N": ...}; the uniform kind is for ensembles')
        return self.packet["f_div"]

    def manifest_config(self, grid: dict | None) -> dict:
        """The config as a manifest records it: every value after defaults,
        in SI and in packet units as the run read them, and the grid block
        the run used as given (None if it used no grid)."""
        a, m = self.apparatus, self.measurement
        si = {"mass_kg": a.mass, "radius_m": a.radius,
              "density_kgm3": a.density, "G": a.big_g,
              **{key: getattr(m, field) for field, key, _ in _MEASUREMENT_KEYS},
              "F_div": ({"kind": "fixed", "value_N": m.f_div.value}
                        if m.f_div.kind == "fixed" else {"kind": "uniform"}),
              "gamma": self.gamma, "grid": grid}
        return {"si": si, "dimensionless": {"gamma": self.gamma, **self.packet}}


def _require_number(obj: dict, key: str, path: str = "") -> float:
    where = f"{path}{key}"
    if key not in obj:
        raise ValueError(f"missing required key: {where}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return number


def load_config(path) -> LoadedConfig:
    """Read and fully validate a JSON config file.

    Returns the apparatus, measurement settings in SI and packet units, unit
    scales, the grid block as given and damping. A refused config raises
    ValueError, its message led by the offending key path.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")

    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ValueError(f"unknown key: {unknown[0]}")
    missing = sorted(_REQUIRED_KEYS - set(raw))
    if missing:
        raise ValueError(f"missing required key: {missing[0]}")

    body = {}
    for key in ("mass_kg", "radius_m", "density_kgm3"):
        if key in raw:
            body[key] = _require_number(raw, key)
    if len(body) < 2:
        raise ValueError(
            "need at least two of mass_kg, radius_m, density_kgm3")
    big_g = _require_number(raw, "G") if "G" in raw else G_NEWTON
    if not big_g > 0.0:
        raise ValueError(f"G: must be > 0, got {big_g!r}")
    try:
        apparatus = ApparatusParams.derive(mass=body.get("mass_kg"),
                                           radius=body.get("radius_m"),
                                           density=body.get("density_kgm3"),
                                           big_g=big_g)
    except ValueError as exc:
        raise ValueError(f"mass_kg/radius_m/density_kgm3: {exc}")
    except ArithmeticError:  # radius**3 can underflow or overflow
        raise ValueError("mass_kg/radius_m/density_kgm3: the sphere they "
                         "give leaves the float range")

    fdiv_raw = raw["F_div"]
    if not isinstance(fdiv_raw, dict) or "kind" not in fdiv_raw:
        raise ValueError('F_div: expected an object with a "kind" key')
    kind = fdiv_raw["kind"]
    if kind == "uniform":
        if set(fdiv_raw) != {"kind"}:
            extra = sorted(set(fdiv_raw) - {"kind"})
            raise ValueError(f"F_div.{extra[0]}: not allowed for the uniform kind")
        fdiv = FdivSpec("uniform")
    elif kind == "fixed":
        if set(fdiv_raw) != {"kind", "value_N"}:
            raise ValueError('F_div: the fixed kind takes exactly "kind" and "value_N"')
        fdiv = FdivSpec("fixed", _require_number(fdiv_raw, "value_N", "F_div."))
    else:
        raise ValueError(f"F_div.kind: expected 'uniform' or 'fixed', got {kind!r}")

    # read before the try, whose handler re-labels MeasurementConfig's errors
    numbers = {field: _require_number(raw, key)
               for field, key, _ in _MEASUREMENT_KEYS}
    try:
        measurement = MeasurementConfig(f_div=fdiv, **numbers)
    except ValueError as exc:
        msg = str(exc)
        field = msg.split(" ", 1)[0]
        rename = {field: key for field, key, _ in _MEASUREMENT_KEYS}
        raise ValueError(f"{rename.get(field, field)}: {msg}")

    grid_raw = raw.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise ValueError("grid: expected an object")
    unknown = sorted(set(grid_raw) - _GRID_KEYS)
    if unknown:
        raise ValueError(f"grid.{unknown[0]}: unknown key")
    grid = {key: _require_number(grid_raw, key, "grid.") for key in grid_raw}
    for key in ("n", "sample_every"):
        if key in grid:
            if grid[key] != int(grid[key]):
                raise ValueError(f"grid.{key}: expected an integer, got {grid[key]!r}")
            grid[key] = int(grid[key])
    if grid.get("sample_every", 1) < 1:
        raise ValueError(
            f"grid.sample_every: expected a positive integer, got {grid['sample_every']!r}")
    try:
        # GridSpec checks each field on its own, and l against n, so the
        # placeholders (the largest n, for the smallest dx) let only the
        # keys the block sets fail
        GridSpec(half_length=grid.get("l", 1.0), n=grid.get("n", MAX_N),
                 dt=grid.get("dt", 1.0))
    except ValueError as exc:
        raise ValueError(f"grid: {exc}")

    gamma = _require_number(raw, "gamma") if "gamma" in raw else 0.0
    if gamma < 0.0:
        raise ValueError(f"gamma: must be >= 0, got {gamma!r}")

    scales, packet = _packet_units(apparatus, measurement)
    return LoadedConfig(apparatus=apparatus, measurement=measurement,
                        scales=scales, packet=packet, grid=grid, gamma=gamma)


def _packet_units(apparatus: ApparatusParams,
                  measurement: MeasurementConfig) -> tuple[Scales, dict]:
    """The unit scales and LoadedConfig.packet, after checking that the
    scales and every value the run uses in packet units are finite, and that
    no value is 0 there unless it is in SI: a finite SI value can still
    overflow or underflow there."""
    scales = Scales.from_apparatus(apparatus)
    for name, value in vars(scales).items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"mass_kg/radius_m/density_kgm3/G: the {name} scale is "
                f"{value!r}, not a finite positive number")
    packet = {"p": measurement.p, "f_div": "uniform"}
    derived = [(field, key, getattr(measurement, field), getattr(scales, s))
               for field, key, s in _MEASUREMENT_KEYS if s]
    if measurement.f_div.kind == "fixed":
        derived.append(("f_div", "F_div.value_N", measurement.f_div.value,
                        scales.force))
    for field, key, value, scale in derived:
        packet[field] = quotient = value / scale
        underflow = quotient == 0.0 and value != 0.0
        if underflow or not math.isfinite(quotient):
            raise ValueError(
                f"{key}: {value!r} is {quotient!r} in packet units; expected "
                f"a {'nonzero' if underflow else 'finite'} number")
    return scales, packet


def to_json(obj) -> str:
    """The JSON text of a result or manifest, as the CLI prints and writes
    it."""
    return json.dumps(obj, indent=2, sort_keys=True)


def write_text(path, chunks) -> None:
    """Write the strings of chunks to path, in order, with '\\n' line
    endings. A failure once the file is open, in a write or in chunks,
    removes it before the error propagates; a path that cannot be opened is
    left as it was."""
    out = open(path, "w", newline="\n")
    try:
        with out:
            for chunk in chunks:
                out.write(chunk)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def emit_trajectory(table, path) -> None:
    """Write the trajectory CSV: fixed header and column order, 17 significant
    digits, '\\n' line endings, one trailing newline.

    table holds the whole t column, one entry per row, and table.columns(
    start, stop) gives the arrays of rows start to stop by column name: a
    GridTrajectory, or the closed form evaluated a block at a time. Rows go
    out EMIT_ROWS at a time, each block formatted by its row template
    repeated, so memory does not grow with the row count. d is
    x_plus - x_minus, and a column the table lacks (the grid-only ones, for
    the closed form) is written as empty cells. A cell that is not finite
    raises NumericalError (_finite_cells). A run that fails once the file
    is open removes it before the error propagates (write_text).
    """
    rows = len(table.t)
    if rows == 0:
        raise ValueError("trajectory is empty")

    def blocks():
        yield TRAJECTORY_HEADER + "\n"
        for start in range(0, rows, EMIT_ROWS):
            block = table.columns(start, min(start + EMIT_ROWS, rows))
            columns = [block["x_plus"] - block["x_minus"] if name == "d"
                       else block.get(name) for name in _COLUMNS]
            row = ",".join("" if col is None else "%.17g"
                           for col in columns) + "\n"
            cells = np.stack([col for col in columns if col is not None],
                             axis=1)
            _finite_cells(cells, columns, start)
            yield (row * len(cells)) % tuple(cells.ravel().tolist())

    # a cell that overflows is left to _finite_cells, not warned about
    with np.errstate(all="ignore"):
        write_text(path, blocks())


def _finite_cells(cells: np.ndarray, columns: list, start: int) -> None:
    """Raise NumericalError naming the first cell of cells, rows start on
    of the trajectory's non-empty columns (columns holds None for an empty
    one), that is not finite."""
    finite = np.isfinite(cells)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        name = [n for n, c in zip(_COLUMNS, columns) if c is not None][col]
        raise NumericalError(
            f"trajectory row {start + row} (t={float(cells[row, 0])!r}): "
            f"{name} is {float(cells[row, col])!r}, not a finite number")


def file_digest(path) -> str:
    """sha256 of a file, read DIGEST_CHUNK bytes at a time into one buffer.

    hashlib is imported here, not at the top: it loads OpenSSL, which only
    a run that writes or verifies a manifest needs."""
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(DIGEST_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def write_manifest(output_path, command, loaded: LoadedConfig,
                   grid: dict | None = None,
                   master_seed: int | None = None) -> Path:
    """Write the manifest of one output next to it; a run whose manifest
    cannot be written removes the output, and the manifest if it was
    opened (write_text), before the error propagates.

    grid is the grid block the run used (cli._grid), None if it used none.
    """
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
        "outputs": [{"path": Path(output_path).name,
                     "sha256": file_digest(output_path)}],
    }
    path = Path(str(output_path) + ".manifest.json")
    try:
        write_text(path, [to_json(manifest) + "\n"])
    except BaseException:
        Path(output_path).unlink(missing_ok=True)
        raise
    return path


def verify_manifest(manifest_path) -> list[str]:
    """Recompute output digests; returns a list of problem descriptions.

    A manifest that lists no outputs, or an entry whose path is missing or
    is not a bare file name next to the manifest (write_manifest writes
    only such names), is a problem: it would check nothing, or a file
    elsewhere. A path that cannot be read, a file that is not JSON, and a
    manifest, an outputs list or an entry that is not of the shape
    write_manifest writes, is one too."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        return [f"cannot read manifest: {exc}"]
    except ValueError as exc:
        return [f"manifest is not JSON: {exc}"]
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not outputs or not isinstance(outputs, list):
        return ["manifest lists no outputs"]
    problems = []
    for index, entry in enumerate(outputs):
        name = entry.get("path") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            problems.append(f"output {index} has no path")
            continue
        if name in ("", "..") or Path(name).name != name:
            problems.append(f"output {index}: path {name!r} is not a bare "
                            f"file name")
            continue
        target = manifest_path.parent / name
        if not target.is_file():  # a directory cannot be digested either
            problems.append(f"missing output file: {name}")
            continue
        actual, expected = file_digest(target), entry.get("sha256")
        if actual != expected:
            problems.append(f"digest mismatch for {name}: manifest "
                            f"{expected}, file {actual}")
    return problems
