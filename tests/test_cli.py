"""Command-line interface: config validation, CSV emission, manifests,
reproducibility, and exit codes (0 ok, 1 usage, 2 criteria, 3 numerical)."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from gravimean import cli
from gravimean import grid as gridmod
from gravimean import io as iomod
from gravimean import montecarlo
from gravimean.analytic import (common_center_initial_condition,
                                smooth_initial_condition, trajectory)
from gravimean.cli import main
from gravimean.io import TRAJECTORY_HEADER, file_digest, verify_manifest
from gravimean.grid import GridSpec, GridTrajectory
from gravimean.montecarlo import MAX_TRIALS, MC_GRID, run_ensemble
from gravimean.units import (ApparatusParams, FdivSpec, MeasurementConfig,
                             Scales)

APP = ApparatusParams.derive(radius=1e-3, density=1e4)
SC = Scales.from_apparatus(APP)
SRC = Path(__file__).resolve().parents[1] / "src"


def write_cfg(tmp_path, name="cfg.json", drop=(), **overrides):
    """Config whose dimensionless f_meas is exactly 1 and tau exactly 1."""
    cfg = {
        "density_kgm3": 1e4,
        "radius_m": 1e-3,
        "p": 0.5,
        "F_meas_N": SC.force,
        "tau_meas_s": 1.0 / APP.omega_grav,
        "l0_m": 1e-9,
        "F_div": {"kind": "fixed", "value_N": 0.3 * SC.force},
    }
    cfg.update(overrides)
    for key in drop:
        cfg.pop(key)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def manifest_grid(out):
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    return manifest["config"]["si"]["grid"]


def read_csv(path):
    lines = Path(path).read_text().split("\n")
    assert lines[-1] == ""  # trailing newline
    return lines[:-1]


def whole_column_csv(columns: dict) -> str:
    """The CSV of a table of whole columns, written row by row: the
    reference that emit_trajectory's blocks must reproduce byte for byte."""
    columns = dict(columns, d=columns["x_plus"] - columns["x_minus"])
    names = TRAJECTORY_HEADER.split(",")
    lines = [TRAJECTORY_HEADER]
    for i in range(len(columns["t"])):
        lines.append(",".join("%.17g" % columns[name][i] if name in columns
                              else "" for name in names))
    return "\n".join(lines) + "\n"


class TestCriteria:
    def test_passing_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_meas_N=1e-13, tau_meas_s=1.0)
        assert main(["criteria", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"] is True
        assert report["R_min"] == pytest.approx(3.577e-4, rel=1e-3)

    def test_failing_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_meas_N=1e-18, tau_meas_s=1.0)
        assert main(["criteria", "--config", cfg]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["displacement_ok"] is False


class TestConfigValidation:
    def check_rejected(self, tmp_path, capsys, expect_in_message, **kwargs):
        cfg = write_cfg(tmp_path, **kwargs)
        assert main(["criteria", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert expect_in_message in err

    def test_unknown_key(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "typo_key", typo_key=1.0)

    def test_bad_p(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "p", p=1.2)

    def test_negative_force(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "F_meas_N", F_meas_N=-1.0)

    def test_bad_fdiv_kind(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "F_div.kind",
                            F_div={"kind": "gaussian"})

    def test_fixed_fdiv_needs_value(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "F_div",
                            F_div={"kind": "fixed"})

    def test_uniform_fdiv_takes_no_value(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "F_div",
                            F_div={"kind": "uniform", "value_N": 1.0})

    def test_grid_unknown_key(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "grid.m", grid={"m": 4})

    def test_grid_n_power_of_two(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "power of two",
                            grid={"n": 1000})

    def test_negative_gamma(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "gamma", gamma=-0.5)

    def test_nonpositive_g(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "G: must be > 0", G=-1.0)

    def test_bad_engine(self, tmp_path, capsys):
        # the engine comes from --mode / --engine alone: the config key is
        # unknown, whatever its value
        for engine in ("exact", "grid"):
            self.check_rejected(tmp_path, capsys, "unknown key: engine",
                                engine=engine)

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, drop=("p",))
        assert main(["criteria", "--config", cfg]) == 1
        assert "missing required key: p" in capsys.readouterr().err

    def test_needs_two_body_quantities(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, drop=("radius_m",))
        assert main(["criteria", "--config", cfg]) == 1
        assert "two of" in capsys.readouterr().err

    def test_inconsistent_triple(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "inconsistent", mass_kg=1.0)

    def test_non_numeric_value(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "tau_meas_s",
                            tau_meas_s="soon")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["criteria", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int-1e400"])
    @pytest.mark.parametrize("where", ["F_meas_N", "F_div.value_N",
                                       "grid.dt", "gamma"])
    def test_non_finite_rejected(self, tmp_path, capsys, value, where):
        # json writes these as NaN, Infinity, -Infinity and a 401-digit
        # integer, which the parser accepts
        overrides = {"F_meas_N": {"F_meas_N": value},
                     "F_div.value_N": {"F_div": {"kind": "fixed",
                                                 "value_N": value}},
                     "grid.dt": {"grid": {"dt": value}},
                     "gamma": {"gamma": value}}[where]
        cfg = write_cfg(tmp_path, **overrides)
        out = str(tmp_path / "x.csv")
        assert main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--t-max", "1.0", "--out", out]) == 1
        assert f"{where}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, where", [
        ("evolve", "F_meas_N"), ("evolve", "F_div.value_N"),
        ("born-mc", "F_meas_N")])
    def test_overflow_in_packet_units_rejected(self, tmp_path, capsys,
                                               command, where):
        # 1e300 N is finite but overflows to inf in units of M omega^2 x0
        overrides = {"F_meas_N": {"F_meas_N": 1e300},
                     "F_div.value_N": {"F_div": {"kind": "fixed",
                                                 "value_N": 1e300}}}[where]
        if command == "born-mc":
            overrides["F_div"] = {"kind": "uniform"}
        cfg = write_cfg(tmp_path, **overrides)
        out = str(tmp_path / "x.out")
        args = (["evolve", "--mode", "analytic", "--t-max", "1.0"]
                if command == "evolve" else ["born-mc", "--trials", "10"])
        assert main(args + ["--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{where}: 1e+300 is inf in packet units" in err
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("command", ["born-mc-analytic", "born-mc-grid",
                                         "criteria"])
    def test_underflow_in_packet_units_rejected(self, tmp_path, capsys,
                                                command):
        # 5e-324 s is finite and > 0 but 0.0 in units of 1/omega: analytic
        # born-mc ran on it and grid born-mc refused it naming no key
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"},
                        tau_meas_s=5e-324)
        out = tmp_path / "born.json"
        argv = (["criteria", "--config", cfg] if command == "criteria" else
                ["born-mc", "--config", cfg, "--engine",
                 command.split("-")[-1], "--trials", "4", "--out", str(out)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tau_meas_s: 5e-324 is 0.0 in packet "
                                "units; expected a nonzero number\n")
        assert list(tmp_path.iterdir()) == [Path(cfg)]

    def test_non_finite_scale_rejected(self, tmp_path, capsys):
        # G M overflows, so omega is inf and the length scale 0
        self.check_rejected(tmp_path, capsys, "the length scale is 0.0",
                            drop=("density_kgm3",), mass_kg=1e300, G=1e300)

    def test_radius_cube_underflow_rejected(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "mass_kg/radius_m/density_kgm3",
                            drop=("density_kgm3",), mass_kg=1e-50,
                            radius_m=1e-120)

    @pytest.mark.parametrize("value, says", [
        ("x", "expected a number, got 'x'"),
        (float("inf"), "expected a finite number, got inf")],
        ids=["string", "inf"])
    @pytest.mark.parametrize("key", ["p", "F_meas_N", "tau_meas_s", "l0_m"])
    def test_measurement_key_named_once(self, tmp_path, capsys, key, value,
                                        says):
        cfg = write_cfg(tmp_path, **{key: value})
        assert main(["criteria", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {key}: {says}\n"

    @pytest.mark.parametrize("command", ["criteria", "evolve"])
    def test_radius_cube_overflow_rejected(self, tmp_path, capsys, command):
        # radius**3 overflows a float before any check could see it
        cfg = write_cfg(tmp_path, radius_m=1e150)
        argv = ([] if command == "criteria" else
                ["--mode", "analytic", "--t-max", "1", "--out",
                 str(tmp_path / "x.csv")])
        assert main([command, "--config", cfg] + argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: mass_kg/radius_m/density_kgm3: ")

    @pytest.mark.parametrize("tau", [1e-200, 1e-160, 1e200])
    def test_criteria_tau_out_of_float_range(self, tmp_path, capsys, tau):
        # (omega tau)^2 underflows to 0, or l0 / (omega tau)^2 overflows to
        # inf, or tau^2 overflows: each would end in a traceback or an
        # Infinity in the JSON
        assert main(["criteria", "--config",
                     write_cfg(tmp_path, tau_meas_s=tau)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: tau_meas_s: {tau!r} s takes tau^2, "
                                f"(omega tau)^2 or R_min out of the float "
                                f"range\n")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["criteria", "--config", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1]")
        assert main(["criteria", "--config", str(path)]) == 1
        assert (capsys.readouterr().err
                == "error: config must be a JSON object\n")

    @pytest.mark.parametrize("overrides, says", [
        ({"F_div": "uniform"}, 'F_div: expected an object with a "kind" key'),
        ({"grid": [1]}, "grid: expected an object"),
        ({"grid": {"n": 1024.5}}, "grid.n: expected an integer, got 1024.5"),
        ({"grid": {"sample_every": 0}},
         "grid.sample_every: expected a positive integer, got 0"),
        # radius**3 underflows to 0, and with it the derived mass
        ({"radius_m": 1e-120}, "mass_kg/radius_m/density_kgm3: mass, "
                               "radius, density must all be > 0")],
        ids=["fdiv-string", "grid-list", "grid-n-fraction",
             "grid-sample-every-0", "mass-underflow"])
    def test_refusal_message(self, tmp_path, capsys, overrides, says):
        assert main(["criteria", "--config",
                     write_cfg(tmp_path, **overrides)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {says}\n"

    @pytest.mark.parametrize("density", [-1e4, 0.0], ids=["negative", "zero"])
    @pytest.mark.parametrize("command", ["criteria", "born-mc"])
    def test_non_positive_given_body_quantity(self, tmp_path, capsys,
                                              command, density):
        # a negative density used to derive a complex radius and end in a
        # TypeError; a zero one was refused as leaving the float range
        cfg = write_cfg(tmp_path, drop=("radius_m",), mass_kg=0.04,
                        density_kgm3=density, F_div={"kind": "uniform"})
        args = [] if command == "criteria" else ["--trials", "4"]
        assert main([command, "--config", cfg, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: mass_kg/radius_m/density_kgm3: mass, "
                                "radius, density must all be > 0\n")


def check_non_finite_row_refused(tmp_path, capsys):
    """An analytic evolve whose closed form overflows (xbar = vbar0 t is
    inf from row 1 on, and d = inf - inf is nan) exits 3 naming the first
    row and column that are not finite, and leaves no CSV and no manifest."""
    out = tmp_path / "overflow.csv"
    code = main(["evolve", "--config", write_cfg(tmp_path), "--mode",
                 "analytic", "--t-max", "1e200", "--dt-sample", "1e198",
                 "--vbar0", "1e200", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("error: trajectory row 1 (t=1e+198): xbar is inf, not a "
                   "finite number\n")
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


class TestEvolveAnalytic:
    def test_non_finite_row_refused(self, tmp_path, capsys):
        check_non_finite_row_refused(tmp_path, capsys)

    def run_basic(self, tmp_path):
        cfg = write_cfg(tmp_path, p=0.7)
        out = str(tmp_path / "traj.csv")
        code = main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--t-max", "1.0", "--dt-sample", "0.5", "--out", out])
        assert code == 0
        return cfg, out

    def test_header_and_shape(self, tmp_path):
        _, out = self.run_basic(tmp_path)
        lines = read_csv(out)
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + 3  # t = 0, 0.5, 1.0
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0

    def test_analytic_columns_empty(self, tmp_path):
        _, out = self.run_basic(tmp_path)
        for line in read_csv(out)[1:]:
            cells = line.split(",")
            assert len(cells) == 9
            assert cells[2] == ""          # x2bar
            assert cells[6] == cells[7] == cells[8] == ""

    def test_values_roundtrip_exactly(self, tmp_path):
        # 17 significant digits reproduce the binary doubles bit for bit
        _, out = self.run_basic(tmp_path)
        st = smooth_initial_condition(0.7, 1.0)
        exact = trajectory(st, 1.0, 0.3, np.array([0.0, 0.5, 1.0]))
        for i, line in enumerate(read_csv(out)[1:]):
            cells = line.split(",")
            assert float(cells[1]) == exact["xbar"][i]
            assert float(cells[3]) == exact["x_plus"][i]
            assert float(cells[4]) == exact["x_minus"][i]
            assert float(cells[5]) == exact["x_plus"][i] - exact["x_minus"][i]

    def test_manifest_records_what_the_run_read(self, tmp_path):
        # the CSV is the closed form on the manifest's packet-unit values,
        # bit for bit: the manifest holds the numbers the run used
        cfg = write_cfg(tmp_path, p=0.7, F_meas_N=1.3 * SC.force,
                        F_div={"kind": "fixed", "value_N": 0.37 * SC.force},
                        gamma=0.5)
        out = str(tmp_path / "traj.csv")
        assert main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--t-max", "5.0", "--out", out]) == 0
        read = json.loads(Path(out + ".manifest.json").read_text())
        packet = read["config"]["dimensionless"]
        csv = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 3, 4),
                         ndmin=2)
        exact = trajectory(smooth_initial_condition(packet["p"],
                                                    packet["f_meas"]),
                           packet["f_meas"], packet["f_div"], csv[:, 0],
                           gamma=packet["gamma"])
        for col, name in enumerate(("t", "xbar", "x_plus", "x_minus")):
            assert np.array_equal(csv[:, col], exact[name]), name

    def test_manifest_written_and_clean(self, tmp_path):
        _, out = self.run_basic(tmp_path)
        manifest_path = out + ".manifest.json"
        assert verify_manifest(manifest_path) == []
        manifest = json.loads(Path(manifest_path).read_text())
        assert manifest["tool"] == "gravimean"
        assert manifest["config"]["si"]["grid"] is None
        assert "engine" not in manifest["config"]["si"]
        assert manifest["config"]["si"]["G"] == 6.674e-11
        assert manifest["config"]["dimensionless"]["f_meas"] == 1.0
        assert manifest["command"][0] == "gravimean"
        assert manifest["scales"]["length_m"] == APP.x0

    def test_manifest_detects_mutation(self, tmp_path):
        _, out = self.run_basic(tmp_path)
        with open(out, "a") as fh:
            fh.write("tampered\n")
        problems = verify_manifest(out + ".manifest.json")
        assert len(problems) == 1
        assert "mismatch" in problems[0]

    def test_rerun_reproduces_digest(self, tmp_path):
        cfg, out = self.run_basic(tmp_path)
        digest1 = file_digest(out)
        out2 = str(tmp_path / "traj2.csv")
        main(["evolve", "--config", cfg, "--mode", "analytic",
              "--t-max", "1.0", "--dt-sample", "0.5", "--out", out2])
        assert file_digest(out2) == digest1

    def test_g_override_recorded(self, tmp_path):
        cfg = write_cfg(tmp_path, G=1e-10)
        out = str(tmp_path / "traj.csv")
        main(["evolve", "--config", cfg, "--mode", "analytic",
              "--t-max", "0.5", "--out", out])
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["config"]["si"]["G"] == 1e-10

    def test_damped_run(self, tmp_path):
        cfg = write_cfg(tmp_path, gamma=0.5)
        out = str(tmp_path / "damped.csv")
        code = main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--ic", "common", "--t-max", "20", "--dt-sample", "20",
                     "--out", out])
        assert code == 0
        last = read_csv(out)[-1].split(",")
        # offsets settled to equilibrium: d -> 2 for p = 0.5, f = 1
        assert float(last[5]) == pytest.approx(2.0, abs=0.02)

    def test_uniform_fdiv_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        out = str(tmp_path / "x.csv")
        assert main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--t-max", "1.0", "--out", out]) == 1
        assert "uniform" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-n", "3", "n must be a power of two from 1 to 1048576, got 3"),
        ("--dt", "-5", "dt must be finite and > 0, got -5.0"),
        ("--sample-every", "0", "sample_every must be >= 1, got 0"),
    ])
    def test_invalid_grid_flag_exits_1(self, tmp_path, capsys, flag, value,
                                       message):
        # the closed form ignores the grid, but checks its flags as the
        # grid engine does: same exit, same message, no CSV, no manifest
        cfg = write_cfg(tmp_path)
        for mode in ("analytic", "grid"):
            out = tmp_path / f"{mode}.csv"
            assert main(["evolve", "--config", cfg, "--mode", mode,
                         "--t-max", "5", flag, value, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
            assert not Path(str(out) + ".manifest.json").exists()

    def test_valid_grid_flags_ignored(self, tmp_path):
        # without --mode the run is analytic too
        cfg = write_cfg(tmp_path, p=0.7)
        digests = set()
        for name, flags in (("plain", ["--mode", "analytic"]),
                            ("no-mode", []),
                            ("flags", ["--mode", "analytic", "--grid-n", "256",
                                       "--grid-l", "16", "--dt", "0.4",
                                       "--sample-every", "3"])):
            out = str(tmp_path / f"{name}.csv")
            assert main(["evolve", "--config", cfg, "--t-max", "1.0",
                         "--dt-sample", "0.5", *flags, "--out", out]) == 0
            digests.add(file_digest(out))
            assert manifest_grid(out) is None
        assert len(digests) == 1


class TestStreamedOutput:
    """An analytic evolve evaluates, formats and writes its rows
    io.EMIT_ROWS at a time, and digests its output in io.DIGEST_CHUNK
    reads, so its memory does not grow with the row count."""

    def evolve(self, tmp_path, rows, name="traj.csv"):
        # dt_sample 1 and t_max = rows - 1: exactly rows rows, t_max the last
        out = tmp_path / name
        code = main(["evolve", "--config", write_cfg(tmp_path, p=0.7),
                     "--mode", "analytic", "--ic", "common",
                     "--t-max", repr(float(rows - 1)), "--dt-sample", "1",
                     "--out", str(out)])
        return code, out

    def test_blocks_match_whole_columns(self, tmp_path):
        rows = 2 * iomod.EMIT_ROWS + 123
        code, out = self.evolve(tmp_path, rows)
        assert code == 0
        exact = trajectory(common_center_initial_condition(0.7), 1.0, 0.3,
                           np.arange(rows) * 1.0)
        expected = whole_column_csv({key: exact[key] for key in
                                     ("t", "xbar", "x_plus", "x_minus")})
        assert out.read_text() == expected
        assert verify_manifest(str(out) + ".manifest.json") == []

    def test_grid_table_in_blocks(self, tmp_path):
        rows = iomod.EMIT_ROWS + 7
        rng = np.random.default_rng(3)
        table = GridTrajectory(np.arange(rows) * 0.1, *(
            rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
            for _ in range(7)))
        out = tmp_path / "grid.csv"
        iomod.emit_trajectory(table, out)
        assert out.read_text() == whole_column_csv(vars(table))

    def test_empty_table_refused(self, tmp_path):
        out = tmp_path / "empty.csv"
        table = GridTrajectory(*(np.empty(0) for _ in range(8)))
        with pytest.raises(ValueError, match="^trajectory is empty$"):
            iomod.emit_trajectory(table, out)
        assert not out.exists()

    def test_failure_removes_partial_csv(self, tmp_path, capsys,
                                         monkeypatch):
        calls = []

        def fail_on_second_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("closed form failed on the second block")
            return trajectory(*args, **kwargs)

        monkeypatch.setattr(cli, "trajectory", fail_on_second_block)
        code, out = self.evolve(tmp_path, iomod.EMIT_ROWS + 1)
        assert code == 1
        assert "on the second block" in capsys.readouterr().err
        assert len(calls) == 2
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # one block's worth is a block of the nine CSV columns as float64
        block_bytes = iomod.EMIT_ROWS * 8 * len(TRAJECTORY_HEADER.split(","))
        peaks = []
        for blocks in (2, 8):
            tracemalloc.start()
            try:
                code, _ = self.evolve(tmp_path, blocks * iomod.EMIT_ROWS,
                                      name=f"traj{blocks}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] - peaks[0] < block_bytes

    def test_file_digest_in_chunks(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(8).bytes(
            2 * iomod.DIGEST_CHUNK + 17))
        assert file_digest(path) == hashlib.sha256(
            path.read_bytes()).hexdigest()


# Runs in a fresh interpreter: argv[1] is a JSON list of [argv, exit code]
# runs that take no digest, argv[2] an evolve that writes a manifest.
NO_DIGEST_PROBE = """
import json, sys
assert "_hashlib" not in sys.modules, "OpenSSL loaded at start"
from gravimean import cli
from gravimean.io import verify_manifest
assert "_hashlib" not in sys.modules, "OpenSSL loaded by the import"
runs, evolve = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for argv, code in runs:
    assert cli.main(argv) == code, argv
    assert "_hashlib" not in sys.modules, f"OpenSSL loaded by {argv}"
assert cli.main(evolve) == 0
assert verify_manifest(evolve[-1] + ".manifest.json") == []
"""


class TestResidentMemory:
    """OpenSSL (hashlib) is loaded only by a run that takes a digest, and an
    evolve frees its trajectory table before the manifest takes one."""

    def test_no_openssl_without_a_digest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        passing = write_cfg(tmp_path, "pass.json", F_meas_N=1e-13,
                            tau_meas_s=1.0)
        uniform = write_cfg(tmp_path, "uniform.json", p=0.8,
                            F_div={"kind": "uniform"},
                            tau_meas_s=0.5 / APP.omega_grav,
                            grid={"n": 256, "l": 12.0, "dt": 4e-3})
        grid = ["--grid-n", "256", "--grid-l", "16", "--dt", "2e-3"]
        runs = [(["criteria", "--config", passing], 0),
                (["two-detector", "--p", "0.3"], 0),
                (["born-mc", "--config", uniform, "--trials", "200"], 0),
                (["born-mc", "--config", uniform, "--engine", "grid",
                  "--trials", "4"], 0),
                (["compare", "--config", cfg, "--t-max", "0.5"] + grid, 0)]
        evolve = ["evolve", "--config", cfg, "--t-max", "1.0",
                  "--out", str(tmp_path / "traj.csv")]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", NO_DIGEST_PROBE, json.dumps(runs),
             json.dumps(evolve)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_time_column_freed_before_digest(self, tmp_path, monkeypatch):
        refs, alive = [], []
        real_times, real_manifest = cli._sample_times, cli.write_manifest

        def recorded_times(*args):
            times = real_times(*args)
            refs.append(weakref.ref(times))
            return times

        def checked_manifest(*args, **kwargs):
            alive.extend(ref() is not None for ref in refs)
            return real_manifest(*args, **kwargs)

        monkeypatch.setattr(cli, "_sample_times", recorded_times)
        monkeypatch.setattr(cli, "write_manifest", checked_manifest)
        out = str(tmp_path / "traj.csv")
        assert main(["evolve", "--config", write_cfg(tmp_path), "--mode",
                     "analytic", "--t-max", "1.0", "--out", out]) == 0
        assert alive == [False]
        assert verify_manifest(out + ".manifest.json") == []


class TestVerifyManifest:
    """verify_manifest reports a manifest that checks nothing, or that
    points outside its own directory, as a problem."""

    def verify(self, tmp_path, manifest):
        path = tmp_path / "out.csv.manifest.json"
        path.write_text(json.dumps(manifest))
        return verify_manifest(path)

    # a manifest or an outputs value not of the written shape lists no
    # outputs either
    @pytest.mark.parametrize("manifest", [
        {}, {"outputs": []}, [], "str", {"outputs": "x.csv"},
        {"outputs": {"path": "x"}}])
    def test_no_outputs(self, tmp_path, manifest):
        assert self.verify(tmp_path, manifest) == [
            "manifest lists no outputs"]

    def test_entry_not_an_object(self, tmp_path):
        assert self.verify(tmp_path, {"outputs": ["x.csv"]}) == [
            "output 0 has no path"]

    def test_not_json(self, tmp_path):
        path = tmp_path / "out.csv.manifest.json"
        path.write_text("{not json")
        problems = verify_manifest(path)
        assert len(problems) == 1
        assert problems[0].startswith("manifest is not JSON: ")

    def test_missing_manifest(self, tmp_path):
        problems = verify_manifest(tmp_path / "nope.manifest.json")
        assert len(problems) == 1
        assert problems[0].startswith("cannot read manifest: ")
        assert "No such file" in problems[0]

    def test_manifest_path_is_a_directory(self, tmp_path):
        problems = verify_manifest(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("cannot read manifest: ")
        assert "Is a directory" in problems[0]

    def test_output_is_a_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        assert self.verify(tmp_path, {"outputs": [
            {"path": "sub", "sha256": "0" * 64}]}) == [
            "missing output file: sub"]

    def test_entry_without_path(self, tmp_path):
        assert self.verify(tmp_path, {"outputs": [{"sha256": "0" * 64}]}) == [
            "output 0 has no path"]

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_path_not_a_bare_name(self, tmp_path, where):
        # the file exists outside the manifest's directory, with the digest
        # the entry records
        target = tmp_path / "x.csv"
        target.write_text("1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        name = str(target) if where == "absolute" else "../x.csv"
        problems = self.verify(sub, {"outputs": [
            {"path": name, "sha256": file_digest(target)}]})
        assert problems == [f"output 0: path {name!r} is not a bare file name"]


class TestFlagValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--t-max", "--dt-sample", "--grid-l",
                                      "--dt", "--xbar0", "--vbar0"])
    def test_non_finite_evolve_flag(self, tmp_path, capsys, flag, value):
        # --flag=value, because argparse reads a bare -inf as a flag
        cfg = write_cfg(tmp_path)
        assert main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--t-max", "1.0", f"{flag}={value}",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_p(self, capsys, value):
        assert main(["two-detector", f"--p={value}"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("evolve", "--t-max", "0"), ("evolve", "--t-max", "-1"),
        ("evolve", "--dt-sample", "0"), ("compare", "--t-max", "0"),
        ("compare", "--t-max", "-1"),
    ])
    def test_durations_must_be_positive(self, tmp_path, capsys, command,
                                        flag, value):
        cfg = write_cfg(tmp_path)
        argv = [command, "--config", cfg, "--t-max", "1.0", f"{flag}={value}"]
        if command == "evolve":
            argv += ["--mode", "grid", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        assert "must be > 0" in capsys.readouterr().err


def check_under_resolved(tmp_path, capsys, n, code):
    """The long grid evolve of the benchmark (seed 11) at grid size n exits
    with code, and names aliasing exactly when that code is 3: at n = 32 and
    64 the initial packets already put 1.6e-2 and 3.6e-5 of their weight in
    the outer 5% of |k|, and unguarded x_plus ends 1.19 and 4.8e-3 off the
    closed form; at 128 the share stays below 2.3e-13."""
    cfg = write_cfg(tmp_path, p=0.29935215868873205,
                    F_meas_N=1.4390480831622297 * SC.force,
                    F_div={"kind": "fixed",
                           "value_N": 0.31540546469350655 * SC.force},
                    grid={"l": 32.0, "dt": 1e-3, "sample_every": 10})
    assert main(["evolve", "--config", cfg, "--mode", "grid",
                 "--t-max", "3.141592653589793", "--grid-n", str(n),
                 "--out", str(tmp_path / "x.csv")]) == code
    err = capsys.readouterr().err
    assert ("the grid aliases; raise n or shrink half_length" in err) == (
        code == 3)


def check_no_wrap_between_samples(tmp_path, capsys):
    """A run whose plus branch swings to 2 * 2 (1 - p) f_meas = 18 from the
    mean, beyond the box of half-length 16, and back, between its samples:
    the total force is 0, so the mean stays put and the pre-flight passes.
    Unguarded between samples it exits 0 with x_plus 2.06 where the closed
    form gives 0. The edge guard reads every midpoint, so the run exits 3
    at step 913, with the same message whatever the sample spacing."""
    cfg = write_cfg(tmp_path, p=0.1, F_meas_N=5 * SC.force,
                    F_div={"kind": "fixed", "value_N": 4 * SC.force})
    errors = set()
    for sample_every in ("100", "10000000"):
        assert main(["evolve", "--config", cfg, "--mode", "grid", "--ic",
                     "common", "--t-max", "6.283185307179586", "--grid-n",
                     "512", "--grid-l", "16", "--dt", "2e-3",
                     "--sample-every", sample_every,
                     "--out", str(tmp_path / "x.csv")]) == 3
        errors.add(capsys.readouterr().err)
    assert len(errors) == 1, errors
    assert "outer 5% of the domain at step 913," in errors.pop()


def check_box_holds_the_vertex(tmp_path, capsys, monkeypatch):
    """The box pre-flight bounds the mean's parabola at its vertex: p = 0.5,
    f_meas = 1 and fixed f_div = -1 give F = -1, so the mean launched at
    vbar0 = 3 turns 4.5 out at t = 3 and is back at 0 by t_max = 6. The
    ends of the run alone ask for a half-length of 8 + 3 widths = 11, the
    vertex for 15.5: at 15.4 the run exits 1 before it builds a step, at
    15.6 it steps and exits 0."""
    builds = []
    real = gridmod._advance

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(gridmod, "_advance", counting)
    cfg = write_cfg(tmp_path, F_div={"kind": "fixed", "value_N": -SC.force})
    runs = []
    for length in ("15.4", "15.6"):
        builds.clear()
        out = tmp_path / f"l{length}.csv"
        code = main(["evolve", "--config", cfg, "--mode", "grid", "--ic",
                     "common", "--vbar0", "3", "--t-max", "6", "--grid-n",
                     "512", "--dt", "2e-3", "--grid-l", length,
                     "--out", str(out)])
        runs.append((code, len(builds), out.exists()))
    assert runs == [(1, 0, False), (0, 1, True)]
    assert ("half_length 15.4 too small for this run; need at least 15.5"
            in capsys.readouterr().err)


class TestEvolveGrid:
    def test_basic_run(self, tmp_path):
        cfg = write_cfg(tmp_path, p=0.7)
        out = str(tmp_path / "grid.csv")
        code = main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.2", "--grid-n", "256", "--grid-l", "16",
                     "--dt", "1e-3", "--sample-every", "100", "--out", out])
        assert code == 0
        lines = read_csv(out)
        assert lines[0] == TRAJECTORY_HEADER
        for line in lines[1:]:
            cells = line.split(",")
            assert all(cells)  # every column populated
            assert float(cells[6]) == pytest.approx(1.0, abs=1e-10)

    def test_config_grid_block_used(self, tmp_path):
        cfg = write_cfg(tmp_path, grid={"n": 256, "l": 16.0, "dt": 2e-3,
                                        "sample_every": 50})
        out = str(tmp_path / "grid.csv")
        assert main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.2", "--out", out]) == 0
        assert len(read_csv(out)) == 1 + 3  # steps 0, 50, 100

    def test_manifest_records_grid_used(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "grid.csv")
        assert main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.2", "--grid-n", "256", "--grid-l", "16",
                     "--dt", "2e-3", "--out", out]) == 0
        assert manifest_grid(out) == {"n": 256, "l": 16.0, "dt": 2e-3,
                                      "sample_every": 10}

    def test_flags_override_config_block(self, tmp_path):
        cfg = write_cfg(tmp_path, grid={"n": 512, "l": 16.0, "dt": 2e-3,
                                        "sample_every": 50})
        out = str(tmp_path / "grid.csv")
        assert main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.2", "--grid-n", "256", "--out", out]) == 0
        assert manifest_grid(out) == {"n": 256, "l": 16.0, "dt": 2e-3,
                                      "sample_every": 50}

    @pytest.mark.parametrize("ic", ["common", "smooth"])
    def test_engines_share_initial_state(self, tmp_path, ic):
        cfg = write_cfg(tmp_path, p=0.7)
        first = {}
        for mode in ("analytic", "grid"):
            out = str(tmp_path / f"{mode}.csv")
            assert main(["evolve", "--config", cfg, "--mode", mode,
                         "--ic", ic, "--xbar0", "1.5", "--vbar0", "0.2",
                         "--t-max", "0.01", "--grid-n", "256",
                         "--grid-l", "16", "--dt", "1e-3", "--out", out]) == 0
            cells = read_csv(out)[1].split(",")
            first[mode] = (float(cells[3]), float(cells[4]))
        assert first["grid"] == pytest.approx(first["analytic"], abs=1e-12)

    def test_sample_every_must_be_positive(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.2", "--grid-n", "256", "--grid-l", "16",
                     "--sample-every", "0", "--out", str(out)]) == 1
        assert "sample_every" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, gamma=0.3)
        assert main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.2", "--out", str(tmp_path / "x.csv")]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_edge_hit_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_meas_N=8 * SC.force,
                        F_div={"kind": "fixed", "value_N": 0.0})
        code = main(["evolve", "--config", cfg, "--mode", "grid",
                     "--ic", "common", "--t-max", "3.2", "--grid-l", "20",
                     "--grid-n", "256", "--dt", "2e-3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "outer 5% of the domain" in capsys.readouterr().err


    def test_no_wrap_between_samples(self, tmp_path, capsys):
        check_no_wrap_between_samples(tmp_path, capsys)

    def test_box_holds_the_vertex(self, tmp_path, capsys, monkeypatch):
        check_box_holds_the_vertex(tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("n, code", [(32, 3), (64, 3), (128, 0)])
    def test_under_resolved_grid_exits_3(self, tmp_path, capsys, n, code):
        check_under_resolved(tmp_path, capsys, n, code)

    def test_step_length_underflow(self, tmp_path):
        # t_max / dt underflows to 0; it used to divide by zero in step_plan
        out = str(tmp_path / "x.csv")
        assert main(["evolve", "--config", write_cfg(tmp_path), "--mode",
                     "grid", "--t-max", "5e-324", "--dt", "1e308",
                     "--grid-n", "256", "--grid-l", "16", "--out", out]) == 0
        rows = read_csv(out)[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 5e-324]

    def test_mean_momentum_beyond_the_band_exits_1(self, tmp_path, capsys,
                                                   monkeypatch):
        # the smooth state under F = 1.3: its mean momentum reaches 6.5 by
        # t = 5, beyond 0.95 pi/dx = 5.97 at n = 128, l = 32. The run passes
        # the box pre-flight and used to exit 3 on the aliasing guard at
        # step 1520; nothing may step now
        monkeypatch.setattr(gridmod, "_advance", None)
        cfg = write_cfg(tmp_path, p=0.7,
                        F_div={"kind": "fixed", "value_N": 0.9 * SC.force})
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", cfg, "--mode", "grid",
                     "--ic", "smooth", "--t-max", "5", "--grid-n", "128",
                     "--grid-l", "32", "--dt", "1e-3", "--out", str(out)]) == 1
        assert ("n 128 too coarse for this run: the mean momentum reaches "
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_variance_exits_3(self, tmp_path, capsys, monkeypatch):
        real = gridmod._stats

        def negative_second_moment(block, weights):
            stats = real(block, weights)
            stats[..., 2] = -stats[..., 0]
            return stats

        monkeypatch.setattr(gridmod, "_stats", negative_second_moment)
        cfg = write_cfg(tmp_path)
        code = main(["evolve", "--config", cfg, "--mode", "grid",
                     "--t-max", "0.1", "--grid-n", "256", "--grid-l", "16",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "negative variance at step 0, t=0.0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestRowCap:
    """Requests for more than MAX_ROWS analytic rows, or for a grid run of
    more than grid.MAX_STEPS steps (a grid run writes at most one row per
    step), exit 1 before any allocation."""

    def test_analytic_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np, "arange", None)  # nothing may be allocated
        cfg = write_cfg(tmp_path)
        assert main(["evolve", "--config", cfg, "--mode", "analytic",
                     "--t-max", "1e15", "--dt-sample", "1e-3",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "--t-max / --dt-sample: the run would write 1e+18 rows" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("t_max, rows", [("8.7", 10), ("9.7", 11)])
    def test_analytic_rows_exact(self, tmp_path, capsys, monkeypatch, t_max,
                                 rows):
        # t = 0, 1, ..., 8 and 8.7 are 10 rows, which the cap of 10 holds;
        # an estimate of t_max / dt_sample + 2 refused them
        monkeypatch.setattr(cli, "MAX_ROWS", 10)
        out = tmp_path / "x.csv"
        code = main(["evolve", "--config", write_cfg(tmp_path), "--mode",
                     "analytic", "--t-max", t_max, "--dt-sample", "1",
                     "--out", str(out)])
        if rows <= 10:
            assert code == 0
            assert len(read_csv(out)) == 1 + rows
        else:
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: --t-max / --dt-sample: the run would write {rows} "
                f"rows, more than 10\n")
            assert not out.exists()

    @pytest.mark.parametrize("t_max, dt_sample", [
        (1.0, 0.1), (2e4, 0.1), (0.3, 0.1), (3.0, 1e-3),      # on the grid
        (1.05, 0.1), (math.pi, 1e-3), (0.05, 0.1), (7.3, 0.7)])  # off it
    def test_sample_times_unchanged(self, t_max, dt_sample):
        # the whole-array expression the column was built with before
        n = int(math.floor(t_max / dt_sample + 1e-9))
        ref = np.arange(n + 1) * dt_sample
        if ref[-1] < t_max * (1.0 - 1e-12):
            ref = np.append(ref, t_max)
        times = cli._sample_times(t_max, dt_sample)
        assert times.dtype == np.float64
        assert np.array_equal(times, ref)

    @pytest.mark.parametrize("t_max", [2**15 * 0.1, 2**15 * 0.1 + 0.05])
    def test_sample_times_8_bytes_per_row(self, t_max):
        tracemalloc.start()
        try:
            times = cli._sample_times(t_max, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(times) + 1024

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    @pytest.mark.parametrize("t_max, dt, steps", [("1e15", "1e-3", "1e+18"),
                                                  ("1e300", "1e-10", "inf")])
    def test_grid_samples(self, tmp_path, capsys, monkeypatch, command,
                          t_max, dt, steps):
        # would run for an unbounded time without the step limit: nothing
        # may step
        monkeypatch.setattr(gridmod, "_stats", None)
        argv = [command, "--config", write_cfg(tmp_path), "--t-max", t_max,
                "--dt", dt]
        if command == "evolve":
            argv += ["--mode", "grid", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        assert (f"the run would take {steps} steps, more than 10000000"
                in capsys.readouterr().err)


def check_run_steps(tmp_path, capsys, monkeypatch, command):
    """A grid evolve or compare of 1e12 steps but few rows, so that no row
    count can see it, exits 1 before it takes a product or a step. A run
    let through fails the check at its first product, and so at the
    latest at its first step, instead of stepping 1e12 times."""
    def refused(*args):
        pytest.fail("the run went past the step limit")

    monkeypatch.setattr(gridmod, "_stats", refused)
    monkeypatch.setattr(gridmod, "_advance", refused)
    out = tmp_path / "x.csv"
    argv = [command, "--config", write_cfg(tmp_path), "--t-max", "1",
            "--dt", "1e-12", "--sample-every", "1000000000",
            "--grid-n", "256", "--grid-l", "16"]
    if command == "evolve":
        argv += ["--mode", "grid", "--out", str(out)]
    assert main(argv) == 1
    assert ("t_max / dt = 1.0 / 1e-12: the run would take 1e+12 steps, "
            "more than 10000000" in capsys.readouterr().err)
    assert not out.exists()


class TestGridCaps:
    """A grid of more than grid.MAX_N points, or a grid run of more than
    grid.MAX_STEPS steps, exits 1 before anything is allocated or
    stepped."""

    HUGE_N = 2**50

    def test_grid_n_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "evolve_grid", None)
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", write_cfg(tmp_path), "--mode",
                     "grid", "--t-max", "1.0", "--grid-n", str(self.HUGE_N),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "power of two from 1 to 1048576" in err
        assert not out.exists()

    def test_grid_n_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gridmod, "evolve_block", None)
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"},
                        grid={"n": self.HUGE_N})
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "1"]) == 1
        assert "grid: n must be a power of two from 1 to 1048576" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("dt, steps", [(1e-12, "1e+12"), (5e-324, "inf")])
    def test_trial_steps(self, tmp_path, capsys, monkeypatch, dt, steps):
        # 1e-12 used to step for an unbounded time, 5e-324 to overflow in
        # step_plan: nothing may step
        monkeypatch.setattr(gridmod, "_stats", None)
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"}, grid={"dt": dt})
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "1"]) == 1
        assert (f"t_max / dt = 1.0 / {dt!r}: the run would take {steps} "
                f"steps, more than 10000000" in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    def test_run_steps(self, tmp_path, capsys, monkeypatch, command):
        check_run_steps(tmp_path, capsys, monkeypatch, command)


class TestCompare:
    def test_smooth_agreement(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.7)
        code = main(["compare", "--config", cfg, "--t-max", "1.0",
                     "--grid-n", "256", "--grid-l", "16", "--dt", "2e-3",
                     "--sample-every", "50"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_abs_diff"]["xbar"] < 1e-9
        assert report["max_abs_diff"]["x_plus"] < 1e-9
        assert report["grid"]["n"] == 256

    def test_out_file_with_manifest(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "cmp.json")
        assert main(["compare", "--config", cfg, "--t-max", "0.5",
                     "--grid-n", "256", "--grid-l", "16", "--dt", "2e-3",
                     "--out", out]) == 0
        assert json.loads(Path(out).read_text())["n_samples"] >= 2
        assert verify_manifest(out + ".manifest.json") == []

    def test_printed_grid_is_the_manifest_record(self, tmp_path, capsys):
        # flags over a config block, whose sample_every fills the record
        cfg = write_cfg(tmp_path, grid={"n": 512, "l": 12.0, "dt": 4e-3,
                                        "sample_every": 25})
        out = str(tmp_path / "cmp.json")
        assert main(["compare", "--config", cfg, "--t-max", "0.2",
                     "--grid-n", "256", "--grid-l", "16", "--out", out]) == 0
        printed = json.loads(capsys.readouterr().out)["grid"]
        assert printed == {"n": 256, "l": 16.0, "dt": 4e-3}
        assert manifest_grid(out) == dict(printed, sample_every=25)


class TestRecordedCommand:
    """A manifest records the command line main was given, after the
    program name; main() without an argument takes it from sys.argv."""

    def argv(self, tmp_path, command):
        fixed = write_cfg(tmp_path)
        uniform = write_cfg(tmp_path, name="uniform.json",
                            F_div={"kind": "uniform"})
        return {
            "evolve": ["evolve", "--config", fixed, "--mode", "analytic",
                       "--t-max", "0.5", "--out", str(tmp_path / "e.csv")],
            "compare": ["compare", "--config", fixed, "--t-max", "0.1",
                        "--grid-n", "256", "--grid-l", "16", "--dt", "1e-2",
                        "--out", str(tmp_path / "c.json")],
            "born-mc": ["born-mc", "--config", uniform, "--trials", "10",
                        "--seed", "3", "--out", str(tmp_path / "b.json")],
        }[command]

    @staticmethod
    def recorded(argv):
        manifest = Path(argv[-1] + ".manifest.json").read_text()
        return json.loads(manifest)["command"]

    @pytest.mark.parametrize("command", ["evolve", "compare", "born-mc"])
    def test_manifest_records_argv(self, tmp_path, capsys, command):
        argv = self.argv(tmp_path, command)
        assert main(argv) == 0
        assert self.recorded(argv) == ["gravimean", *argv]

    def test_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        argv = self.argv(tmp_path, "evolve")
        monkeypatch.setattr(sys, "argv", ["python -m gravimean.cli", *argv])
        assert main() == 0
        assert self.recorded(argv) == ["gravimean", *argv]


class TestBornMc:
    def test_matches_library_call(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.3, F_div={"kind": "uniform"})
        assert main(["born-mc", "--config", cfg, "--trials", "2000",
                     "--seed", "11"]) == 0
        out = json.loads(capsys.readouterr().out)
        ref = run_ensemble(
            MeasurementConfig(p=0.3, f_meas=1.0, tau_meas=1.0, l0=1e-9,
                              f_div=FdivSpec("uniform")),
            "analytic", 2000, 11)
        assert out == ref.to_dict()

    def test_out_file_and_seed_in_manifest(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.3, F_div={"kind": "uniform"})
        out = str(tmp_path / "mc.json")
        assert main(["born-mc", "--config", cfg, "--trials", "500",
                     "--seed", "77", "--out", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["master_seed"] == 77
        assert verify_manifest(out + ".manifest.json") == []

    def test_workers_reproducible(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.4, F_div={"kind": "uniform"})
        counts = []
        for workers in ("1", "4"):
            assert main(["born-mc", "--config", cfg, "--trials", "1000",
                         "--seed", "5", "--workers", workers]) == 0
            counts.append(json.loads(capsys.readouterr().out)["counts"])
        assert counts[0] == counts[1]

    def test_worker_count_from_the_flag_alone(self, tmp_path, capsys,
                                              monkeypatch):
        # no environment variable caps --workers: GRAVIMEAN_THREADS set to
        # a non-integer changes nothing
        cfg = write_cfg(tmp_path, p=0.4, F_div={"kind": "uniform"})
        argv = ["born-mc", "--config", cfg, "--trials", "400", "--seed", "5",
                "--workers", "2"]
        assert main(argv) == 0
        ref = capsys.readouterr().out
        monkeypatch.setenv("GRAVIMEAN_THREADS", "many")
        assert main(argv) == 0
        assert capsys.readouterr().out == ref

    def test_grid_engine(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.8, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav,
                        grid={"n": 256, "l": 12.0, "dt": 4e-3})
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "6", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["engine"] == "grid"
        assert out["n_trials"] == 6

    def test_zero_force_undecided_on_both_engines(self, tmp_path, capsys):
        # no total force: the grid's mapped displacements sit at -1.3e-14,
        # below the map's resolution, and used to count as 40 left
        cfg = write_cfg(tmp_path, F_meas_N=0.0, F_div={"kind": "uniform"})
        for engine in ("analytic", "grid"):
            assert main(["born-mc", "--config", cfg, "--engine", engine,
                         "--trials", "40"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["counts"] == {"right": 0, "left": 0, "undecided": 40}
            assert out["frequency_right"] is None

    def test_grid_mean_momentum_beyond_the_band_exits_1(self, tmp_path,
                                                        capsys):
        # p = 0.9 and f_meas = 8 on n = 128, l = 24: the largest sampled
        # force carries its trial's mean momentum beyond 0.95 pi/dx = 7.96
        # by tau = 1. A trial samples only t = 0 and tau, so the aliasing
        # guard alone sees this only if the spectrum sits in the outer band
        # at tau (test_aliasing_trial_refused has a trial where it does not)
        cfg = write_cfg(tmp_path, p=0.9, F_meas_N=8.0 * SC.force,
                        F_div={"kind": "uniform"},
                        grid={"n": 128, "l": 24.0, "dt": 4e-3})
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "8", "--seed", "0"]) == 1
        assert "need n of at least 256" in capsys.readouterr().err

    def test_grid_map_miss_exits_3(self, tmp_path, capsys, monkeypatch):
        # an evolved extreme trial 1e-9 off its mapped displacement
        real = gridmod.evolve_block

        def offset(*args, **kw):
            traj, psi, phase = real(*args, **kw)
            traj.xbar[-1, 2] += 1e-9
            return traj, psi, phase

        monkeypatch.setattr(gridmod, "evolve_block", offset)
        cfg = write_cfg(tmp_path, p=0.8, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav,
                        grid={"n": 256, "l": 12.0, "dt": 4e-3})
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "6", "--seed", "3"]) == 3
        # trial 4 has the largest force of the six
        assert "error: trial 4: evolved displacement " in (
            capsys.readouterr().err)

    def test_grid_manifest_records_mc_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.8, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav)
        out = str(tmp_path / "mc.json")
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "2", "--seed", "3", "--out", out]) == 0
        assert manifest_grid(out) == {"n": MC_GRID.n, "l": MC_GRID.half_length,
                                      "dt": MC_GRID.dt, "sample_every": None}

    def test_partial_grid_block_filled_from_mc_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.8, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav, grid={"n": 256})
        out = str(tmp_path / "mc.json")
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "4", "--seed", "3", "--out", out]) == 0
        assert manifest_grid(out) == {"n": 256, "l": MC_GRID.half_length,
                                      "dt": MC_GRID.dt, "sample_every": None}
        ref = run_ensemble(
            MeasurementConfig(p=0.8, f_meas=1.0, tau_meas=0.5, l0=1e-9,
                              f_div=FdivSpec("uniform")),
            "grid", 4, 3,
            grid=GridSpec(half_length=MC_GRID.half_length, n=256,
                          dt=MC_GRID.dt))
        assert json.loads(capsys.readouterr().out) == ref.to_dict()

    def test_grid_block_sample_every_not_recorded(self, tmp_path, capsys):
        # born-mc trials sample only their ends: the block's sample_every
        # is not the command's, and the manifest records null for it
        cfg = write_cfg(tmp_path, p=0.8, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav,
                        grid={"n": 256, "sample_every": 7})
        out = str(tmp_path / "mc.json")
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "2", "--seed", "3", "--out", out]) == 0
        assert manifest_grid(out) == {"n": 256, "l": MC_GRID.half_length,
                                      "dt": MC_GRID.dt, "sample_every": None}

    def test_analytic_manifest_has_no_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"},
                        grid={"n": 256})
        out = str(tmp_path / "mc.json")
        assert main(["born-mc", "--config", cfg, "--trials", "10",
                     "--out", out]) == 0
        assert manifest_grid(out) is None

    def test_fixed_fdiv_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["born-mc", "--config", cfg, "--trials", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: F_div.kind: ")
        assert "uniform" in err

    def test_zero_trials_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        assert main(["born-mc", "--config", cfg, "--trials", "0"]) == 1

    def test_trials_over_the_cap_rejected(self, tmp_path, capsys,
                                          monkeypatch):
        # nothing may run: no block and no pool
        monkeypatch.setattr(montecarlo, "_chunk_counts", None)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", None)
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        assert main(["born-mc", "--config", cfg, "--trials",
                     str(MAX_TRIALS + 1)]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_real_pool_grid_json_identical(self, tmp_path, capsys,
                                           monkeypatch):
        # 12 trials in blocks of 4 on a 4-CPU machine: a real pool of 2
        # and of 3 forked workers, which inherit the patched BLOCK
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "BLOCK", 4)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        cfg = write_cfg(tmp_path, p=0.7, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav,
                        grid={"n": 128, "l": 12.0, "dt": 4e-3})
        outs = []
        for workers in ("1", "2", "4"):
            assert main(["born-mc", "--config", cfg, "--engine", "grid",
                         "--trials", "12", "--seed", "5",
                         "--workers", workers]) == 0
            outs.append(capsys.readouterr().out)
        assert pools == [2, 3]
        assert outs[0] == outs[1] == outs[2]
        counts = json.loads(outs[0])["counts"]
        assert counts["right"] + counts["left"] + counts["undecided"] == 12


class TestFailedRunWritesNothing:
    """A run that exits 1 prints no result and leaves no output file and
    no manifest, whichever of the two it could not write."""

    def check(self, capsys, argv, out):
        assert main([*argv, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not Path(out).is_file()
        assert not Path(out + ".manifest.json").is_file()

    def born_mc(self, tmp_path):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        return ["born-mc", "--config", cfg, "--trials", "10"]

    def test_born_mc_out_in_missing_directory(self, tmp_path, capsys):
        self.check(capsys, self.born_mc(tmp_path),
                   str(tmp_path / "missing" / "x.json"))

    def test_born_mc_out_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        self.check(capsys, self.born_mc(tmp_path), str(tmp_path / "d"))

    def test_born_mc_manifest_path_is_a_directory(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        Path(out + ".manifest.json").mkdir()
        self.check(capsys, self.born_mc(tmp_path), out)

    def test_compare_out_in_missing_directory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        self.check(capsys, ["compare", "--config", cfg, "--t-max", "0.5",
                            "--grid-n", "256", "--grid-l", "16",
                            "--dt", "2e-3"],
                   str(tmp_path / "missing" / "x.json"))

    def test_evolve_manifest_path_is_a_directory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "x.csv")
        Path(out + ".manifest.json").mkdir()
        self.check(capsys, ["evolve", "--config", cfg, "--mode", "analytic",
                            "--t-max", "1"], out)


# Runs the CLI on argv[2:] with files capped at argv[1] bytes and SIGXFSZ
# ignored, so that a write past the cap fails with EFBIG, as on a full disk
FILE_SIZE_LIMITED = """
import resource, signal, sys
from gravimean.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


class TestFailedWriteLeavesNothing:
    """A write that fails once its file is open, here at a file-size limit,
    removes that file: a run that exits 1 leaves neither a partial output
    nor a partial manifest, and prints no result."""

    def check(self, tmp_path, argv, limit):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", FILE_SIZE_LIMITED, str(limit), *argv,
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: [Errno 27] File too large\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    def test_born_mc_out(self, tmp_path):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        self.check(tmp_path, ["born-mc", "--config", cfg, "--trials", "10"],
                   100)

    def test_born_mc_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        self.check(tmp_path, ["born-mc", "--config", cfg, "--trials", "10"],
                   1000)

    def test_evolve_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        self.check(tmp_path, ["evolve", "--config", cfg, "--t-max", "0.2",
                              "--dt-sample", "0.1"], 1000)


class TestHugeBox:
    """A half-length whose x^2 dx moment weight overflows is refused by
    GridSpec, from the flag or the config, before any NaN arises."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("length", [1e200, 1e308])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_refused(self, tmp_path, capsys, source, length):
        argv = ["evolve", "--mode", "grid", "--t-max", "0.01",
                "--grid-n", "64", "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            cfg = write_cfg(tmp_path)
            argv += ["--grid-l", repr(length)]
        else:
            cfg = write_cfg(tmp_path, grid={"l": length})
        assert main([*argv, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"half_length {length!r} too large: x^2 dx overflows" in err
        assert "nan" not in err
        assert not (tmp_path / "x.csv").exists()


class TestTwoDetector:
    def test_table(self, capsys):
        assert main(["two-detector", "--p", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"p", "model_probs", "born_probs"}
        assert out["model_probs"] == pytest.approx([0.21, 0.09, 0.49, 0.21])
        assert out["born_probs"] == pytest.approx([0.0, 0.3, 0.7, 0.0])

    def test_bad_p(self, capsys):
        assert main(["two-detector", "--p", "1.5"]) == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["criteria"]) == 1

    def test_console_script_installed(self):
        proc = subprocess.run(["gravimean", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gravimean" in proc.stdout
