"""Command-line interface: config validation, CSV emission, manifests,
reproducibility, and exit codes (0 ok, 1 usage, 2 criteria, 3 numerical)."""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from gravimean import cli
from gravimean import grid as gridmod
from gravimean.analytic import smooth_initial_condition, trajectory
from gravimean.cli import main
from gravimean.io import TRAJECTORY_HEADER, file_digest, verify_manifest
from gravimean.grid import GridSpec
from gravimean.montecarlo import MC_GRID, run_ensemble
from gravimean.units import (ApparatusParams, FdivSpec, MeasurementConfig,
                             Scales)

APP = ApparatusParams.derive(radius=1e-3, density=1e4)
SC = Scales.from_apparatus(APP)


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
        self.check_rejected(tmp_path, capsys, "engine", engine="exact")

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

    def test_non_finite_scale_rejected(self, tmp_path, capsys):
        # G M overflows, so omega is inf and the length scale 0
        self.check_rejected(tmp_path, capsys, "the length scale is 0.0",
                            drop=("density_kgm3",), mass_kg=1e300, G=1e300)

    def test_radius_cube_underflow_rejected(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "mass_kg/radius_m/density_kgm3",
                            drop=("density_kgm3",), mass_kg=1e-50,
                            radius_m=1e-120)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["criteria", "--config", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err


class TestEvolveAnalytic:
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

    def test_manifest_written_and_clean(self, tmp_path):
        _, out = self.run_basic(tmp_path)
        manifest_path = out + ".manifest.json"
        assert verify_manifest(manifest_path) == []
        manifest = json.loads(Path(manifest_path).read_text())
        assert manifest["tool"] == "gravimean"
        assert manifest["config"]["si"]["grid"] is None
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


    @pytest.mark.parametrize("n, code", [(32, 3), (64, 3), (128, 0)])
    def test_under_resolved_grid_exits_3(self, tmp_path, capsys, n, code):
        # the long grid evolve of the benchmark (seed 11) at coarser n: at 32
        # and 64 the initial packets already put 1.6e-2 and 3.6e-5 of their
        # weight in the outer 5% of |k|, and unguarded x_plus ends 1.19 and
        # 4.8e-3 off the closed form; at 128 the share stays below 2.3e-13
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

    def test_negative_variance_exits_3(self, tmp_path, capsys, monkeypatch):
        real = gridmod._stats

        def negative_second_moment(psi, grid, *rest):
            stats = real(psi, grid, *rest)
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
        # few rows, so no row count can see it, but 1e12 steps
        monkeypatch.setattr(gridmod, "_stats", None)
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

    def test_thread_cap_env(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, p=0.4, F_div={"kind": "uniform"})
        assert main(["born-mc", "--config", cfg, "--trials", "400",
                     "--seed", "5", "--workers", "1"]) == 0
        ref = json.loads(capsys.readouterr().out)["counts"]
        monkeypatch.setenv("GRAVIMEAN_THREADS", "1")
        assert main(["born-mc", "--config", cfg, "--trials", "400",
                     "--seed", "5", "--workers", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == ref

    def test_bad_thread_cap(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        monkeypatch.setenv("GRAVIMEAN_THREADS", "many")
        assert main(["born-mc", "--config", cfg, "--trials", "10"]) == 1
        assert "GRAVIMEAN_THREADS" in capsys.readouterr().err

    def test_grid_engine(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, p=0.8, F_div={"kind": "uniform"},
                        tau_meas_s=0.5 / APP.omega_grav,
                        grid={"n": 256, "l": 12.0, "dt": 4e-3})
        assert main(["born-mc", "--config", cfg, "--engine", "grid",
                     "--trials", "6", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["engine"] == "grid"
        assert out["n_trials"] == 6

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

    def test_analytic_manifest_has_no_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"},
                        grid={"n": 256})
        out = str(tmp_path / "mc.json")
        assert main(["born-mc", "--config", cfg, "--trials", "10",
                     "--out", out]) == 0
        assert manifest_grid(out) is None

    def test_engine_default_from_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"},
                        engine="analytic")
        assert main(["born-mc", "--config", cfg, "--trials", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["engine"] == "analytic"

    def test_fixed_fdiv_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["born-mc", "--config", cfg, "--trials", "10"]) == 1
        assert "uniform" in capsys.readouterr().err

    def test_zero_trials_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, F_div={"kind": "uniform"})
        assert main(["born-mc", "--config", cfg, "--trials", "0"]) == 1


class TestTwoDetector:
    def test_table(self, capsys):
        assert main(["two-detector", "--p", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
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
