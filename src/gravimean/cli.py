"""Command-line front end.

Subcommands:

  criteria      check the classical-apparatus conditions for a config
  evolve        run one deterministic evolution (analytic or grid engine)
  compare       run both engines and report their disagreement
  born-mc       Monte Carlo outcome statistics over the diverting force
  two-detector  joint outcome tables for two back-to-back runs

Exit codes: 0 success, 1 bad usage or config, 2 criteria not satisfied,
3 numerical failure (norm drift, a negative variance, probability at the
grid edge or the largest |k| of the grid, or a non-finite trajectory value).
A refused input raises ValueError (OSError for a file), a numerical failure
grid.NumericalError, and main alone maps them to exits 1 and 3. A run that
exits 1 or 3 leaves no output file, manifest or stdout result.
"""

from __future__ import annotations

import argparse
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analytic import (common_center_initial_condition,
                       smooth_initial_condition, trajectory)
from .grid import GridSpec, NumericalError, init_state
from .grid import evolve as evolve_grid
from .io import (LoadedConfig, emit_trajectory, load_config, to_json,
                 write_manifest, write_text)
from .montecarlo import MC_GRID, run_ensemble, two_detector_table
from .units import classicality_report

# Default grid block of evolve and compare, and of born-mc, whose trials
# sample only their start and end, so it takes no sample_every.
EVOLVE_GRID = {"n": 1024, "l": 32.0, "dt": 1e-3, "sample_every": 10}
BORN_MC_GRID = {"n": MC_GRID.n, "l": MC_GRID.half_length, "dt": MC_GRID.dt}

# Most rows an analytic run may write, 50 times the benchmark's long one; a
# grid run writes at most a row per step, and grid.MAX_STEPS bounds those.
# Rows are written a block at a time, so the cap bounds the time and disk a
# run takes, not its memory (beyond the 8 bytes per row of its t column).
MAX_ROWS = 10**7


def _finite(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of durations: a finite number > 0."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravimean",
        description="Two-branch wave packets under self-consistent harmonic "
                    "self-gravity, plus measurement statistics.")
    parser.add_argument("--version", action="version",
                        version=f"gravimean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the first option of every subcommand that reads a config
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    p_crit = sub.add_parser("criteria", parents=[config],
                            help="evaluate the classical-apparatus conditions")
    p_crit.set_defaults(func=cmd_criteria)

    p_ev = sub.add_parser("evolve", parents=[config],
                          help="run one deterministic evolution")
    p_ev.add_argument("--mode", dest="engine", choices=("analytic", "grid"),
                      default="analytic", help="engine; default analytic")
    p_ev.add_argument("--t-max", type=_positive, required=True,
                      help="duration in units of 1/omega")
    p_ev.add_argument("--dt-sample", type=_positive, default=0.1,
                      help="analytic-mode output spacing")
    _add_grid_args(p_ev)
    _add_ic_args(p_ev)
    p_ev.add_argument("--out", required=True, help="output CSV path")
    p_ev.set_defaults(func=cmd_evolve)

    p_cmp = sub.add_parser("compare", parents=[config],
                           help="grid vs analytic discrepancy report")
    p_cmp.add_argument("--t-max", type=_positive, required=True)
    _add_grid_args(p_cmp)
    _add_ic_args(p_cmp)
    p_cmp.add_argument("--out", default=None, help="also write the JSON here")
    p_cmp.set_defaults(func=cmd_compare)

    p_mc = sub.add_parser("born-mc", parents=[config],
                          help="outcome frequencies over the diverting force")
    p_mc.add_argument("--engine", choices=("analytic", "grid"),
                      default="analytic")
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--workers", type=int, default=1,
                      help="most worker processes; capped by the CPU "
                           "count, with one per block of trials at most, so "
                           "a one-block ensemble runs in this process")
    p_mc.add_argument("--out", default=None, help="also write the JSON here")
    p_mc.set_defaults(func=cmd_born_mc)

    p_td = sub.add_parser("two-detector",
                          help="joint outcome tables for two detectors")
    p_td.add_argument("--p", type=_finite, required=True)
    p_td.set_defaults(func=cmd_two_detector)

    return parser


def _add_grid_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid-n", dest="n", metavar="GRID_N", type=int,
                     help="grid points (power of two, at most 2**20)")
    sub.add_argument("--grid-l", dest="l", metavar="GRID_L", type=_finite,
                     help="half length of the box in packet widths")
    sub.add_argument("--dt", type=_finite, default=None,
                     help="largest grid time step")
    sub.add_argument("--sample-every", type=int, default=None,
                     help="record every k-th grid step")


def _add_ic_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ic", choices=("smooth", "common"), default="smooth",
                     help="smooth: branches at their equilibrium offsets; "
                          "common: both branches at the same center")
    sub.add_argument("--xbar0", type=_finite, default=0.0)
    sub.add_argument("--vbar0", type=_finite, default=0.0)


def _grid(loaded: LoadedConfig, args,
          defaults: dict) -> tuple[dict, GridSpec]:
    """The grid block a run uses, as the manifest records it, and its
    GridSpec: the defaults, then the config's grid block, then the flags
    given, for the keys of defaults (sample_every is None without one).
    Raises ValueError if n, l, dt (GridSpec checks them) or sample_every is
    invalid."""
    block = {"sample_every": None, **defaults}
    for given in (loaded.grid, vars(args)):
        block.update((key, given[key]) for key in defaults
                     if given.get(key) is not None)
    spec = GridSpec(half_length=block["l"], n=block["n"], dt=block["dt"])
    if block["sample_every"] is not None and block["sample_every"] < 1:
        raise ValueError(
            f"sample_every must be >= 1, got {block['sample_every']!r}")
    return block, spec


def _initial_state(loaded: LoadedConfig, args):
    p = loaded.measurement.p
    if args.ic == "smooth":
        return smooth_initial_condition(p, loaded.f_meas_dimensionless,
                                        xbar0=args.xbar0, vbar0=args.vbar0)
    return common_center_initial_condition(p, xbar0=args.xbar0,
                                           vbar0=args.vbar0)


def _sample_times(t_max: float, dt_sample: float) -> np.ndarray:
    """Analytic output times; over MAX_ROWS of them fail before allocation."""
    ratio = t_max / dt_sample
    # a ratio past the cap is refused as it is, so floor never sees inf
    n = math.floor(ratio + 1e-9) if ratio <= MAX_ROWS else ratio
    off_grid = n * dt_sample < t_max * (1.0 - 1e-12)
    rows = n + 1 + off_grid
    if not rows <= MAX_ROWS:
        raise ValueError(f"--t-max / --dt-sample: the run would write "
                         f"{rows:.8g} rows, more than {MAX_ROWS}")
    # one float64 array of the final length, 8 B per row
    times = np.arange(rows, dtype=np.float64)
    times *= dt_sample
    if off_grid:
        times[-1] = t_max
    return times


def _report(result: dict, args, command: list, loaded: LoadedConfig, grid,
            master_seed: int | None = None) -> int:
    """With --out, write the JSON result and its manifest; then print it."""
    text = to_json(result)
    if args.out:
        write_text(args.out, [text + "\n"])
        write_manifest(args.out, command, loaded, grid, master_seed=master_seed)
    print(text)
    return 0


def cmd_criteria(args, command: list) -> int:
    loaded = load_config(args.config)
    report = classicality_report(loaded.apparatus, loaded.measurement)
    print(to_json(report.to_dict()))
    return 0 if report.all_ok else 2


def _run_grid(loaded: LoadedConfig, state, grid: dict, spec: GridSpec,
              t_max: float):
    """Evolve the closed form's initial state on the grid block and spec of
    _grid."""
    if loaded.gamma != 0.0:
        raise ValueError("gamma: the grid engine has no damping; "
                         "use the analytic engine for gamma > 0")
    return evolve_grid(init_state(spec, state), loaded.f_meas_dimensionless,
                       loaded.f_div_dimensionless(), t_max, spec,
                       sample_every=grid["sample_every"])[0]


def _emit_evolve(loaded: LoadedConfig, args) -> dict | None:
    """Run one evolution and write its CSV; returns the grid block the run
    used, None for the closed form, which checks the block and ignores it.
    The trajectory table, and with it the analytic time column, is freed on
    return, before the manifest's digest loads OpenSSL."""
    state = _initial_state(loaded, args)
    grid, spec = _grid(loaded, args, EVOLVE_GRID)
    if args.engine == "analytic":
        grid = None
        f_meas, f_div = loaded.f_meas_dimensionless, loaded.f_div_dimensionless()
        times = _sample_times(args.t_max, args.dt_sample)
        # emit_trajectory asks for the closed form one block of rows at a time
        table = SimpleNamespace(t=times, columns=lambda start, stop: trajectory(
            state, f_meas, f_div, times[start:stop], gamma=loaded.gamma))
    else:
        table = _run_grid(loaded, state, grid, spec, args.t_max)
    emit_trajectory(table, args.out)
    return grid


def cmd_evolve(args, command: list) -> int:
    loaded = load_config(args.config)
    grid = _emit_evolve(loaded, args)
    write_manifest(args.out, command, loaded, grid)
    return 0


def cmd_compare(args, command: list) -> int:
    loaded = load_config(args.config)
    state = _initial_state(loaded, args)
    grid, spec = _grid(loaded, args, EVOLVE_GRID)
    grid_traj = _run_grid(loaded, state, grid, spec, args.t_max)
    exact = trajectory(state, loaded.f_meas_dimensionless,
                       loaded.f_div_dimensionless(), grid_traj.t)
    report = {
        "t_max": args.t_max,
        "n_samples": int(len(grid_traj.t)),
        "grid": {key: grid[key] for key in ("n", "l", "dt")},
        "max_abs_diff": {
            key: float(np.max(np.abs(getattr(grid_traj, key) - exact[key])))
            for key in ("xbar", "x_plus", "x_minus")},
    }
    return _report(report, args, command, loaded, grid)


def cmd_born_mc(args, command: list) -> int:
    loaded = load_config(args.config)
    grid, spec = _grid(loaded, args, BORN_MC_GRID)
    summary = run_ensemble(loaded.measurement, args.engine, args.trials,
                           args.seed, workers=args.workers,
                           scales=loaded.scales, grid=spec)
    return _report(summary.to_dict(), args, command, loaded,
                   grid if args.engine == "grid" else None,
                   master_seed=args.seed)


def cmd_two_detector(args, command: list) -> int:
    table = two_detector_table(args.p)
    print(to_json(vars(table)))
    return 0


def main(argv: list | None = None) -> int:
    """Run the command line argv (sys.argv[1:] if None); a manifest records
    it as ["gravimean", *argv]."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    command = ["gravimean", *(sys.argv[1:] if argv is None else argv)]
    try:
        return args.func(args, command)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
