"""gravimean benchmark: runs the CLI on generated workloads and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from a checkout that holds `src/gravimean`. The seed fixes the generated
config; the CLI sees only that file. For S seconds the benchmark starts one
fresh interpreter per CLI invocation (perfbench/child.py), closed loop, one
invocation at a time, and checks every invocation's output. With --trace 0
it reports the end-to-end metrics as medians over the invocations; with
--trace 1 it alternates traced and untraced invocations and reports the
per-layer metrics of the traced ones. Every metric is printed by name with
its unit and sample count, followed by the check results and the machine,
and the last line of stdout is one JSON object: correct, attempted, failed,
metrics. `--list` prints the metric catalogue and which end-to-end metric
each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

from layers import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150.0

# End-to-end metrics are CPU times: on a shared virtual machine the time the
# host takes the CPU away (steal) adds to wall time but not to CPU time, and
# varies over minutes. Wall time is printed beside the metrics.
END_TO_END = (
    ("cpu_s", "s", "user + system CPU of one CLI invocation and its pool "
                   "workers, spawn to exit (wait4 rusage)"),
    ("setup_s", "s", "CPU time from spawn until gravimean.cli is imported "
                     "and the config is loaded, before the first solver call"),
    ("work_per_s", "1/s", "work per CPU second of cli.main (pool workers "
                          "included): grid steps (evolve-grid), trials "
                          "(born-grid, born-grid-par), CSV rows "
                          "(evolve-analytic)"),
    ("peak_rss_mb", "MB", "high-water RSS of the CLI process (VmHWM)"),
)

# (name, unit, better, the end-to-end metrics and workloads it should move)
PER_LAYER = (
    ("grid.step_calls", "count", "lower", "work_per_s on evolve-grid, born-grid"),
    ("grid.step_self_us", "us", "lower",
     "cpu_s, work_per_s on evolve-grid, born-grid, born-grid-par; "
     "not evolve-analytic"),
    ("grid.moments_calls", "count", "lower", "as grid.step_self_us"),
    ("grid.moments_s", "s", "lower", "as grid.step_self_us"),
    ("grid.fft_calls", "count", "lower", "as grid.step_self_us"),
    ("grid.fft_s", "s", "lower", "as grid.step_self_us"),
    ("grid.fft_flops_computed", "flop", "lower",
     "as grid.step_self_us (5 N log2 N per transform, computed)"),
    ("grid.energy_calls", "count", "lower",
     "work_per_s on evolve-grid; barely born-grid (2 samples per trial)"),
    ("grid.energy_self_s", "s", "lower", "as grid.energy_calls"),
    ("grid.evolve_calls", "count", "lower",
     "work_per_s on born-grid; negligible on evolve-grid"),
    ("grid.evolve_self_s", "s", "lower",
     "work_per_s on born-grid (pre-flight, edge checks, sample bookkeeping)"),
    ("grid.init_gaussian_s", "s", "lower", "work_per_s on born-grid"),
    ("montecarlo.run_ensemble_s", "s", "lower",
     "work_per_s on born-grid; cpu_s and wall time on born-grid-par"),
    ("montecarlo.run_trial_calls", "count", "lower",
     "work_per_s on born-grid; 0 on born-grid-par (workers are not traced)"),
    ("montecarlo.run_trial_ms", "ms", "lower", "work_per_s on born-grid"),
    ("montecarlo.chunks", "count", "lower",
     "cpu_s and wall time on born-grid-par (load balance)"),
    ("montecarlo.workers_used", "count", "higher",
     "cpu_s and wall time on born-grid-par"),
    ("io.load_config_s", "s", "lower", "setup_s on every workload"),
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("io.emit_trajectory_s", "s", "lower",
     "work_per_s, peak_rss_mb on evolve-analytic; small on evolve-grid"),
    ("io.csv_rows", "count", "lower", "as io.emit_trajectory_s"),
    ("io.csv_bytes", "bytes", "lower", "as io.emit_trajectory_s"),
    ("io.write_manifest_s", "s", "lower",
     "work_per_s on evolve-analytic (includes the sha256 digest)"),
    ("analytic.trajectory_s", "s", "lower",
     "work_per_s on evolve-analytic, by a small share"),
    ("analytic.trajectory_samples", "count", "lower", "as analytic.trajectory_s"),
    ("cli.main_s", "s", "lower", "cpu_s on every workload"),
    ("trace.overhead_frac", "fraction", "lower",
     "none: traced cli.main_s over untraced cli.main_s, minus 1"),
)

WHY = {
    "evolve-grid": "one long grid evolve: grid.step dominates, energy "
                   "sampling is small, CSV output negligible",
    "born-grid": "grid Born ensemble on one worker: many short runs, so "
                 "per-trial setup counts as well as the step",
    "born-grid-par": "born-grid on two workers: the only path through the "
                     "process pool dispatch and chunking",
    "evolve-analytic": "long closed-form evolve: CSV emit, digest and "
                       "manifest dominate; the grid does no work",
}


@dataclass
class Plan:
    """One workload instance: the config the CLI gets and how to check it."""

    config: dict
    args: list
    work: int
    check: Callable[[Path, str], list]
    digest_file: str | None = None


@dataclass
class Invocation:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    marks: dict = field(default_factory=dict)
    layers: dict | None = None
    problems: list = field(default_factory=list)
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


# --- workloads -------------------------------------------------------------

def _si_config(p: float, f_meas: float, tau: float, **extra) -> dict:
    """Config in SI units whose dimensionless f_meas and tau are as given."""
    from gravimean.units import ApparatusParams, Scales
    app = ApparatusParams.derive(radius=1e-3, density=1e4)
    scales = Scales.from_apparatus(app)
    cfg = {"density_kgm3": 1e4, "radius_m": 1e-3, "p": p,
           "F_meas_N": f_meas * scales.force, "tau_meas_s": tau * scales.time,
           "l0_m": 1e-9}
    if "f_div" in extra:
        cfg["F_div"] = {"kind": "fixed", "value_N": extra.pop("f_div") * scales.force}
    else:
        cfg["F_div"] = {"kind": "uniform"}
    cfg.update(extra)
    return cfg


def _load(config: dict):
    from gravimean.io import load_config
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        return load_config(path)


def _manifest_problems(csv: Path) -> list:
    from gravimean.io import verify_manifest
    return [f"manifest: {p}" for p in verify_manifest(str(csv) + ".manifest.json")]


def plan_evolve_grid(seed: int, tiny: bool) -> Plan:
    import numpy as np
    from gravimean.analytic import smooth_initial_condition, trajectory
    rng = random.Random(f"evolve-grid/{seed}")
    p = rng.uniform(0.2, 0.8)
    f_meas = rng.uniform(0.5, 1.5)
    f_div = rng.uniform(-0.5, 0.5) * f_meas
    n, t_max, dt, every = (256, 0.5, 1e-3, 10) if tiny else (1024, math.pi, 1e-3, 10)
    config = _si_config(p, f_meas, 1.0, f_div=f_div,
                        grid={"n": n, "l": 32.0, "dt": dt, "sample_every": every})
    loaded = _load(config)
    fm, fd = loaded.f_meas_dimensionless, loaded.f_div_dimensionless()
    n_steps = max(1, round(t_max / dt))
    rows = n_steps // every + 1 + (1 if n_steps % every else 0)
    state = smooth_initial_condition(p, fm)

    def check(out: Path, stdout: str) -> list:
        csv = out / "traj.csv"
        problems = _manifest_problems(csv)
        data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (rows, 9):
            return problems + [f"csv shape {data.shape}, expected ({rows}, 9)"]
        exact = trajectory(state, fm, fd, data[:, 0])
        dev_x = max(np.max(np.abs(data[:, 3] - exact["x_plus"])),
                    np.max(np.abs(data[:, 4] - exact["x_minus"])))
        dev_norm = np.max(np.abs(data[:, 6:8] - 1.0))
        drift = np.max(np.abs(data[:, 8] - data[0, 8]))
        for label, value, tol in (("max |x - closed form|", dev_x, 1e-6),
                                  ("max |norm - 1|", dev_norm, 1e-10),
                                  ("energy drift", drift, 1e-6)):
            if not value <= tol:
                problems.append(f"{label} {value:.3e} > {tol:g}")
        return problems

    args = ["evolve", "--mode", "grid", "--t-max", repr(t_max), "--out", "traj.csv"]
    return Plan(config, args, n_steps, check, digest_file="traj.csv")


def _plan_born(seed: int, tiny: bool, workers: int) -> Plan:
    from gravimean.montecarlo import run_ensemble
    rng = random.Random(f"born/{seed}")
    p = rng.uniform(0.2, 0.8)
    f_meas = rng.uniform(0.5, 1.5)
    trials = 3 if tiny else 16
    config = _si_config(p, f_meas, 1.0)
    loaded = _load(config)
    ref = run_ensemble(loaded.measurement, "analytic", trials, seed,
                       scales=loaded.scales)
    expected = {"right": ref.n_right, "left": ref.n_left,
                "undecided": ref.n_undecided}

    def check(out: Path, stdout: str) -> list:
        summary = json.loads(stdout)
        problems = []
        if summary["n_trials"] != trials or summary["engine"] != "grid":
            problems.append(f"n_trials {summary['n_trials']} engine "
                            f"{summary['engine']}, expected {trials} grid")
        if summary["counts"] != expected:
            problems.append(f"counts {summary['counts']} differ from the "
                            f"analytic ensemble {expected}")
        return problems

    args = ["born-mc", "--engine", "grid", "--trials", str(trials),
            "--seed", str(seed), "--workers", str(workers)]
    return Plan(config, args, trials, check)


def plan_evolve_analytic(seed: int, tiny: bool) -> Plan:
    import numpy as np
    from gravimean.analytic import smooth_initial_condition, trajectory
    rng = random.Random(f"evolve-analytic/{seed}")
    p = rng.uniform(0.2, 0.8)
    f_meas = rng.uniform(0.5, 1.5)
    f_div = rng.uniform(-0.5, 0.5) * f_meas
    gamma = rng.choice((0.0, rng.uniform(0.01, 0.5)))
    t_max, dt_sample = (100.0, 0.1) if tiny else (2.0e4, 0.1)
    config = _si_config(p, f_meas, 1.0, f_div=f_div, gamma=gamma)
    loaded = _load(config)
    rows = int(math.floor(t_max / dt_sample + 1e-9)) + 1
    times = np.arange(rows) * dt_sample
    exact = trajectory(smooth_initial_condition(p, loaded.f_meas_dimensionless),
                       loaded.f_meas_dimensionless, loaded.f_div_dimensionless(),
                       times, gamma=loaded.gamma)
    expected = np.column_stack([exact["t"], exact["xbar"], exact["x_plus"],
                                exact["x_minus"],
                                exact["x_plus"] - exact["x_minus"]])
    # t, xbar, x2bar, x_plus, x_minus, d, then three empty grid-only cells
    row_shape = re.compile(r"^[^,\n]+,[^,\n]+,,[^,\n]+,[^,\n]+,[^,\n]+,,,$", re.M)

    def check(out: Path, stdout: str) -> list:
        csv = out / "traj.csv"
        problems = _manifest_problems(csv)
        text = csv.read_text()
        shaped = len(row_shape.findall(text))
        if shaped != rows:
            return problems + [f"{shaped} well-formed rows, expected {rows}"]
        data = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=(0, 1, 3, 4, 5),
                          ndmin=2)
        if not np.array_equal(data, expected):
            bad = int(np.count_nonzero(np.any(data != expected, axis=1)))
            problems.append(f"{bad} rows do not round-trip to analytic.trajectory")
        return problems

    args = ["evolve", "--mode", "analytic", "--t-max", repr(t_max),
            "--dt-sample", repr(dt_sample), "--out", "traj.csv"]
    return Plan(config, args, rows, check)


WORKLOADS = {
    "evolve-grid": plan_evolve_grid,
    "born-grid": lambda seed, tiny: _plan_born(seed, tiny, workers=1),
    "born-grid-par": lambda seed, tiny: _plan_born(seed, tiny, workers=2),
    "evolve-analytic": plan_evolve_analytic,
}


# --- running ---------------------------------------------------------------

def invoke(plan: Plan, config_path: Path, out: Path, traced: bool) -> Invocation:
    """Run the CLI once in a fresh interpreter and check its output."""
    out.mkdir()
    timing_path, trace_path = out / "timing.json", out / "trace.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing_path),
           str(trace_path) if traced else "-", "--",
           plan.args[0], "--config", str(config_path), *plan.args[1:]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GRAVIMEAN_THREADS", None)
    with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
        t_spawn = perf_counter()
        proc = subprocess.Popen(cmd, cwd=out, env=env, stdout=so, stderr=se)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(traced=traced, exit_code=proc.returncode,
                     wall_s=t_exit - t_spawn,
                     cpu_s=usage.ru_utime + usage.ru_stime)
    if inv.exit_code != 0:
        err = (out / "stderr").read_text(errors="replace").strip().splitlines()
        inv.problems.append(f"exit code {inv.exit_code}: {err[-1] if err else ''}")
        return inv
    try:
        inv.marks = json.loads(timing_path.read_text())["marks"]
        inv.marks["spawn"] = t_spawn
        if traced:
            inv.layers = layer_metrics(json.loads(trace_path.read_text()), inv.marks)
        if plan.digest_file:
            inv.digest = hashlib.sha256((out / plan.digest_file).read_bytes()).hexdigest()
        inv.problems.extend(plan.check(out, (out / "stdout").read_text()))
    except Exception as exc:  # any broken output is a failed invocation
        inv.problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return inv


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
            tamper: Callable[[Path], None] | None = None) -> tuple[list, Plan]:
    """Invoke the CLI until `seconds` have passed (at least 3 invocations, or
    2 when traced), alternating traced and untraced ones when `trace`.

    `tamper`, if given, is applied to each invocation's output directory
    before its output is checked; tests use it to inject a bad output.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    plan = WORKLOADS[workload](seed, tiny)
    if tamper is not None:
        check = plan.check

        def tampered_check(out: Path, stdout: str) -> list:
            tamper(out)
            return check(out, stdout)

        plan = replace(plan, check=tampered_check)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(plan.config))
        invocations = []
        minimum = 2 if trace else 3
        start = perf_counter()
        while True:
            out = run_dir / f"inv{len(invocations)}"
            invocations.append(
                invoke(plan, config_path, out, trace and len(invocations) % 2 == 0))
            shutil.rmtree(out)
            elapsed = perf_counter() - start
            per_invocation = elapsed / len(invocations)
            if len(invocations) >= minimum and elapsed + per_invocation > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return invocations, plan


def end_to_end(invocations: list, work: int) -> dict:
    """Medians over the untraced invocations that passed: (value, count)."""
    good = [i for i in invocations if i.ok and not i.traced]
    values = {
        "cpu_s": [i.cpu_s for i in good],
        "setup_s": [i.marks["setup_cpu"] for i in good],
        "work_per_s": [work / (i.marks["main_cpu_end"] - i.marks["main_cpu_start"])
                       for i in good],
        "peak_rss_mb": [i.marks["peak_rss_kib"] * 1024 / 1e6 for i in good],
    }
    return {k: (median(v), len(v)) for k, v in values.items() if v}


def wall_times(invocations: list) -> dict:
    """Wall-clock medians, printed beside the metrics: (value, count)."""
    good = [i for i in invocations if i.ok and not i.traced]
    values = {
        "wall_s": [i.wall_s for i in good],
        "setup_wall_s": [i.marks["config_loaded"] - i.marks["spawn"] for i in good],
        "main_wall_s": [i.marks["main_end"] - i.marks["main_start"] for i in good],
    }
    return {k: (median(v), len(v)) for k, v in values.items() if v}


def per_layer(invocations: list) -> dict:
    traced = [i for i in invocations if i.ok and i.traced]
    untraced = [i for i in invocations if i.ok and not i.traced]
    if not traced or not untraced:
        return {}
    out = {name: (median(i.layers[name] for i in traced), len(traced))
           for name in traced[0].layers}
    untraced_main = median(i.marks["main_end"] - i.marks["main_start"] for i in untraced)
    out["trace.overhead_frac"] = (out["cli.main_s"][0] / untraced_main - 1.0,
                                  len(untraced))
    return out


def summarize(invocations: list, plan: Plan, trace: bool) -> tuple[dict, dict]:
    """(metrics, {name: unit}) of the run: per-layer when traced."""
    if trace:
        return per_layer(invocations), {n: u for n, u, _, _ in PER_LAYER}
    return end_to_end(invocations, plan.work), {n: u for n, u, _ in END_TO_END}


def result(invocations: list, metrics: dict, catalogue: dict) -> dict:
    """The result line: a failed invocation counts against `correct`."""
    failed = sum(not i.ok for i in invocations)
    return {"correct": failed == 0, "attempted": len(invocations),
            "failed": failed,
            "metrics": {name: {"value": metrics[name][0], "unit": unit}
                        for name, unit in catalogue.items()}}


def machine() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs; (0, 0) where /proc is absent."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def reference_digest(seed: int, tiny: bool) -> str | None:
    if tiny:
        return None
    table = json.loads((HERE / "grid_digests.json").read_text())
    return table.get(str(seed))


def print_catalogue() -> None:
    print("end-to-end metrics (--trace 0):")
    for name, unit, what in END_TO_END:
        print(f"  {name} [{unit}]: {what}")
    print("per-layer metrics (--trace 1) and what each should move:")
    for name, unit, better, moves in PER_LAYER:
        print(f"  {name} [{unit}, {better} is better]: {moves}")
    print("workloads:")
    for name, why in WHY.items():
        print(f"  {name}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--list", action="store_true",
                        help="print the metric catalogue and exit")
    args = parser.parse_args(argv)
    if args.list:
        print_catalogue()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "gravimean" / "cli.py").is_file():
        print(f"error: no gravimean sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    load_start, ticks_start = os.getloadavg()[0], cpu_ticks()
    invocations, plan = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.tiny)
    ticks_end = cpu_ticks()
    info = machine()
    info["loadavg_1m"] = [load_start, os.getloadavg()[0]]
    total = ticks_end[1] - ticks_start[1]
    info["steal_frac"] = (ticks_end[0] - ticks_start[0]) / total if total else None

    metrics, catalogue = summarize(invocations, plan, bool(args.trace))
    attempted = len(invocations)
    failed = sum(not i.ok for i in invocations)
    if set(metrics) != set(catalogue):
        print(f"error: no metrics from {attempted} invocations "
              f"({failed} failed)", file=sys.stderr)
        for k, inv in enumerate(invocations):
            for problem in inv.problems:
                print(f"  invocation {k}: {problem}", file=sys.stderr)
        return 1

    digests = {i.digest for i in invocations if i.digest}
    ref = reference_digest(args.seed, args.tiny) if digests else None
    digest_changed = None if ref is None else digests != {ref}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {WHY[args.workload]}")
    for name, unit in catalogue.items():
        value, count = metrics[name]
        print(f"  {name} = {value:.6g} {unit} (median of {count})")
    for name, (value, count) in wall_times(invocations).items():
        print(f"  (wall clock, not a metric) {name} = {value:.6g} s "
              f"(median of {count})")
    for k, inv in enumerate(invocations):
        status = "ok" if inv.ok else "FAILED: " + "; ".join(inv.problems)
        print(f"  invocation {k}{' traced' if inv.traced else ''}: "
              f"wall {inv.wall_s:.3f} s, cpu {inv.cpu_s:.3f} s, {status}")
    print(f"  error_rate = {failed}/{attempted}")
    if digests:
        print(f"  grid_csv_digest {sorted(digests)}, reference {ref}, "
              f"grid_csv_digest_changed {digest_changed}")
    print(f"  machine {json.dumps(info, sort_keys=True)}")
    print(json.dumps(result(invocations, metrics, catalogue)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
