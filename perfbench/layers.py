"""Per-layer metrics of one traced invocation, computed from its spans.

A span's self time is its duration minus the time its direct child spans
cover. Calls run on one thread, so children never overlap and the coverage
is the sum of their durations.
"""

from __future__ import annotations

import math
from statistics import median


def _span_table(spans):
    """Per span name: call count, total time, self times and attrs."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table = {}
    for (name, start, end, _, attrs), child in zip(spans, covered):
        entry = table.setdefault(name, {"calls": 0, "total": 0.0,
                                        "self": [], "durations": [],
                                        "attrs": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"].append(end - start - child)
        entry["durations"].append(end - start)
        if attrs is not None:
            entry["attrs"].append(attrs)
    return table


def layer_metrics(trace: dict, marks: dict) -> dict:
    """Every per-layer metric of one traced invocation except
    trace.overhead_frac, which needs the untraced runs."""
    table = _span_table(trace["spans"])
    empty = {"calls": 0, "total": 0.0, "self": [], "durations": [], "attrs": []}

    def get(name):
        return table.get(name, empty)

    def med(values, scale=1.0):
        return median(values) * scale if values else 0.0

    fft = get("fft")
    step = get("grid.step")
    trial = get("montecarlo.run_trial")
    emit = get("io.emit_trajectory")
    pools = trace["pools"]
    chunks = get("montecarlo.chunk")["calls"] + sum(p["chunks"] for p in pools)
    if pools:
        workers = max(p["workers"] for p in pools)
    else:
        workers = 1 if chunks else 0
    return {
        "grid.step_calls": step["calls"],
        "grid.step_self_us": med(step["self"], 1e6),
        "grid.moments_calls": get("grid.moments")["calls"],
        "grid.moments_s": get("grid.moments")["total"],
        "grid.fft_calls": fft["calls"],
        "grid.fft_s": fft["total"],
        "grid.fft_flops_computed": sum(5.0 * a["n"] * math.log2(a["n"]) * a["batch"]
                                       for a in fft["attrs"] if a["n"] > 1),
        "grid.energy_calls": get("grid.energy")["calls"],
        "grid.energy_self_s": sum(get("grid.energy")["self"]),
        "grid.evolve_calls": get("grid.evolve")["calls"],
        "grid.evolve_self_s": sum(get("grid.evolve")["self"]),
        "grid.init_gaussian_s": get("grid.init_gaussian")["total"],
        "montecarlo.run_ensemble_s": get("montecarlo.run_ensemble")["total"],
        "montecarlo.run_trial_calls": trial["calls"],
        "montecarlo.run_trial_ms": med(trial["durations"], 1e3),
        "montecarlo.chunks": chunks,
        "montecarlo.workers_used": workers,
        "io.load_config_s": get("io.load_config")["total"],
        "cli.import_s": marks["import_end"] - marks["import_start"],
        "io.emit_trajectory_s": emit["total"],
        "io.csv_rows": sum(a["rows"] for a in emit["attrs"]),
        "io.csv_bytes": sum(a["bytes"] for a in emit["attrs"]),
        "io.write_manifest_s": get("io.write_manifest")["total"],
        "analytic.trajectory_s": get("analytic.trajectory")["total"],
        "analytic.trajectory_samples": sum(
            a["samples"] for a in get("analytic.trajectory")["attrs"]),
        "cli.main_s": get("cli.main")["total"],
    }
