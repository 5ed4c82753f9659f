"""The benchmark's own tests, at tiny sizes so the whole file runs in seconds.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(run.ROOT)
sys.path.insert(0, str(run.SRC))


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_reported(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in last["metrics"].items()}
    for name, unit in ((m["name"], m["unit"]) for m in wanted):
        assert f"  {name} = " in proc.stdout and unit in proc.stdout
    assert "error_rate = 0/" in proc.stdout
    assert '"loadavg_1m"' in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_catalogue_matches_benchmark_json():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(run.WHY)
    assert set(run.WHY) == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER]


def test_born_workloads_share_config_and_counts():
    results = {}
    for workload in ("born-grid", "born-grid-par"):
        invocations, plan = run.measure(workload, 5, 0.0, False, True)
        assert all(i.ok for i in invocations), [i.problems for i in invocations]
        results[workload] = plan.config
    assert results["born-grid"] == results["born-grid-par"]


def _corrupt_csv(out):
    csv = out / "traj.csv"
    lines = csv.read_text().split("\n")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines))


@pytest.mark.parametrize("workload", ["evolve-grid", "evolve-analytic"])
def test_corrupted_csv_counts_as_failure(workload):
    invocations, plan = run.measure(workload, 3, 0.0, False, True,
                                    tamper=_corrupt_csv)
    assert all(any("digest mismatch" in p for p in i.problems)
               for i in invocations)
    line = run.result(invocations, {}, {})
    assert line["failed"] == line["attempted"] == len(invocations) >= 3
    assert not line["correct"]
    metrics, _ = run.summarize(invocations, plan, False)
    assert metrics == {}  # failed invocations never enter a median


def test_round_trip_check_catches_a_wrong_value():
    invocations, _ = run.measure("evolve-analytic", 3, 0.0, False, True,
                                 tamper=_corrupt_csv)
    assert all(any("round-trip" in p for p in i.problems) for i in invocations)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("evolve-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
