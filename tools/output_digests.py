"""Digest every output of a fixed matrix of CLI runs, to show that a change
leaves them byte for byte the same.

    python3 tools/output_digests.py SRC > digests.txt

runs the matrix on the gravimean package under SRC (the directory that
holds `gravimean/`), in a fresh temporary directory, with PYTHONPATH=SRC.
Each run prints one line: its name, its exit code, and the sha256 of its
stdout, its stderr, its output file and its manifest without `timestamp`
("-" where a run has none). Every manifest written is then checked by
`io.verify_manifest` in a run of its own, and so are a missing path and a
directory. Run it on two trees and diff the two listings.

The configs are SI configs whose packet-unit f_meas and tau are as given,
on a sphere of radius 1 mm and density 1e4 kg/m^3; SRC's own
`gravimean.units` converts them. Only the standard library is imported
here; every gravimean call runs in its own interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLOCK = 2**16  # montecarlo.BLOCK: trials beyond one block reach the pool

SCALES = """\
import json
from gravimean.units import ApparatusParams, Scales
s = Scales.from_apparatus(ApparatusParams.derive(radius=1e-3, density=1e4))
print(json.dumps([s.force, s.time]))
"""

VERIFY = """\
import sys
from gravimean.io import verify_manifest
print(verify_manifest(sys.argv[1]))
"""


def si_config(scales, p, f_meas, tau, f_div=None, **extra) -> dict:
    force, time = scales
    cfg = {"density_kgm3": 1e4, "radius_m": 1e-3, "p": p,
           "F_meas_N": f_meas * force, "tau_meas_s": tau * time,
           "l0_m": 1e-9,
           "F_div": ({"kind": "uniform"} if f_div is None
                     else {"kind": "fixed", "value_N": f_div * force})}
    cfg.update(extra)
    return cfg


def matrix() -> list:
    """(name, config name or None, CLI arguments, output file or None)."""
    runs = []
    for ic in ("smooth", "common"):
        for label, t_max, dt, every in (("divides", "1.0", "2e-3", "25"),
                                        ("coarse", "3", "0.4", "1")):
            runs.append((f"evolve-grid-{ic}-{label}", "evolve",
                         ["evolve", "--mode", "grid", "--ic", ic,
                          "--t-max", t_max, "--dt", dt,
                          "--sample-every", every],
                         f"grid-{ic}-{label}.csv"))
    for gamma in ("0", "0.5"):
        runs.append((f"evolve-analytic-gamma{gamma}", f"gamma{gamma}",
                     ["evolve", "--mode", "analytic", "--t-max", "20",
                      "--dt-sample", "0.01"], f"analytic-{gamma}.csv"))
    runs.append(("compare", "evolve",
                 ["compare", "--t-max", "1.0", "--grid-l", "14",
                  "--dt", "2e-3"], "compare.json"))
    for engine, trials in (("analytic", 2 * BLOCK + 1), ("grid", BLOCK + 1)):
        for seed in range(5):
            for workers in ("1", "2"):
                runs.append((f"born-mc-{engine}-seed{seed}-w{workers}",
                             "born", ["born-mc", "--engine", engine,
                                      "--trials", str(trials),
                                      "--seed", str(seed),
                                      "--workers", workers],
                             f"born-{engine}-{seed}-{workers}.json"))
    runs.append(("born-mc-grid-block-2^16", "born-block",
                 ["born-mc", "--engine", "grid", "--trials", str(BLOCK),
                  "--seed", "7"], "born-block.json"))
    runs.append(("born-mc-fixed-force", "evolve",
                 ["born-mc", "--trials", "4"], "born-fixed.json"))
    runs.append(("criteria", "evolve", ["criteria"], None))
    # tau_meas_s 5e-324 s is 0.0 in units of 1/omega
    runs.append(("born-mc-analytic-tau-underflow", "tiny-tau",
                 ["born-mc", "--engine", "analytic", "--trials", "4"],
                 "born-tiny-tau.json"))
    runs.append(("criteria-tau-underflow", "tiny-tau", ["criteria"], None))
    runs.append(("two-detector", None, ["two-detector", "--p", "0.6"], None))
    for flag, value in (("--grid-n", "3"), ("--dt", "-5"),
                        ("--sample-every", "0")):
        runs.append((f"evolve-analytic-invalid{flag}", "evolve",
                     ["evolve", "--mode", "analytic", "--t-max", "5",
                      flag, value], f"invalid{flag}.csv"))
    return runs


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def manifest_digest(path: Path) -> str:
    if not path.exists():
        return "-"
    manifest = json.loads(path.read_text())
    manifest.pop("timestamp", None)
    return digest(json.dumps(manifest, sort_keys=True).encode())


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))

    def python(args, cwd):
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True)

    def line(name, proc, out="-", manifest="-"):
        print(f"{name} exit={proc.returncode} stdout={digest(proc.stdout)} "
              f"stderr={digest(proc.stderr)} out={out} manifest={manifest}",
              flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        scales = json.loads(python(["-c", SCALES], work).stdout)
        configs = {
            "evolve": si_config(scales, 0.6, 1.0, 1.0, f_div=0.2,
                                grid={"n": 256, "l": 16.0}),
            "gamma0": si_config(scales, 0.6, 1.0, 1.0, f_div=0.2),
            "gamma0.5": si_config(scales, 0.6, 1.0, 1.0, f_div=0.2,
                                  gamma=0.5),
            "born": si_config(scales, 0.6, 1.0, 1.0),
            "born-block": si_config(scales, 0.6, 1.0, 1.0,
                                    grid={"n": 256, "sample_every": 7}),
            "tiny-tau": si_config(scales, 0.6, 1.0, 1.0, tau_meas_s=5e-324),
        }
        for name, cfg in configs.items():
            (work / f"{name}.json").write_text(json.dumps(cfg))
        manifests = []
        for name, config, args, output in matrix():
            args = list(args)
            if config is not None:
                args[1:1] = ["--config", f"{config}.json"]
            if output is not None:
                args += ["--out", output]
            proc = python(["-m", "gravimean.cli", *args], work)
            out = manifest = "-"
            if output is not None:
                path = work / output
                out = digest(path.read_bytes() if path.exists() else None)
                manifest = manifest_digest(work / f"{output}.manifest.json")
                if manifest != "-":
                    manifests.append(f"{output}.manifest.json")
            line(name, proc, out, manifest)
        for path in manifests + ["nope.manifest.json", "."]:
            line(f"verify:{path}", python(["-c", VERIFY, path], work))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
