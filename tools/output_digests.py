"""Digest every output of a fixed matrix of CLI runs, to show that a change
leaves them byte for byte the same.

    python3 tools/output_digests.py SRC > digests.txt

runs the matrix on the gravimean package under SRC (the directory that
holds `gravimean/`), in a fresh temporary directory, with PYTHONPATH=SRC.
Each run prints one line: its name, its exit code, and the sha256 of its
stdout, its stderr, its output file and its manifest without `timestamp`
("-" where a run has none; a manifest that is not JSON is digested as it
is). Every manifest written is then checked by `io.verify_manifest` in a
run of its own, and so are a missing path and a directory. Run it on two
trees and diff the two listings.

The last runs of the matrix write under a file-size limit, with SIGXFSZ
ignored, so that their --out or manifest write fails with EFBIG, as on a
full disk.

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

# the CLI on argv[2:] with files capped at argv[1] bytes
FILE_SIZE_LIMITED = """\
import resource, signal, sys
from gravimean.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""

VERIFY = """\
import sys
from gravimean.io import verify_manifest
print(verify_manifest(sys.argv[1]))
"""


# configs that criteria refuses with exit 1, by the key of si_config that
# each sets (a config that is a JSON array is not si_config's)
REFUSED = {"array": None, "fdiv-string": {"F_div": "uniform"},
           "grid-list": {"grid": [1]},
           "grid-n-fraction": {"grid": {"n": 1024.5}},
           "grid-every-0": {"grid": {"sample_every": 0}},
           # radius**3 underflows to 0, and with it the derived mass
           "mass-underflow": {"radius_m": 1e-120},
           # a given density that is not > 0: the negative one used to
           # derive a complex radius and end in a traceback
           "density-negative": {"radius_m": None, "mass_kg": 0.04,
                                "density_kgm3": -1e4},
           "density-zero": {"radius_m": None, "mass_kg": 0.04,
                            "density_kgm3": 0.0}}


def si_config(scales, p, f_meas, tau, f_div=None, **extra) -> dict:
    """The config; a key of extra given as None is left out."""
    force, time = scales
    cfg = {"density_kgm3": 1e4, "radius_m": 1e-3, "p": p,
           "F_meas_N": f_meas * force, "tau_meas_s": tau * time,
           "l0_m": 1e-9,
           "F_div": ({"kind": "uniform"} if f_div is None
                     else {"kind": "fixed", "value_N": f_div * force})}
    cfg.update(extra)
    return {key: value for key, value in cfg.items() if value is not None}


def matrix() -> list:
    """(name, config name or None, CLI arguments, output file or None,
    file-size limit in bytes or None)."""
    runs = []
    for ic in ("smooth", "common"):
        for label, t_max, dt, every in (("divides", "1.0", "2e-3", "25"),
                                        ("coarse", "3", "0.4", "1")):
            runs.append((f"evolve-grid-{ic}-{label}", "evolve",
                         ["evolve", "--mode", "grid", "--ic", ic,
                          "--t-max", t_max, "--dt", dt,
                          "--sample-every", every],
                         f"grid-{ic}-{label}.csv"))
    # the grid defaults of evolve (gamma0 sets no grid): n 1024, l 32, dt
    # 1e-3, sample_every 10, the shape of the benchmark's grid evolve
    runs.append(("evolve-grid-defaults", "gamma0",
                 ["evolve", "--mode", "grid", "--t-max", "1"],
                 "grid-defaults.csv"))
    for gamma in ("0", "0.5"):
        runs.append((f"evolve-analytic-gamma{gamma}", f"gamma{gamma}",
                     ["evolve", "--mode", "analytic", "--t-max", "20",
                      "--dt-sample", "0.01"], f"analytic-{gamma}.csv"))
    # the damped closed form at the critical point and overdamped, where
    # -gamma/2 + sqrt(gamma^2/4 - 1) cancels to 0 from gamma = 1e9 and
    # gamma^2/4 overflows at 1e200
    for gamma, t_max, dt_sample in (("2", "20", "0.01"), ("3", "20", "0.01"),
                                    ("1e9", "1e4", "1e4"),
                                    ("1e200", "1e4", "1e4")):
        runs.append((f"evolve-analytic-common-gamma{gamma}", f"gamma{gamma}",
                     ["evolve", "--mode", "analytic", "--ic", "common",
                      "--t-max", t_max, "--dt-sample", dt_sample],
                     f"analytic-common-{gamma}.csv"))
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
    runs.append(("criteria-passing", "criteria-pass", ["criteria"], None))
    # tau_meas_s 5e-324 s is 0.0 in units of 1/omega
    runs.append(("born-mc-analytic-tau-underflow", "tiny-tau",
                 ["born-mc", "--engine", "analytic", "--trials", "4"],
                 "born-tiny-tau.json"))
    runs.append(("criteria-tau-underflow", "tiny-tau", ["criteria"], None))
    # refused configs, each with the one message that names its key
    for config in REFUSED:
        runs.append((f"criteria-refused-{config}", config, ["criteria"],
                     None))
    runs.append(("two-detector", None, ["two-detector", "--p", "0.6"], None))
    for flag, value in (("--grid-n", "3"), ("--dt", "-5"),
                        ("--sample-every", "0")):
        runs.append((f"evolve-analytic-invalid{flag}", "evolve",
                     ["evolve", "--mode", "analytic", "--t-max", "5",
                      flag, value], f"invalid{flag}.csv"))
    for command in ("criteria", "evolve", "compare", "born-mc",
                    "two-detector"):
        runs.append((f"help-{command}", None, [command, "--help"], None))
    # the engine is a flag, not a config key
    runs.append(("born-mc-config-engine", "born-engine",
                 ["born-mc", "--trials", "4"], "born-config-engine.json"))
    # an --out that cannot be written: no stdout result, no files
    runs.append(("born-mc-out-missing-dir", "born",
                 ["born-mc", "--trials", "4"], "missing/born.json"))
    # boxes whose x^2 dx moment weight overflows
    for length in ("1e200", "1e308"):
        runs.append((f"evolve-grid-l-{length}", "evolve",
                     ["evolve", "--mode", "grid", "--t-max", "0.01",
                      "--grid-n", "64", "--grid-l", length],
                     f"grid-l-{length}.csv"))
    runs = [(*run, None) for run in runs]
    # a failed write of the --out JSON, then of an evolve manifest
    runs.append(("born-mc-out-file-too-large", "born",
                 ["born-mc", "--trials", "10"], "born-fsize.json", 100))
    runs.append(("evolve-manifest-file-too-large", "gamma0",
                 ["evolve", "--mode", "analytic", "--t-max", "0.2",
                  "--dt-sample", "0.1"], "evolve-fsize.csv", 1000))
    return runs


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def manifest_digest(path: Path) -> str:
    if not path.exists():
        return "-"
    try:
        manifest = json.loads(path.read_text())
    except ValueError:  # a partial manifest left by a failed write
        return digest(path.read_bytes())
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
            **{f"gamma{gamma}": si_config(scales, 0.6, 1.0, 1.0, f_div=0.2,
                                          gamma=float(gamma))
               for gamma in ("2", "3", "1e9", "1e200")},
            # "evolve" fails the criteria (exit 2); this one meets them
            "criteria-pass": si_config(scales, 0.6, 1.0, 1.0, f_div=0.2,
                                       F_meas_N=1e-13, tau_meas_s=1.0),
            "born": si_config(scales, 0.6, 1.0, 1.0),
            "born-block": si_config(scales, 0.6, 1.0, 1.0,
                                    grid={"n": 256, "sample_every": 7}),
            "tiny-tau": si_config(scales, 0.6, 1.0, 1.0, tau_meas_s=5e-324),
            "born-engine": si_config(scales, 0.6, 1.0, 1.0, engine="grid"),
            **{name: [1] if extra is None else
               si_config(scales, 0.6, 1.0, 1.0, **extra)
               for name, extra in REFUSED.items()},
        }
        for name, cfg in configs.items():
            (work / f"{name}.json").write_text(json.dumps(cfg))
        manifests = []
        for name, config, args, output, limit in matrix():
            args = list(args)
            if config is not None:
                args[1:1] = ["--config", f"{config}.json"]
            if output is not None:
                args += ["--out", output]
            cli = (["-m", "gravimean.cli"] if limit is None
                   else ["-c", FILE_SIZE_LIMITED, str(limit)])
            proc = python([*cli, *args], work)
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
