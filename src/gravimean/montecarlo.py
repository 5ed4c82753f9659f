"""Deterministic ensembles over the frozen random diverting force.

Each trial freezes one diverting force f_div, uniform on [-f_meas, +f_meas],
and asks which way the apparatus mean moves under the total force
F = 2 (p - 1/2) f_meas + f_div. The probability of F > 0 is exactly p, so
outcome frequencies reproduce the branch weight. Trials are reproducible
independent of scheduling: trial i derives its own seed from the master seed
by a fixed integer mix, and aggregation is counts-only.

Seed derivation, bit-exact: with the 64-bit golden constant
GOLDEN = 0x9E3779B97F4A7C15 and mix64 the splitmix64 finalizer

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
              z *= 0x94D049BB133111EB; z ^= z >> 31      (all mod 2^64),

trial i of master seed s gets trial_seed = mix64((s + (i+1) * GOLDEN) mod
2^64), i.e. output i of the splitmix64 stream seeded with s, addressable in
O(1) with no sequential dependency. The uniform draw for a trial seed q is
u = (mix64((q + GOLDEN) mod 2^64) >> 11) * 2^-53 in [0, 1), mapped to
(2u - 1) * f_meas.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic
from . import grid as gridmod
from .grid import GridSpec, NumericalError
from .units import MeasurementConfig, Scales

GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Default grid of grid-engine trials: lighter than the solver default
# because each trial only needs the sign of a mean displacement, which the
# stepping reproduces exactly at any stable dt.
MC_GRID = GridSpec(half_length=20.0, n=512, dt=4e-3)

# Trials per block. A grid block of B trials is one (B, 2, n) array; per
# trial cost on MC_GRID is flat from B=16 to 64 and rises from B=128, and the
# point cap keeps a block of a fine grid as small as one of MC_GRID. The
# analytic cap bounds the sampler's arrays whatever the trial count.
GRID_BLOCK = 64
GRID_BLOCK_POINTS = GRID_BLOCK * MC_GRID.n
ANALYTIC_BLOCK = 2**16


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK64
    z ^= z >> 31
    return z


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, bit-identical to the scalar version."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def trial_seed(master_seed: int, index: int) -> int:
    """Seed of trial `index`: output `index` of the splitmix64 stream."""
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index!r}")
    return mix64((master_seed + (index + 1) * GOLDEN) & _MASK64)


def sample_fdiv(seed: int, f_meas: float) -> float:
    """The frozen diverting force for one trial, uniform on [-f_meas, +f_meas)."""
    u = (mix64((seed + GOLDEN) & _MASK64) >> 11) * 2.0**-53
    return (2.0 * u - 1.0) * f_meas


def _sample_fdiv_block(master_seed: int, start: int, stop: int,
                       f_meas: float) -> np.ndarray:
    """Vectorized sample_fdiv(trial_seed(master_seed, i)) for i in [start, stop)."""
    idx = np.arange(start, stop, dtype=np.uint64)
    seeds = _mix64_array(np.uint64(master_seed & _MASK64) + (idx + np.uint64(1)) * np.uint64(GOLDEN))
    bits = _mix64_array(seeds + np.uint64(GOLDEN))
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (2.0 * u - 1.0) * f_meas


@dataclass(frozen=True)
class McSummary:
    n_trials: int
    n_right: int
    n_left: int
    n_undecided: int
    frequency: float        # right outcomes over decided trials
    ci_low: float
    ci_high: float
    master_seed: int
    engine: str

    def to_dict(self) -> dict:
        # frequency is nan when every trial was undecided; JSON gets null
        freq = self.frequency if math.isfinite(self.frequency) else None
        return {
            "n_trials": self.n_trials,
            "counts": {"right": self.n_right, "left": self.n_left,
                       "undecided": self.n_undecided},
            "frequency_right": freq,
            "wilson_ci_95": [self.ci_low, self.ci_high],
            "master_seed": self.master_seed,
            "engine": self.engine,
        }


@dataclass(frozen=True)
class TwoDetectorTable:
    """Joint detector-firing probabilities (both, right only, left only, neither
    in the (+,+), (+,-), (-,+), (-,-) order) for the mean-field model next to
    the standard quantum reference."""

    p: float
    model_probs: tuple[float, float, float, float]
    born_probs: tuple[float, float, float, float]

    def to_dict(self) -> dict:
        return {"p": self.p,
                "model_probs": list(self.model_probs),
                "born_probs": list(self.born_probs)}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1.0 - phat) / trials
                           + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _dimensionless_setup(cfg: MeasurementConfig,
                         scales: Scales | None) -> tuple[float, float]:
    """(f_meas, tau) in packet units; cfg values pass through when no scales."""
    if scales is None:
        return cfg.f_meas, cfg.tau_meas
    return cfg.f_meas / scales.force, cfg.tau_meas / scales.time


def _tally(values: np.ndarray) -> tuple[int, int, int]:
    """(right, left, undecided): values > 0, < 0, and neither (0 or nan)."""
    right = int(np.count_nonzero(values > 0.0))
    left = int(np.count_nonzero(values < 0.0))
    return right, left, len(values) - right - left


def _grid_displacements(p: float, f_meas: float, f_div: np.ndarray, tau: float,
                        grid_spec: GridSpec, first: int) -> np.ndarray:
    """Mean displacement of each trial of one block, trial first + b under
    f_div[b], started from rest at the equilibrium splitting so the motion
    reflects the total force alone."""
    d_plus, d_minus, _ = analytic.equilibrium_splitting(p, f_meas)
    psi = np.stack([gridmod.init_gaussian(grid_spec, d_plus),
                    gridmod.init_gaussian(grid_spec, d_minus)])
    try:
        # no run takes more than MAX_STEPS steps, so only its ends are sampled
        traj, _, _ = gridmod.evolve_block(
            np.repeat(psi[None], len(f_div), axis=0), p, f_meas, f_div, tau,
            grid_spec, sample_every=gridmod.MAX_STEPS)
    except NumericalError as exc:
        raise NumericalError(f"trial {first + exc.row}: {exc}", exc.row) from exc
    return traj.xbar[-1] - traj.xbar[0]


def run_trial(cfg: MeasurementConfig, engine: str = "analytic",
              seed: int = 0, *, scales: Scales | None = None,
              grid: GridSpec = MC_GRID,
              f_div: float | None = None, index: int = 0) -> float:
    """Mean displacement of one measurement trial under a frozen diverting
    force; _tally turns it into an outcome.

    The analytic engine gives the closed form F tau^2 / 2, whose sign is
    that of the total force F for any duration. The grid engine evolves the
    equilibrium state from rest to tau, as a block of one, and gives the
    displacement it actually measures. f_div (dimensionless) can be forced
    explicitly for boundary tests; otherwise it is sampled from the trial
    seed, which requires the config's uniform diverting-force kind.
    """
    if engine not in ("analytic", "grid"):
        raise ValueError(f"engine must be 'analytic' or 'grid', got {engine!r}")
    f_meas, tau = _dimensionless_setup(cfg, scales)
    if f_div is None:
        if cfg.f_div.kind != "uniform":
            raise ValueError(
                "sampled trials need F_div kind 'uniform'; pass f_div explicitly "
                "to force a value")
        f_div = sample_fdiv(seed, f_meas)
    if engine == "analytic":
        return 0.5 * analytic.total_force(cfg.p, f_meas, f_div) * tau * tau
    return float(_grid_displacements(cfg.p, f_meas, np.array([float(f_div)]),
                                     tau, grid, index)[0])


def _grid_block(grid_spec: GridSpec) -> int:
    """Trials per grid block: GRID_BLOCK, fewer on grids so fine that the
    block would hold more than GRID_BLOCK_POINTS points per branch."""
    return max(1, min(GRID_BLOCK, GRID_BLOCK_POINTS // grid_spec.n))


def _chunk_counts(args) -> tuple[int, int, int]:
    """(right, left, undecided) over one contiguous index range, walked in
    blocks so that memory does not grow with the range."""
    cfg, engine, master_seed, start, stop, scales, grid_spec = args
    f_meas, tau = _dimensionless_setup(cfg, scales)
    block = ANALYTIC_BLOCK if engine == "analytic" else _grid_block(grid_spec)
    counts = (0, 0, 0)
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        f_div = _sample_fdiv_block(master_seed, lo, hi, f_meas)
        if engine == "analytic":
            values = analytic.total_force(cfg.p, f_meas, f_div)
        else:
            values = _grid_displacements(cfg.p, f_meas, f_div, tau, grid_spec, lo)
        counts = tuple(a + b for a, b in zip(counts, _tally(values)))
    return counts


def run_ensemble(cfg: MeasurementConfig, engine: str, n_trials: int,
                 master_seed: int, workers: int = 1, *,
                 scales: Scales | None = None,
                 grid: GridSpec = MC_GRID) -> McSummary:
    """Run n_trials independent trials and tally outcomes.

    Counts are a pure function of (cfg, engine, n_trials, master_seed):
    trial i always uses trial_seed(master_seed, i) and evolves on its own
    row of a block, so worker count, chunking and blocking cannot change the
    result. Undecided trials stay in the tally;
    the frequency denominator excludes them.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials!r}")
    if engine not in ("analytic", "grid"):
        raise ValueError(f"engine must be 'analytic' or 'grid', got {engine!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if cfg.f_div.kind != "uniform":
        raise ValueError("ensembles need F_div kind 'uniform'")

    # one chunk per worker: trials of an engine all cost the same, and a
    # grid block of few trials costs more per trial than one of many
    chunk = math.ceil(n_trials / workers)
    bounds = [(s, min(s + chunk, n_trials)) for s in range(0, n_trials, chunk)]
    jobs = [(cfg, engine, master_seed, start, stop, scales, grid)
            for start, stop in bounds]
    if len(jobs) == 1:
        parts = [_chunk_counts(jobs[0])]
    else:
        # the pool forks its workers at the first submit; no more than CPUs
        size = min(workers, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            parts = list(pool.map(_chunk_counts, jobs))

    right = sum(p[0] for p in parts)
    left = sum(p[1] for p in parts)
    undecided = sum(p[2] for p in parts)
    decided = n_trials - undecided
    frequency = right / decided if decided else math.nan
    ci_low, ci_high = wilson_interval(right, decided)
    return McSummary(n_trials=n_trials, n_right=right, n_left=left,
                     n_undecided=undecided, frequency=frequency,
                     ci_low=ci_low, ci_high=ci_high,
                     master_seed=master_seed, engine=engine)


def two_detector_table(p: float) -> TwoDetectorTable:
    """Joint firing probabilities when each branch drives its own detector.

    The mean-field model makes the two detectors statistically independent,
    giving (p(1-p), p^2, (1-p)^2, (1-p)p); the standard quantum answer is
    perfectly anti-correlated, (0, p, 1-p, 0). The tables agree only in the
    deterministic limits p = 0 and p = 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    q = 1.0 - p
    return TwoDetectorTable(p=p,
                            model_probs=(p * q, p * p, q * q, q * p),
                            born_probs=(0.0, p, q, 0.0))
