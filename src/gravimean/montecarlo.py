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
(2u - 1) * f_meas. _sample_fdiv_block is the one implementation, on uint64
arrays; tests/oracles.py holds the same spec on Python integers as its
bit-exact reference.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic
from . import grid as gridmod
from .grid import GridSpec, NumericalError
from .units import PACKET_SCALES, MeasurementConfig, Scales

GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Default grid of grid-engine trials: lighter than the solver default
# because each trial reads only its weighted mean displacement. Under the
# Strang split the midpoint kick on the weighted mean is exactly F dt
# whatever xbar is, so the mean follows xbar0 + vbar0 t + F t^2/2 step by
# step at any stable dt (Strang 1968; the rigid translation of
# _mapped_displacements). Hence dt 0.1, 10 steps at tau = 1: every guard
# still reads every midpoint and step end. Against dt 4e-3 the ensemble
# counts are the same, and the largest |evolved - mapped| / max(1,
# |F tau^2/2|) over 64 directly evolved trials falls about tenfold, as
# fewer steps round less: 7.8e-15 -> 8.9e-16 at tau = 1, 3.2e-14 -> 2.0e-15
# at tau = 2, 1.5e-13 -> 1.0e-14 at tau = 4 (n 2048, half_length 40).
MC_GRID = GridSpec(half_length=20.0, n=512, dt=0.1)

# Trials per block, for both engines: it bounds the sampler's arrays
# whatever the trial count. A grid block evolves three rows whatever its
# size (_mapped_displacements).
BLOCK = 2**16

# Most trials an ensemble may hold, 1000 times the 10^6-trial analytic
# ensemble: about 1.5e4 blocks, so the cap bounds the time a run takes.
MAX_TRIALS = 10**9

# Largest |evolved - mapped| displacement of a directly evolved trial,
# relative to max(1, |F tau^2 / 2|): the map is exact, and the roundoff of
# an evolved mean grows with its excursion. A grid trial with |d| <= MAP_RTOL
# is undecided: its sign is below the map's resolution.
MAP_RTOL = 1e-12


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array, mod 2^64."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def _sample_fdiv_block(master_seed: int, start: int, stop: int,
                       f_meas: float) -> np.ndarray:
    """The frozen diverting forces of trials [start, stop) of master_seed,
    uniform on [-f_meas, +f_meas): the seed stream of the module docstring."""
    idx = np.arange(start, stop, dtype=np.uint64)
    seeds = _mix64(np.uint64(master_seed & _MASK64) + (idx + np.uint64(1)) * np.uint64(GOLDEN))
    bits = _mix64(seeds + np.uint64(GOLDEN))
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


def _tally(values: np.ndarray, tol: float = 0.0) -> tuple[int, int, int]:
    """(right, left, undecided): values > tol, < -tol, and neither
    (|value| <= tol or nan)."""
    right = int(np.count_nonzero(values > tol))
    left = int(np.count_nonzero(values < -tol))
    return right, left, len(values) - right - left


def _evolve_trials(p: float, f_meas: float, f_div: np.ndarray, tau: float,
                   grid_spec: GridSpec, trials: Sequence[int]) -> np.ndarray:
    """Mean displacement of trials[b] under f_div[b], every row evolved in
    one block from the closed form's smooth state, at rest at the
    equilibrium splitting, so the motion reflects the total force alone. A
    numerical failure names its trial."""
    start = gridmod.init_state(grid_spec,
                               analytic.smooth_initial_condition(p, f_meas))
    try:
        # sampled every MAX_STEPS steps, more than any run takes: only its ends
        traj, _, _ = gridmod.evolve_block(
            np.repeat(gridmod._rows(start), len(f_div), axis=0),
            p, f_meas, f_div, tau, grid_spec, gridmod.MAX_STEPS)
    except NumericalError as exc:
        # the core's own error, every field kept, its message led by the trial
        exc.args = (f"trial {trials[exc.row]}: {exc}",)
        raise
    return traj.xbar[-1] - traj.xbar[0]


def _mapped_displacements(p: float, f_meas: float, f_div: np.ndarray,
                          tau: float, grid_spec: GridSpec, first: int,
                          f_ref: float) -> np.ndarray:
    """Mean displacement of each trial of one block, trial first + b under
    f_div[b], from three evolved rows and the Avron-Herbst map.

    The self-gravity potential depends on x - xbar only, so a uniform force
    moves the two-branch state rigidly: trial b's value is the reference
    trial 0's d_ref, under f_ref, plus (f_div[b] - f_ref) tau^2 / 2,
    elementwise. d_ref comes from row 0 of a three-row block in every block,
    and no operation mixes rows, so the value does not depend on the block
    or chunk. The block's trials of smallest and largest f_div are evolved
    too and must match their mapped value to MAP_RTOL. Every trial starts
    from rest, so the closed-form box and momentum bounds are affine in F
    and peak at those two rows: their pre-flights and guards cover the block.
    """
    lo, hi = int(np.argmin(f_div)), int(np.argmax(f_div))
    trials = (0, first + lo, first + hi)
    evolved = _evolve_trials(p, f_meas, np.array([f_ref, f_div[lo], f_div[hi]]),
                             tau, grid_spec, trials)
    half_tau2 = 0.5 * tau * tau
    mapped = evolved[0] + (f_div - f_ref) * half_tau2
    for row, b in ((1, lo), (2, hi)):
        reach = abs(analytic.total_force(p, f_meas, f_div[b])) * half_tau2
        residual = abs(evolved[row] - mapped[b])
        bound = MAP_RTOL * max(1.0, reach)
        if not residual <= bound:
            raise NumericalError(
                f"trial {trials[row]}: evolved displacement {evolved[row]!r} "
                f"differs from its mapped value {mapped[b]!r} by more than "
                f"{MAP_RTOL:g} x max(1, |F tau^2/2|)", row, quantity="map",
                value=residual, limit=bound)
    return mapped


def run_trial(cfg: MeasurementConfig, engine: str, seed: int, *,
              index: int = 0) -> float:
    """Mean displacement of trial index of master seed seed under its frozen
    diverting force, drawn as the ensemble draws it; _tally turns it into an
    outcome. cfg holds dimensionless values, with the uniform diverting-force
    kind.

    The analytic engine gives the closed form F tau^2 / 2, whose sign is
    that of the total force F for any duration. The grid engine evolves the
    equilibrium state from rest to tau on MC_GRID, as a block of one, and
    gives the displacement it actually measures.
    """
    if engine not in ("analytic", "grid"):
        raise ValueError(f"engine must be 'analytic' or 'grid', got {engine!r}")
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index!r}")
    if cfg.f_div.kind != "uniform":
        raise ValueError("sampled trials need F_div kind 'uniform'")
    f_meas, tau = cfg.f_meas, cfg.tau_meas
    f_div = _sample_fdiv_block(seed, index, index + 1, f_meas)
    if engine == "grid":
        return float(_evolve_trials(cfg.p, f_meas, f_div, tau, MC_GRID,
                                    (index,))[0])
    force = analytic.total_force(cfg.p, f_meas, float(f_div[0]))
    return 0.5 * force * tau * tau


def _chunk_counts(args) -> tuple[int, int, int]:
    """(right, left, undecided) over one contiguous index range, walked in
    blocks of BLOCK trials so that memory does not grow with the range.
    p, f_meas and tau are in packet units."""
    p, f_meas, tau, engine, master_seed, start, stop, grid_spec = args
    f_ref = _sample_fdiv_block(master_seed, 0, 1, f_meas)[0]
    tol = 0.0 if engine == "analytic" else MAP_RTOL
    counts = (0, 0, 0)
    for lo in range(start, stop, BLOCK):
        hi = min(lo + BLOCK, stop)
        f_div = _sample_fdiv_block(master_seed, lo, hi, f_meas)
        if engine == "analytic":
            values = analytic.total_force(p, f_meas, f_div)
        else:
            values = _mapped_displacements(p, f_meas, f_div, tau,
                                           grid_spec, lo, f_ref)
        counts = tuple(a + b for a, b in zip(counts, _tally(values, tol)))
    return counts


def _job_bounds(n_trials: int, workers: int,
                cpus: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) trial ranges, one per job, made of whole
    blocks: at most one job per worker, per CPU and per block, and each job
    but the last holds ceil(blocks / jobs) blocks.

    A grid block costs three evolved rows whatever its size, so a block
    split between two jobs, or a job per worker on a one-block ensemble,
    only evolves the same rows again.
    """
    blocks = math.ceil(n_trials / BLOCK)
    jobs = min(workers, cpus, blocks)
    span = math.ceil(blocks / jobs) * BLOCK
    return [(s, min(s + span, n_trials)) for s in range(0, n_trials, span)]


def run_ensemble(cfg: MeasurementConfig, engine: str, n_trials: int,
                 master_seed: int, workers: int = 1, *,
                 scales: Scales = PACKET_SCALES,
                 grid: GridSpec = MC_GRID) -> McSummary:
    """Run n_trials independent trials and tally outcomes.

    Counts are a pure function of (cfg, engine, n_trials, master_seed):
    trial i always draws its force from trial_seed(master_seed, i), and its
    value depends on that force alone (on the grid, through the map from
    trial 0 of _mapped_displacements), so worker count, chunking and
    blocking cannot change the result. Undecided trials stay in the tally;
    the frequency denominator excludes them. workers is a cap: the jobs are
    planned in whole blocks (_job_bounds), and a single job runs in this
    process.

    cfg's f_meas and tau_meas are divided by scales here, once: every job
    carries packet units, and the default PACKET_SCALES reads cfg as such.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"--trials: n_trials must be in [1, {MAX_TRIALS}], "
                         f"got {n_trials!r}")
    if engine not in ("analytic", "grid"):
        raise ValueError(f"engine must be 'analytic' or 'grid', got {engine!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if cfg.f_div.kind != "uniform":
        raise ValueError('F_div.kind: an ensemble needs {"kind": "uniform"}; '
                         'the fixed kind is for deterministic evolution')

    f_meas, tau = cfg.f_meas / scales.force, cfg.tau_meas / scales.time
    jobs = [(cfg.p, f_meas, tau, engine, master_seed, start, stop, grid)
            for start, stop in _job_bounds(n_trials, workers,
                                           os.cpu_count() or 1)]
    if len(jobs) == 1:
        parts = [_chunk_counts(jobs[0])]
    else:
        # the pool forks its workers at the first submit
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            parts = list(pool.map(_chunk_counts, jobs))

    right, left, undecided = map(sum, zip(*parts))
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
