"""Trial seeding, the diverting-force sampler, and outcome statistics.

The seed derivation has public reference vectors: feeding 0 to the seeding
scheme reproduces the first outputs of the well-known splitmix64 stream, so
those literals pin the scalar reference of tests/oracles.py bit for bit, and
the block sampler montecarlo._sample_fdiv_block must match that reference.
The Born check has a closed-form oracle: f_total = 2(p-1/2)f + U(-f, f) is
positive with probability exactly p, verified here independently by
quadrature.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from gravimean import montecarlo
from gravimean import grid as gridmod
from gravimean.analytic import (smooth_initial_condition, total_force,
                                trajectory)
from gravimean.montecarlo import (BLOCK, MAP_RTOL, MAX_TRIALS, MC_GRID,
                                  McSummary, _tally, run_ensemble, run_trial,
                                  two_detector_table, wilson_interval)
from gravimean.grid import GridSpec, NumericalError
from gravimean.units import (ApparatusParams, FdivSpec, MeasurementConfig,
                             Scales)

from oracles import grid_displacements, mix64, sample_fdiv, trial_seed


def dimensionless_cfg(p, f_meas=1.0, tau=1.0, kind="uniform", value=0.0):
    return MeasurementConfig(p=p, f_meas=f_meas, tau_meas=tau, l0=0.1,
                             f_div=FdivSpec(kind, value))


class TestSeeding:
    def test_splitmix64_reference_vectors(self):
        # first three outputs of the splitmix64 stream seeded with 0
        assert trial_seed(0, 0) == 16294208416658607535
        assert trial_seed(0, 1) == 7960286522194355700
        assert trial_seed(0, 2) == 487617019471545679

    def test_frozen_values(self):
        assert trial_seed(5, 7) == 9428158358266441515
        assert trial_seed(2024, 0) == 11487996472437173461

    def test_distinct_and_deterministic(self):
        seeds = [trial_seed(123, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert seeds == [trial_seed(123, i) for i in range(1000)]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed(0, -1)

    def test_mix64_is_64_bit(self):
        for z in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(z) < 2**64


class TestSampler:
    def test_frozen_samples(self):
        assert sample_fdiv(trial_seed(0, 0), 1.0) == pytest.approx(
            0.3048969727480644, abs=1e-16)
        assert sample_fdiv(trial_seed(42, 1), 2.0) == pytest.approx(
            1.9468450044300116, abs=1e-16)

    def test_support(self):
        f = 1.7
        draws = np.array([sample_fdiv(trial_seed(9, i), f)
                          for i in range(5000)])
        assert np.all(draws > -f)
        assert np.all(draws < f)

    def test_uniform_moments(self):
        f = 1.0
        n = 100_000
        draws = np.array([sample_fdiv(trial_seed(31, i), f)
                          for i in range(n)])
        # mean 0 with sd f/sqrt(3n); variance f^2/3
        assert abs(np.mean(draws)) < 4.0 * f / math.sqrt(3 * n)
        assert np.var(draws) == pytest.approx(f * f / 3.0, rel=0.02)
        assert np.mean(draws > 0) == pytest.approx(0.5, abs=0.01)

    def test_scales_with_f_meas(self):
        s = trial_seed(4, 4)
        assert sample_fdiv(s, 2.0) == pytest.approx(2.0 * sample_fdiv(s, 1.0),
                                                    rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(master=st.one_of(st.integers(-2**70, 2**70),
                            st.integers(-5, 5)),
           start=st.integers(0, 10**9), size=st.integers(1, 40),
           f_meas=st.floats(0.0, 1e6))
    def test_block_sampler_matches_reference(self, master, start, size,
                                             f_meas):
        # masters negative, beyond 2^64 and small: the block draws what the
        # scalar reference draws, trial for trial and bit for bit
        got = montecarlo._sample_fdiv_block(master, start, start + size,
                                            f_meas)
        want = [sample_fdiv(trial_seed(master, i), f_meas)
                for i in range(start, start + size)]
        assert got.tolist() == want


class TestBornMechanism:
    def test_positive_force_probability_is_p(self):
        # quadrature oracle: P(2(p-1/2)f + u > 0), u uniform on (-f, f)
        f = 1.0
        u = (np.arange(2_000_000) + 0.5) / 2_000_000 * 2 * f - f
        for p in (0.1, 0.25, 0.5, 0.8):
            quad = np.mean(2.0 * (p - 0.5) * f + u > 0.0)
            assert quad == pytest.approx(p, abs=1e-5)
            # closed form: the threshold -2(p-1/2)f cuts the support at p
            assert (f - (-2.0 * (p - 0.5) * f)) / (2.0 * f) == pytest.approx(p)

    def test_tally(self):
        # right, left, undecided: a zero of either sign and NaN decide nothing
        values = np.array([0.3, -1e-9, 0.0, -0.0, np.nan])
        assert _tally(values) == (1, 1, 3)
        assert [_tally(values[i:i + 1]) for i in range(5)] == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 1)]
        # a tolerance widens the undecided band to |value| <= tol
        assert _tally(values, 1e-9) == (1, 0, 4)


class TestRunTrial:
    def test_certain_outcome(self):
        cfg = dimensionless_cfg(1.0)
        for i in range(20):
            assert run_trial(cfg, "analytic", 1, index=i) > 0.0  # f + u > 0

    def test_draws_trial_index_of_master_seed(self):
        cfg = dimensionless_cfg(0.6, tau=2.0)
        force = sample_fdiv(trial_seed(42, 1), 1.0)
        assert run_trial(cfg, "analytic", 42, index=1) == (
            0.5 * total_force(0.6, 1.0, force) * 4.0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="trial index must be >= 0"):
            run_trial(dimensionless_cfg(0.5), "analytic", 0, index=-1)

    # The analytic ensemble tallies the total force F of each trial, whose
    # sign is that of its displacement F tau^2 / 2: the boundary tests force
    # f_div into analytic.total_force, as _chunk_counts calls it.
    def test_forced_tie_is_undecided(self):
        # p = 0.75 makes the measurement part exactly 0.5 in binary, so the
        # forced diverting force -0.5 yields a representable exact tie
        force = total_force(0.75, 1.0, np.array([-0.5]))
        assert 0.5 * force[0] == 0.0
        assert _tally(force) == (0, 0, 1)

    def test_forced_near_tie(self):
        near = total_force(0.75, 1.0, np.array([-0.49, -0.51]))
        # the displacement F tau^2 / 2 at tau = 1
        assert 0.5 * near == pytest.approx([0.005, -0.005], abs=1e-15)
        assert _tally(near) == (1, 1, 0)

    def test_displacement_closed_form(self):
        cfg = dimensionless_cfg(0.6, tau=2.0)
        forces = montecarlo._sample_fdiv_block(0, 0, 5, 1.0)
        for i, f_div in enumerate(forces):
            f_total = 2.0 * 0.1 * 1.0 + f_div
            assert run_trial(cfg, "analytic", 0, index=i) == pytest.approx(
                0.5 * f_total * 4.0)

    def test_fixed_kind_refused(self):
        cfg = dimensionless_cfg(0.5, kind="fixed", value=0.2)
        for engine in ("analytic", "grid"):
            with pytest.raises(ValueError, match="F_div kind 'uniform'"):
                run_trial(cfg, engine, 0)
        # deterministic evolution takes the fixed kind, and its force 0.2
        # moves the mean right
        state = smooth_initial_condition(0.5, 1.0)
        assert trajectory(state, 1.0, cfg.f_div.value, [1.0])["xbar"][0] > 0.0

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            run_trial(dimensionless_cfg(0.5), "exact", 0)

    def test_engines_agree_on_outcomes(self):
        # same seeds, sign of the measured grid displacement, on MC_GRID,
        # must match the analytic one whenever the force is not razor thin
        cfg = dimensionless_cfg(0.6, tau=0.5)
        checked = 0
        for i in range(12):
            ana = run_trial(cfg, "analytic", 77, index=i)
            if abs(ana) < 0.5 * 1e-3 * 0.5**2:  # |F| < 1e-3
                continue
            gr = run_trial(cfg, "grid", 77, index=i)
            assert np.sign(gr) == np.sign(ana)
            assert gr == pytest.approx(ana, abs=1e-6)
            checked += 1
        assert checked >= 8


class TestEnsembles:
    def test_born_frequency_large_n(self):
        summary = run_ensemble(dimensionless_cfg(0.7), "analytic", 100_000,
                               master_seed=2024)
        assert summary.n_trials == 100_000
        assert abs(summary.frequency - 0.7) < 4.0 * math.sqrt(0.21 / 1e5)
        assert summary.ci_low < 0.7 < summary.ci_high

    def test_born_frequency_p_half(self):
        summary = run_ensemble(dimensionless_cfg(0.5), "analytic", 10_000,
                               master_seed=7)
        assert abs(summary.frequency - 0.5) < 0.02

    def test_counts_sum(self):
        s = run_ensemble(dimensionless_cfg(0.3), "analytic", 5000,
                         master_seed=5)
        assert s.n_right + s.n_left + s.n_undecided == s.n_trials
        assert s.engine == "analytic"
        assert s.master_seed == 5

    def test_worker_counts_identical(self):
        ref = run_ensemble(dimensionless_cfg(0.4), "analytic", 3000,
                           master_seed=99, workers=1)
        for workers in (2, 4, 8):
            s = run_ensemble(dimensionless_cfg(0.4), "analytic", 3000,
                             master_seed=99, workers=workers)
            assert (s.n_right, s.n_left, s.n_undecided) == (
                ref.n_right, ref.n_left, ref.n_undecided)

    def test_vectorized_matches_scalar_trials(self):
        # the ensemble's blocks and run_trial, one trial at a time, must
        # pick identical forces trial for trial
        cfg = dimensionless_cfg(0.55)
        n = 500
        summary = run_ensemble(cfg, "analytic", n, master_seed=321)
        values = np.array([run_trial(cfg, "analytic", 321, index=i)
                           for i in range(n)])
        assert (summary.n_right, summary.n_left, summary.n_undecided) == (
            _tally(values))

    def test_all_undecided_kept(self):
        # f_meas = 0 makes every total force exactly zero: nothing is
        # dropped, the frequency is undefined, the interval is vacuous
        summary = run_ensemble(dimensionless_cfg(0.5, f_meas=0.0), "analytic",
                               100, master_seed=1)
        assert summary.n_undecided == 100
        assert math.isnan(summary.frequency)
        assert (summary.ci_low, summary.ci_high) == (0.0, 1.0)
        assert summary.to_dict()["frequency_right"] is None

    def test_zero_force_undecided_on_both_engines(self):
        # f_meas = 0: every total force is 0, and every mapped grid
        # displacement is roundoff of about 1e-14, below MAP_RTOL
        cfg = dimensionless_cfg(0.5, f_meas=0.0)
        for engine in ("analytic", "grid"):
            summary = run_ensemble(cfg, engine, 40, master_seed=0)
            assert (summary.n_right, summary.n_left, summary.n_undecided) == (
                0, 0, 40)
            assert summary.to_dict()["frequency_right"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ensemble(dimensionless_cfg(0.5), "analytic", 0, master_seed=0)
        with pytest.raises(ValueError):
            run_ensemble(dimensionless_cfg(0.5), "wrong", 10, master_seed=0)
        with pytest.raises(ValueError):
            run_ensemble(dimensionless_cfg(0.5), "analytic", 10,
                         master_seed=0, workers=0)
        with pytest.raises(ValueError):
            run_ensemble(dimensionless_cfg(0.5, kind="fixed", value=0.1),
                         "analytic", 10, master_seed=0)

    @pytest.mark.parametrize("n_trials, workers, bounds", [
        (16, 2, [(0, 16)]),
        (2 * BLOCK + 5, 2, [(0, 2 * BLOCK), (2 * BLOCK, 2 * BLOCK + 5)]),
        (5 * BLOCK, 4, [(0, 2 * BLOCK), (2 * BLOCK, 4 * BLOCK),
                        (4 * BLOCK, 5 * BLOCK)]),
    ])
    def test_jobs_hold_whole_blocks_and_no_idle_workers(
            self, monkeypatch, n_trials, workers, bounds):
        # one block on two workers is one job and no pool; five blocks on
        # four workers are three jobs of 2, 2 and 1 blocks
        check_job_plan(monkeypatch, n_trials, workers, 64, bounds)

    def test_pool_no_larger_than_the_cpus(self, monkeypatch):
        # four workers asked for on two CPUs: two jobs and two processes
        check_job_plan(monkeypatch, 4 * BLOCK, 4, 2,
                       [(0, 2 * BLOCK), (2 * BLOCK, 4 * BLOCK)])

    def test_workers_beyond_the_cpus_cut_no_chunks(self, monkeypatch):
        # a million workers asked for on two CPUs cost two jobs of eight
        # blocks each, not a million
        check_job_plan(monkeypatch, 10**6, 10**6, 2,
                       [(0, 8 * BLOCK), (8 * BLOCK, 10**6)])

    def test_grid_rows_evolved_once_per_block(self, monkeypatch):
        check_grid_rows_once_per_block(monkeypatch)

    def test_trials_cap(self, monkeypatch):
        # nothing runs: each job's counts come from a stub
        jobs = []

        def stub(job):
            jobs.append(job)
            return job[6] - job[5], 0, 0

        monkeypatch.setattr(montecarlo, "_chunk_counts", stub)
        cfg = dimensionless_cfg(0.5)
        with pytest.raises(ValueError, match="--trials"):
            run_ensemble(cfg, "analytic", MAX_TRIALS + 1, master_seed=0)
        assert jobs == []
        assert run_ensemble(cfg, "analytic", MAX_TRIALS,
                            master_seed=0).n_right == MAX_TRIALS

    def test_si_config_read_through_scales(self):
        # tau is 0.5 in packet units: run_ensemble divides f_meas and tau by
        # the scales once, and the grid counts are those of the packet-unit
        # config
        scales = Scales.from_apparatus(ApparatusParams.derive(radius=1e-3,
                                                              density=1e4))
        si = MeasurementConfig(p=0.6, f_meas=1.3 * scales.force,
                               tau_meas=0.5 * scales.time, l0=1e-9)
        packet = replace(si, f_meas=si.f_meas / scales.force,
                         tau_meas=si.tau_meas / scales.time)
        assert packet.tau_meas != 1.0
        got = run_ensemble(si, "grid", 40, master_seed=3, scales=scales,
                           grid=SMALL_GRID)
        want = run_ensemble(packet, "grid", 40, master_seed=3, grid=SMALL_GRID)
        assert got.to_dict() == want.to_dict()

    def test_grid_engine_small_ensemble(self):
        summary = run_ensemble(dimensionless_cfg(0.8, tau=0.5), "grid", 40,
                               master_seed=11,
                               grid=GridSpec(half_length=12.0, n=256, dt=4e-3))
        assert summary.n_trials == 40
        assert summary.engine == "grid"
        # p = 0.8 leans right; with 40 trials expect a clear majority
        assert summary.n_right > summary.n_left

    @pytest.mark.parametrize("p, f_meas, tau", [
        (0.1, 1.0, 1.0), (0.3, 0.5, 1.0), (0.5, 1.0, 4.0), (0.7, 1.5, 1.0),
        (0.9, 1.0, 2.0), (0.7, 1.0, 0.3)])
    def test_grid_counts_independent_of_step(self, p, f_meas, tau):
        # the Strang step moves the weighted mean exactly at any stable dt,
        # so MC_GRID's coarse step counts as a fine one does
        summaries = [
            run_ensemble(dimensionless_cfg(p, f_meas, tau), "grid", 2000,
                         master_seed=77, grid=GridSpec(20.0, 512, dt))
            for dt in (4e-3, MC_GRID.dt, 0.5)]
        assert len({(s.n_right, s.n_left, s.n_undecided)
                    for s in summaries}) == 1


# Small grid for block tests: 125 steps of 128 points per trial.
SMALL_GRID = GridSpec(half_length=12.0, n=128, dt=4e-3)


def install_stub_pool(monkeypatch, cpus):
    """Make run_ensemble see a machine of cpus CPUs and a stub pool that
    runs the jobs in this process and records what a real one would get;
    no worker process is started. Returns the list of pools made."""
    pools = []

    class StubPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            self.bounds = [(job[5], job[6]) for job in jobs]
            return [fn(job) for job in jobs]

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    return pools


def counts_at(workers, n_trials, engine="analytic"):
    s = run_ensemble(dimensionless_cfg(0.4, tau=0.5), engine, n_trials,
                     master_seed=7, workers=workers, grid=SMALL_GRID)
    return s.n_right, s.n_left, s.n_undecided


def check_job_plan(monkeypatch, n_trials, workers, cpus, bounds):
    """On cpus CPUs, the ensemble's jobs are bounds, one pool worker each,
    and its counts are those of one worker; a single job runs in this
    process and makes no pool."""
    pools = install_stub_pool(monkeypatch, cpus)
    assert counts_at(workers, n_trials) == counts_at(1, n_trials)
    if len(bounds) == 1:
        assert pools == []
    else:
        (pool,) = pools
        assert pool.bounds == bounds
        assert pool.max_workers == len(bounds)


def check_grid_rows_once_per_block(monkeypatch):
    """25 grid trials in blocks of 8 call evolve_block once per block, four
    times, and give the same counts, whatever the worker count."""
    calls = []
    real = gridmod.evolve_block

    def counting(psi, *rest, **kw):
        calls.append(len(psi))
        return real(psi, *rest, **kw)

    install_stub_pool(monkeypatch, 64)
    monkeypatch.setattr(montecarlo, "BLOCK", 8)
    monkeypatch.setattr(gridmod, "evolve_block", counting)
    counts = set()
    for workers in (1, 2, 4, 8):
        calls.clear()
        counts.add(counts_at(workers, 25, "grid"))
        assert calls == [3] * 4, f"workers={workers}"
    assert len(counts) == 1


def chunk_counts(engine, seed, start, stop, p=0.6, grid=SMALL_GRID):
    return montecarlo._chunk_counts((p, 1.0, 0.5, engine, seed, start, stop,
                                     grid))


def grid_chunk(monkeypatch, seed, start, stop):
    """The grid counts over [start, stop) and the values _chunk_counts
    tallied for them, in trial order."""
    values = []
    real = montecarlo._tally

    def recording(block_values, *rest):
        values.append(block_values)
        return real(block_values, *rest)

    monkeypatch.setattr(montecarlo, "_tally", recording)
    counts = chunk_counts("grid", seed, start, stop)
    monkeypatch.setattr(montecarlo, "_tally", real)
    return counts, np.concatenate(values)


@lru_cache(maxsize=None)
def whole_range_counts(engine, seed, n):
    return chunk_counts(engine, seed, 0, n)


@lru_cache(maxsize=None)
def whole_range_grid(seed, n):
    with pytest.MonkeyPatch.context() as mp:
        counts, values = grid_chunk(mp, seed, 0, n)
    return counts, tuple(values)


def map_tolerance(p, f_meas, f_div, tau):
    """MAP_RTOL x max(1, |F tau^2 / 2|), elementwise."""
    reach = np.abs(total_force(p, f_meas, np.asarray(f_div))) * 0.5 * tau * tau
    return MAP_RTOL * np.maximum(1.0, reach)


@st.composite
def partitions(draw, n):
    """[0, n) cut into contiguous chunks at a few random points."""
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=4))
    edges = [0] + sorted(cuts) + [n]
    return list(zip(edges[:-1], edges[1:]))


class TestBlocks:
    """Ensembles walk their index range in bounded blocks; how the range is
    cut into chunks and blocks changes nothing."""

    @staticmethod
    def record_blocks(monkeypatch):
        sizes = []
        real = montecarlo._sample_fdiv_block

        def recording(master_seed, start, stop, f_meas):
            sizes.append(stop - start)
            return real(master_seed, start, stop, f_meas)

        monkeypatch.setattr(montecarlo, "_sample_fdiv_block", recording)
        return sizes

    def test_analytic_blocks_bounded(self, monkeypatch):
        sizes = self.record_blocks(monkeypatch)
        n = 3 * BLOCK + 5
        summary = run_ensemble(dimensionless_cfg(0.4), "analytic", n,
                               master_seed=8)
        # trial 0's reference force first, then the blocks
        assert sizes == [1] + [BLOCK] * 3 + [5]
        assert summary.n_right + summary.n_left + summary.n_undecided == n

    @pytest.mark.parametrize("block, sizes", [(None, [200]),
                                              (64, [64, 64, 64, 8])],
                             ids=["one-block", "block-64"])
    @pytest.mark.parametrize("n_points", [MC_GRID.n, 8 * MC_GRID.n])
    def test_grid_blocks_evolve_three_rows(self, monkeypatch, n_points, block,
                                           sizes):
        # however many trials a block holds and however fine the grid, the
        # core evolves three rows per block
        if block is not None:
            monkeypatch.setattr(montecarlo, "BLOCK", block)
        recorded = self.record_blocks(monkeypatch)
        rows = []
        real = gridmod.evolve_block

        def counting(psi, *rest, **kw):
            rows.append(len(psi))
            return real(psi, *rest, **kw)

        monkeypatch.setattr(gridmod, "evolve_block", counting)
        grid = GridSpec(half_length=20.0, n=n_points, dt=4e-3)
        summary = run_ensemble(dimensionless_cfg(0.5), "grid", 200,
                               master_seed=1, grid=grid)
        assert recorded == [1] + sizes
        assert rows == [3] * len(sizes)
        assert summary.n_right + summary.n_left + summary.n_undecided == 200

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 700),
           data=st.data())
    def test_analytic_counts_independent_of_partition(self, seed, block, data):
        n = 2000
        parts = data.draw(partitions(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "BLOCK", block)
            got = [chunk_counts("analytic", seed, lo, hi) for lo, hi in parts]
        assert tuple(map(sum, zip(*got))) == whole_range_counts("analytic",
                                                                seed, n)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 3), block=st.integers(1, 8), data=st.data())
    def test_grid_counts_independent_of_partition(self, seed, block, data):
        # every trial's mapped value, not only the counts, is the same bit
        # for bit however the range is cut into chunks and blocks
        n = 12
        parts = data.draw(partitions(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "BLOCK", block)
            counts, values = zip(*(grid_chunk(mp, seed, lo, hi)
                                   for lo, hi in parts))
        whole_counts, whole_values = whole_range_grid(seed, n)
        assert np.array_equal(np.concatenate(values), whole_values)
        assert tuple(map(sum, zip(*counts))) == whole_counts

    def test_block_displacements_match_single_rows(self):
        # each trial evolved alone, as a block of one, as run_trial does
        n = 16
        f_div = montecarlo._sample_fdiv_block(77, 0, n, 1.0)
        ref = np.concatenate([
            grid_displacements(0.6, 1.0, f_div[i:i + 1], 0.5, SMALL_GRID, i)
            for i in range(n)])
        for block in (1, 3, 16):
            got = np.concatenate([
                grid_displacements(0.6, 1.0, f_div[lo:lo + block], 0.5,
                                   SMALL_GRID, lo)
                for lo in range(0, n, block)])
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_block_displacements_bit_identical(self):
        f_div = montecarlo._sample_fdiv_block(3, 0, 64, 1.0)
        whole = grid_displacements(0.6, 1.0, f_div, 0.5, SMALL_GRID, 0)
        for block in (1, 2, 3, 5, 16):
            got = np.concatenate([
                grid_displacements(0.6, 1.0, f_div[lo:lo + block], 0.5,
                                   SMALL_GRID, lo)
                for lo in range(0, 64, block)])
            assert np.array_equal(got, whole), block

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.05, 0.95), f_meas=st.floats(0.1, 2.0),
           u_ref=st.floats(-1.0, 1.0),
           u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    def test_mapped_match_evolved(self, p, f_meas, u_ref, u):
        # the map from the reference trial gives what evolving every trial
        # directly gives
        f_div = f_meas * np.array(u)
        tau = 1.0
        mapped = montecarlo._mapped_displacements(p, f_meas, f_div, tau,
                                                  MC_GRID, 5, f_meas * u_ref)
        evolved = grid_displacements(p, f_meas, f_div, tau, MC_GRID, 5)
        assert np.all(np.abs(mapped - evolved)
                      <= map_tolerance(p, f_meas, f_div, tau))

    @pytest.mark.parametrize("row, trial", [(1, 7), (2, 5)])
    def test_map_miss_names_trial(self, monkeypatch, row, trial):
        # an extreme row (1 the smallest f_div, 2 the largest) 1e-9 off its
        # mapped value is a numerical failure of that trial
        real = gridmod.evolve_block

        def offset(*args, **kw):
            traj, psi, phase = real(*args, **kw)
            traj.xbar[-1, row] += 1e-9
            return traj, psi, phase

        monkeypatch.setattr(gridmod, "evolve_block", offset)
        f_div = np.array([0.2, -0.1, 0.6, 0.0, -0.3, 0.1])
        with pytest.raises(NumericalError,
                           match=rf"^trial {trial}: evolved displacement "
                           ) as failure:
            montecarlo._mapped_displacements(0.6, 1.0, f_div, 0.5,
                                             SMALL_GRID, 3, 0.25)
        # both rows travel less than 1, so the bound is MAP_RTOL itself
        error = failure.value
        assert (error.row, error.quantity, error.limit) == (row, "map",
                                                            MAP_RTOL)
        assert error.value == pytest.approx(1e-9, abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.05, 0.95), f_meas=st.floats(0.1, 2.0),
           u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    def test_uniform_force_law(self, p, f_meas, u):
        # each trial's mean moves as under the uniform total force alone:
        # d = F tau^2 / 2 with F = 2 (p - 1/2) f_meas + f_div
        f_div = f_meas * np.array(u)
        tau = 1.0
        got = grid_displacements(p, f_meas, f_div, tau, MC_GRID, 0)
        force = 2.0 * (p - 0.5) * f_meas + f_div
        assert np.max(np.abs(got - 0.5 * force * tau * tau)) <= 1e-12

    def test_core_error_reaches_caller_as_raised(self, monkeypatch):
        # the trial's re-raise is the core's own error, every field kept,
        # with the trial of its row leading the message
        raised = NumericalError("plus branch edge", 1, branch="plus", step=3,
                                t=0.25, quantity="edge", value=2e-8,
                                limit=1e-8)

        def failing(*args, **kwargs):
            raise raised

        monkeypatch.setattr(gridmod, "evolve_block", failing)
        with pytest.raises(NumericalError) as failure:
            montecarlo._evolve_trials(0.5, 1.0, np.array([0.0, 0.1]), 1.0,
                                      SMALL_GRID, (0, 7))
        assert failure.value is raised
        assert str(raised) == "trial 7: plus branch edge"
        assert (raised.row, raised.branch, raised.step, raised.t,
                raised.quantity, raised.value, raised.limit) == (
                    1, "plus", 3, 0.25, "edge", 2e-8, 1e-8)

    @staticmethod
    def assert_edge_fields(error, row):
        # the core's fields come through the trial's re-raise unchanged
        assert (error.row, error.branch, error.step, error.t, error.quantity,
                error.limit) == (row, "plus", 478, 478 * 4e-3, "edge", 1e-8)
        assert 1e-8 < error.value < 1.02e-8

    def test_edge_hit_names_trial(self):
        # the branches sit 7 from the mean; trial 11's force carries its mean
        # to 8.8 by t = 2, which the box admits, and its plus branch into
        # the outer 5%, while its neighbours stay clear
        grid = GridSpec(half_length=20.0, n=256, dt=4e-3)
        with pytest.raises(NumericalError,
                           match=r"^trial 11: plus branch density .* outer 5%"
                           ) as failure:
            grid_displacements(0.5, 7.0, np.array([0.0, 4.4, -1.0]), 2.0,
                               grid, 10)
        self.assert_edge_fields(failure.value, 1)
        clear = grid_displacements(0.5, 7.0, np.array([0.0, -1.0]), 2.0,
                                   grid, 10)
        assert clear[1] == pytest.approx(-2.0, abs=1e-9)

    def test_ensemble_edge_hit_names_trial(self, monkeypatch):
        # test_edge_hit_names_trial through an ensemble chunk: trial 11 is
        # the largest force of the block [10, 13), one of its three evolved
        # rows, and the edge guard on that row names it
        forces = np.zeros(13)
        forces[11:] = (4.4, -1.0)
        # the one sampler also draws the reference force, trial 0's
        monkeypatch.setattr(montecarlo, "_sample_fdiv_block",
                            lambda seed, start, stop, f_meas: forces[start:stop])
        grid = GridSpec(half_length=20.0, n=256, dt=4e-3)
        with pytest.raises(NumericalError,
                           match=r"^trial 11: plus branch density .* outer 5%"
                           ) as failure:
            montecarlo._chunk_counts((0.5, 7.0, 2.0, "grid", 0, 10, 13, grid))
        # row 2 of the three evolved rows: the block's largest force
        self.assert_edge_fields(failure.value, 2)
        assert montecarlo._chunk_counts((0.5, 7.0, 2.0, "grid", 0, 12, 13,
                                         grid)) == (0, 1, 0)

    def test_aliasing_trial_refused(self):
        # the trial's mean momentum reaches F tau = 14.4, beyond
        # 0.95 pi/dx = 7.96; it samples only t = 0 and tau, where the
        # aliasing guard never sees it, and used to end 0.219 from the
        # start instead of F tau^2 / 2 = 7.196
        with pytest.raises(ValueError, match=r"mean momentum reaches 14\.39, "
                           r".* need n of at least 256$"):
            grid_displacements(0.9, 8.0, np.array([7.992]), 1.0,
                               GridSpec(24.0, 128, 4e-3), 0)


class TestWilsonInterval:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.0 <= lo < 0.5 < hi <= 1.0
        assert (lo, hi) == pytest.approx((0.40383, 0.59617), abs=1e-4)

    def test_edge_counts(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.25
        lo, hi = wilson_interval(20, 20)
        assert lo > 0.75 and hi == 1.0

    def test_narrows_with_n(self):
        w100 = np.diff(wilson_interval(50, 100))[0]
        w10000 = np.diff(wilson_interval(5000, 10000))[0]
        assert w10000 < w100 / 5.0


class TestTwoDetector:
    def test_symmetric_point(self):
        t = two_detector_table(0.5)
        assert t.model_probs == pytest.approx((0.25, 0.25, 0.25, 0.25))
        assert t.born_probs == pytest.approx((0.0, 0.5, 0.5, 0.0))

    def test_p_03(self):
        t = two_detector_table(0.3)
        assert t.model_probs == pytest.approx((0.21, 0.09, 0.49, 0.21))
        assert t.born_probs == pytest.approx((0.0, 0.3, 0.7, 0.0))

    def test_tables_sum_to_one(self):
        rng = np.random.default_rng(8)
        for p in rng.uniform(0.0, 1.0, 1000):
            t = two_detector_table(float(p))
            assert abs(sum(t.model_probs) - 1.0) < 1e-12
            assert abs(sum(t.born_probs) - 1.0) < 1e-12

    def test_coincide_only_at_certainty(self):
        for p in (0.0, 1.0):
            t = two_detector_table(p)
            assert t.model_probs == t.born_probs
        rng = np.random.default_rng(9)
        for p in rng.uniform(0.01, 0.99, 200):
            t = two_detector_table(float(p))
            assert t.model_probs != t.born_probs

    def test_validation(self):
        with pytest.raises(ValueError):
            two_detector_table(1.5)
        with pytest.raises(ValueError):
            two_detector_table(-0.1)

    def test_to_dict(self):
        # two-detector prints vars(table); its keys are the table's fields.
        d = vars(two_detector_table(0.3))
        assert set(d) == {"p", "model_probs", "born_probs"}
