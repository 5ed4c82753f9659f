"""Trial seeding, the diverting-force sampler, and outcome statistics.

The seed derivation has public reference vectors: feeding 0 to the seeding
scheme reproduces the first outputs of the well-known splitmix64 stream, so
those literals pin the implementation bit for bit. The Born check has a
closed-form oracle: f_total = 2(p-1/2)f + U(-f, f) is positive with
probability exactly p, verified here independently by quadrature.
"""

import math

import numpy as np
import pytest

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from gravimean import montecarlo
from gravimean.montecarlo import (ANALYTIC_BLOCK, GRID_BLOCK, MC_GRID,
                                  McSummary, _tally, mix64, run_ensemble,
                                  run_trial, sample_fdiv, trial_seed,
                                  two_detector_table, wilson_interval)
from gravimean.grid import GridSpec, NumericalError
from gravimean.units import FdivSpec, MeasurementConfig


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


class TestRunTrial:
    def test_certain_outcome(self):
        cfg = dimensionless_cfg(1.0)
        for seed in (trial_seed(1, i) for i in range(20)):
            assert run_trial(cfg, "analytic", seed) > 0.0  # f + u > 0 always

    def test_forced_tie_is_undecided(self):
        # p = 0.75 makes the measurement part exactly 0.5 in binary, so the
        # forced diverting force -0.5 yields a representable exact tie
        cfg = dimensionless_cfg(0.75)
        displacement = run_trial(cfg, "analytic", 0, f_div=-0.5)
        assert displacement == 0.0
        assert _tally(np.array([displacement])) == (0, 0, 1)

    def test_forced_near_tie(self):
        cfg = dimensionless_cfg(0.75)
        near = np.array([run_trial(cfg, "analytic", 0, f_div=f_div)
                         for f_div in (-0.49, -0.51)])
        assert near == pytest.approx([0.005, -0.005], abs=1e-15)
        assert _tally(near) == (1, 1, 0)

    def test_displacement_closed_form(self):
        cfg = dimensionless_cfg(0.6, tau=2.0)
        f_total = 2.0 * 0.1 * 1.0 + 0.15
        assert run_trial(cfg, "analytic", 0, f_div=0.15) == pytest.approx(
            0.5 * f_total * 4.0)

    def test_fixed_kind_needs_explicit_force(self):
        cfg = dimensionless_cfg(0.5, kind="fixed", value=0.2)
        with pytest.raises(ValueError):
            run_trial(cfg, "analytic", 0)
        assert run_trial(cfg, "analytic", 0, f_div=0.2) > 0.0

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            run_trial(dimensionless_cfg(0.5), "exact", 0)

    def test_engines_agree_on_outcomes(self):
        # same seeds, sign of the measured grid displacement must match the
        # analytic one whenever the force is not razor thin
        cfg = dimensionless_cfg(0.6, tau=0.5)
        spec = GridSpec(half_length=12.0, n=256, dt=4e-3)
        checked = 0
        for i in range(12):
            seed = trial_seed(77, i)
            ana = run_trial(cfg, "analytic", seed)
            if abs(ana) < 0.5 * 1e-3 * 0.5**2:  # |F| < 1e-3
                continue
            gr = run_trial(cfg, "grid", seed, grid=spec)
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
        # the ensemble's block sampler and run_trial's scalar path must pick
        # identical forces seed for seed
        cfg = dimensionless_cfg(0.55)
        n = 500
        summary = run_ensemble(cfg, "analytic", n, master_seed=321)
        values = np.array([run_trial(cfg, "analytic", trial_seed(321, i))
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

    @staticmethod
    def run_on_stub_pool(monkeypatch, n_trials, workers, cpus):
        """run_ensemble on a machine of cpus CPUs, through a stub pool that
        runs the jobs in this process and records what a real one would
        get; no worker process is started. Returns the pool and the
        counts, after checking them against one worker."""
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
                self.bounds = [(job[3], job[4]) for job in jobs]
                return [fn(job) for job in jobs]

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        cfg = dimensionless_cfg(0.4)
        s = run_ensemble(cfg, "analytic", n_trials, master_seed=7,
                         workers=workers)
        ref = run_ensemble(cfg, "analytic", n_trials, master_seed=7)
        assert (s.n_right, s.n_left, s.n_undecided) == (
            ref.n_right, ref.n_left, ref.n_undecided)
        (pool,) = pools
        return pool

    @pytest.mark.parametrize("n_trials, workers, bounds", [
        (16, 2, [(0, 8), (8, 16)]),
        (10, 4, [(0, 3), (3, 6), (6, 9), (9, 10)]),
        (3, 8, [(0, 1), (1, 2), (2, 3)]),
    ])
    def test_pool_one_chunk_per_worker_and_no_idle_workers(
            self, monkeypatch, n_trials, workers, bounds):
        pool = self.run_on_stub_pool(monkeypatch, n_trials, workers, cpus=64)
        assert pool.bounds == bounds
        assert pool.max_workers == len(bounds)

    def test_pool_no_larger_than_the_cpus(self, monkeypatch):
        # one chunk per requested worker still, but only two processes
        pool = self.run_on_stub_pool(monkeypatch, 10, 4, cpus=2)
        assert pool.bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert pool.max_workers == 2

    def test_grid_engine_small_ensemble(self):
        summary = run_ensemble(dimensionless_cfg(0.8, tau=0.5), "grid", 40,
                               master_seed=11,
                               grid=GridSpec(half_length=12.0, n=256, dt=4e-3))
        assert summary.n_trials == 40
        assert summary.engine == "grid"
        # p = 0.8 leans right; with 40 trials expect a clear majority
        assert summary.n_right > summary.n_left


# Small grid for block tests: 125 steps of 128 points per trial.
SMALL_GRID = GridSpec(half_length=12.0, n=128, dt=4e-3)


def chunk_counts(engine, seed, start, stop, p=0.6, grid=SMALL_GRID):
    cfg = dimensionless_cfg(p, tau=0.5)
    return montecarlo._chunk_counts((cfg, engine, seed, start, stop, None,
                                     grid))


@lru_cache(maxsize=None)
def whole_range_counts(engine, seed, n):
    return chunk_counts(engine, seed, 0, n)


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
        n = 3 * ANALYTIC_BLOCK + 5
        summary = run_ensemble(dimensionless_cfg(0.4), "analytic", n,
                               master_seed=8)
        assert sizes == [ANALYTIC_BLOCK] * 3 + [5]
        assert summary.n_right + summary.n_left + summary.n_undecided == n

    @pytest.mark.parametrize("n_points, cap", [(MC_GRID.n, GRID_BLOCK),
                                               (8 * MC_GRID.n, GRID_BLOCK // 8)])
    def test_grid_blocks_bounded(self, monkeypatch, n_points, cap):
        # a stand-in for the grid work: the sign of f_div decides
        sizes = self.record_blocks(monkeypatch)
        monkeypatch.setattr(montecarlo, "_grid_displacements",
                            lambda p, f_meas, f_div, tau, grid, first: f_div)
        grid = GridSpec(half_length=20.0, n=n_points, dt=4e-3)
        run_ensemble(dimensionless_cfg(0.5), "grid", 2 * cap + 3,
                     master_seed=1, grid=grid)
        assert sizes == [cap, cap, 3]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 700),
           data=st.data())
    def test_analytic_counts_independent_of_partition(self, seed, block, data):
        n = 2000
        parts = data.draw(partitions(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "ANALYTIC_BLOCK", block)
            got = [chunk_counts("analytic", seed, lo, hi) for lo, hi in parts]
        assert tuple(map(sum, zip(*got))) == whole_range_counts("analytic",
                                                                seed, n)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 3), block=st.integers(1, 8), data=st.data())
    def test_grid_counts_independent_of_partition(self, seed, block, data):
        n = 12
        parts = data.draw(partitions(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "GRID_BLOCK", block)
            got = [chunk_counts("grid", seed, lo, hi) for lo, hi in parts]
        assert tuple(map(sum, zip(*got))) == whole_range_counts("grid", seed, n)

    def test_block_displacements_match_run_trial(self):
        cfg = dimensionless_cfg(0.6, tau=0.5)
        n = 16
        ref = np.array([run_trial(cfg, "grid", trial_seed(77, i),
                                  grid=SMALL_GRID, index=i)
                        for i in range(n)])
        f_div = montecarlo._sample_fdiv_block(77, 0, n, 1.0)
        for block in (1, 3, 16):
            got = np.concatenate([
                montecarlo._grid_displacements(0.6, 1.0, f_div[lo:lo + block],
                                               0.5, SMALL_GRID, lo)
                for lo in range(0, n, block)])
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_block_displacements_bit_identical(self):
        f_div = montecarlo._sample_fdiv_block(3, 0, 64, 1.0)
        whole = montecarlo._grid_displacements(0.6, 1.0, f_div, 0.5,
                                               SMALL_GRID, 0)
        for block in (1, 2, 3, 5, 16):
            got = np.concatenate([
                montecarlo._grid_displacements(0.6, 1.0, f_div[lo:lo + block],
                                               0.5, SMALL_GRID, lo)
                for lo in range(0, 64, block)])
            assert np.array_equal(got, whole), block

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.05, 0.95), f_meas=st.floats(0.1, 2.0),
           u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    def test_uniform_force_law(self, p, f_meas, u):
        # each trial's mean moves as under the uniform total force alone:
        # d = F tau^2 / 2 with F = 2 (p - 1/2) f_meas + f_div
        f_div = f_meas * np.array(u)
        tau = 1.0
        got = montecarlo._grid_displacements(p, f_meas, f_div, tau, MC_GRID, 0)
        force = 2.0 * (p - 0.5) * f_meas + f_div
        assert np.max(np.abs(got - 0.5 * force * tau * tau)) <= 1e-12

    def test_edge_hit_names_trial(self):
        # the branches sit 7 from the mean; trial 11's force carries its mean
        # to 8.8 by t = 2, which the box admits, and its plus branch into
        # the outer 5%, while its neighbours stay clear
        grid = GridSpec(half_length=20.0, n=256, dt=4e-3)
        with pytest.raises(NumericalError,
                           match=r"^trial 11: plus branch density .* outer 5%"):
            montecarlo._grid_displacements(0.5, 7.0,
                                           np.array([0.0, 4.4, -1.0]), 2.0,
                                           grid, 10)
        clear = montecarlo._grid_displacements(0.5, 7.0, np.array([0.0, -1.0]),
                                               2.0, grid, 10)
        assert clear[1] == pytest.approx(-2.0, abs=1e-9)


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
        d = two_detector_table(0.3).to_dict()
        assert set(d) == {"p", "model_probs", "born_probs"}
