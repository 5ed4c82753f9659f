"""Split-step spectral solver: moments, conservation, convergence.

Gaussian moment oracles are the textbook closed forms: a width-w packet at
center c with velocity v has norm 1, <x> = c, variance w^2/2, <k> = v, and
kinetic energy 1/4 + v^2/2 at w = 1.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravimean.analytic import (common_center_initial_condition,
                                equilibrium_splitting,
                                smooth_initial_condition, trajectory)
from gravimean import grid as gridmod
from gravimean.grid import (GridSpec, GridState, NumericalError, energy,
                            evolve, init_gaussian, moments, step)

SPEC = GridSpec(half_length=16.0, n=512, dt=1e-3)


def two_branch(spec, c_plus, c_minus, p, v_plus=0.0, v_minus=0.0):
    return GridState(psi_plus=init_gaussian(spec, c_plus, velocity=v_plus),
                     psi_minus=init_gaussian(spec, c_minus, velocity=v_minus),
                     p=p)


def smooth_grid_state(spec, p, f_meas, xbar0=0.0):
    d_plus, d_minus, _ = equilibrium_splitting(p, f_meas)
    return two_branch(spec, xbar0 + d_plus, xbar0 + d_minus, p)


class TestGridSpec:
    def test_dx(self):
        assert SPEC.dx == pytest.approx(2.0 * 16.0 / 512)
        assert len(SPEC.x()) == 512
        assert SPEC.x()[0] == pytest.approx(-16.0)

    @pytest.mark.parametrize("kwargs", [
        {"n": 500}, {"n": 0}, {"n": -8},
        {"half_length": 0.0}, {"dt": 0.0}, {"dt": -1e-3},
        {"n": 2 * gridmod.MAX_N},
    ])
    def test_validation(self, kwargs):
        base = {"half_length": 16.0, "n": 512, "dt": 1e-3}
        base.update(kwargs)
        with pytest.raises(ValueError):
            GridSpec(**base)

    def test_largest_grid(self):
        assert gridmod.MAX_N == 2**20
        assert GridSpec(half_length=16.0, n=gridmod.MAX_N, dt=1e-3).n == 2**20

    @pytest.mark.parametrize("field", ["half_length", "dt"])
    def test_rejects_nan(self, field):
        base = {"half_length": 16.0, "n": 512, "dt": 1e-3}
        base[field] = float("nan")
        with pytest.raises(ValueError, match=field):
            GridSpec(**base)


class TestInitGaussian:
    def test_moment_oracles(self):
        c, v = 1.3, 0.7
        psi = init_gaussian(SPEC, c, velocity=v)
        x = SPEC.x()
        rho = np.abs(psi) ** 2
        assert np.sum(rho) * SPEC.dx == pytest.approx(1.0, abs=1e-13)
        assert np.sum(x * rho) * SPEC.dx == pytest.approx(c, abs=1e-12)
        var = np.sum(x * x * rho) * SPEC.dx - c * c
        assert var == pytest.approx(0.5, abs=1e-11)
        # mean momentum, spectrally
        psi_hat = np.fft.fft(psi)
        weights = np.abs(psi_hat) ** 2
        k_mean = np.sum(SPEC.k() * weights) / np.sum(weights)
        assert k_mean == pytest.approx(v, abs=1e-11)

    def test_rejects_packet_near_edge(self):
        with pytest.raises(ValueError):
            init_gaussian(SPEC, 12.0)
        with pytest.raises(ValueError):
            init_gaussian(SPEC, -13.5)


class TestMoments:
    def test_single_branch(self):
        state = two_branch(SPEC, 1.5, 0.0, 1.0)
        xbar, x2bar = moments(state, SPEC)
        assert xbar == pytest.approx(1.5, abs=1e-12)
        assert x2bar == pytest.approx(1.5**2 + 0.5, abs=1e-11)

    def test_weighted_mixture(self):
        xbar, x2bar = moments(two_branch(SPEC, 1.0, -1.0, 0.3), SPEC)
        assert xbar == pytest.approx(-0.4, abs=1e-12)
        assert x2bar == pytest.approx(1.5, abs=1e-11)

    def test_symmetric_mixture(self):
        xbar, _ = moments(two_branch(SPEC, 1.0, -1.0, 0.5), SPEC)
        assert xbar == pytest.approx(0.0, abs=1e-12)

    def test_norm_guard(self):
        state = two_branch(SPEC, 1.0, -1.0, 0.5)
        state.psi_plus = 2.0 * state.psi_plus
        with pytest.raises(NumericalError):
            moments(state, SPEC)


class TestStationaryGroundState:
    def test_density_frozen(self):
        # with xbar = 0 the self-consistent potential is x^2/2 and the
        # width-1 packet is its ground state: the density must not move
        spec = GridSpec(half_length=16.0, n=512, dt=3e-4)
        state = two_branch(spec, 0.0, 0.0, 0.5)
        rho0 = np.abs(state.psi_plus) ** 2
        for _ in range(1000):
            state = step(state, 0.0, 0.0, spec)
        drift = np.max(np.abs(np.abs(state.psi_plus) ** 2 - rho0))
        assert drift < 1e-8


class TestMeanMotion:
    def test_constant_force_quadratic(self):
        # p = 1 removes the splitting force; f_div = 1 gives xbar = t^2/2
        state = two_branch(SPEC, 0.0, 0.0, 1.0)
        traj, _ = evolve(state, 0.0, 1.0, 2.0, SPEC, sample_every=500)
        assert traj.xbar[-1] == pytest.approx(2.0, abs=1e-6)
        fit = traj.t**2 / 2.0
        assert np.max(np.abs(traj.xbar - fit)) < 1e-6

    def test_mean_quadratic_mixed_run(self):
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        traj, _ = evolve(state, 1.0, 0.25, 2.0, SPEC, sample_every=200)
        force = 2.0 * (0.3 - 0.5) * 1.0 + 0.25
        fit = 0.5 * force * traj.t**2
        assert np.max(np.abs(traj.xbar - fit)) < 1e-6


class TestConvergence:
    def test_second_order_in_dt(self):
        # common-center start exercises the oscillating offsets; halving dt
        # must shrink the analytic discrepancy by about 4
        t_max = 2.0 * np.pi
        errs = []
        for dt, every in ((2e-3, 50), (1e-3, 100)):
            spec = GridSpec(half_length=16.0, n=512, dt=dt)
            state = two_branch(spec, 0.0, 0.0, 0.5)
            traj, _ = evolve(state, 1.0, 0.0, t_max, spec, sample_every=every)
            exact = trajectory(common_center_initial_condition(0.5), 1.0, 0.0,
                               traj.t)
            errs.append(np.max(np.abs(traj.x_plus - exact["x_plus"])))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_grid_refinement_converged(self):
        # doubling N changes nothing at this resolution
        ends = []
        for n in (1024, 2048):
            spec = GridSpec(half_length=16.0, n=n, dt=1e-3)
            state = smooth_grid_state(spec, 0.3, 1.0)
            traj, _ = evolve(state, 1.0, -0.2, 1.0, spec, sample_every=1000)
            ends.append((traj.xbar[-1], traj.x_plus[-1]))
        assert ends[0][0] == pytest.approx(ends[1][0], abs=1e-10)
        assert ends[0][1] == pytest.approx(ends[1][1], abs=1e-10)


class TestConservation:
    def test_norms_and_energy(self):
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        traj, _ = evolve(state, 1.0, 0.3, 2.0, SPEC, sample_every=100)
        assert np.max(np.abs(traj.norm_plus - 1.0)) < 1e-10
        assert np.max(np.abs(traj.norm_minus - 1.0)) < 1e-10
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-7

    def test_energy_closed_form(self):
        # p=0.7 smooth rest state, f=1, f_div=0.3:
        # E = (x2bar - xbar^2)/2 + kinetic 1/4 per branch + force terms
        #   = 0.67 + 0.25 - 0.84 = 0.08
        state = smooth_grid_state(SPEC, 0.7, 1.0)
        assert energy(state, 1.0, 0.3, SPEC) == pytest.approx(0.08, abs=1e-9)

    def test_kinetic_of_boosted_packet(self):
        # single width-1 branch at velocity v: E_kin = 1/4 + v^2/2; with
        # p = 1, no forces, and the packet at the origin the total energy is
        # that plus the potential term (x2bar - xbar^2)/2 = 1/4
        state = GridState(psi_plus=init_gaussian(SPEC, 0.0, velocity=0.8),
                          psi_minus=init_gaussian(SPEC, 0.0), p=1.0)
        expect = 0.25 + 0.5 * 0.8**2 + 0.25
        assert energy(state, 0.0, 0.0, SPEC) == pytest.approx(expect, abs=1e-9)

    def test_width_follows_coherent_state(self):
        # oscillating branches keep their minimum-uncertainty width: the
        # mixture second moment minus the mean and splitting parts stays 1/2
        state = two_branch(SPEC, 0.0, 0.0, 0.5)
        traj, _ = evolve(state, 1.0, 0.0, 4.0 * np.pi, SPEC, sample_every=100)
        delta_plus = traj.x_plus - traj.xbar
        var = traj.x2bar - traj.xbar**2 - delta_plus**2
        assert np.max(np.abs(var - 0.5)) < 1e-4


class TestGlobalPhaseTerm:
    def test_densities_bit_identical(self):
        spec = GridSpec(half_length=16.0, n=512, dt=1e-3)
        a = two_branch(spec, 0.0, 0.0, 0.5)
        b = GridState(psi_plus=a.psi_plus.copy(),
                      psi_minus=a.psi_minus.copy(), p=0.5)
        for _ in range(200):
            a = step(a, 1.0, 0.3, spec, include_x2_phase=True)
            b = step(b, 1.0, 0.3, spec, include_x2_phase=False)
        assert np.array_equal(np.abs(a.psi_plus) ** 2, np.abs(b.psi_plus) ** 2)
        assert np.array_equal(np.abs(a.psi_minus) ** 2,
                              np.abs(b.psi_minus) ** 2)
        assert a.global_phase < 0.0
        assert b.global_phase == 0.0

    def test_wave_functions_equal_up_to_phase(self):
        # the arrays themselves agree exactly: the constant term never
        # touches them, it is carried alongside as a scalar
        spec = GridSpec(half_length=16.0, n=256, dt=1e-3)
        a = two_branch(spec, 0.0, 0.0, 0.5)
        b = GridState(psi_plus=a.psi_plus.copy(),
                      psi_minus=a.psi_minus.copy(), p=0.5)
        a = step(a, 1.0, 0.3, spec, include_x2_phase=True)
        b = step(b, 1.0, 0.3, spec, include_x2_phase=False)
        assert np.array_equal(a.psi_plus, b.psi_plus)


class TestFailureModes:
    def test_preflight_box_too_small(self):
        state = two_branch(SPEC, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="half_length"):
            evolve(state, 0.0, 1.0, 10.0, SPEC)

    def test_aliasing_mid_run(self):
        # dx = 0.5 resolves |k| up to 2 pi; under a unit force the packet's
        # momentum spread reaches the outer 5% of |k| long before the
        # packet reaches the outer 5% of the box
        spec = GridSpec(half_length=16.0, n=64, dt=1e-3)
        with pytest.raises(NumericalError,
                           match=r"^plus branch has a share .* in the outer "
                                 r"5% of \|k\| at step [1-9]\d*00, t=.*: the "
                                 r"grid aliases; raise n or shrink half_length"):
            evolve(two_branch(spec, 0.0, 0.0, 1.0), 0.0, 1.0, 3.0, spec,
                   sample_every=100)

    def test_edge_hit_mid_run(self):
        # oscillation amplitude 2*d_plus* = 8 sneaks past the mean-based
        # preflight bound but drives density into the absorbing margin
        spec = GridSpec(half_length=12.0, n=256, dt=2e-3)
        state = two_branch(spec, 0.0, 0.0, 0.5)
        with pytest.raises(NumericalError, match="outer 5% of the domain"):
            evolve(state, 4.0, 0.0, np.pi, spec)

    def test_bad_evolve_arguments(self):
        state = two_branch(SPEC, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            evolve(state, 1.0, 0.0, 0.0, SPEC)
        with pytest.raises(ValueError):
            evolve(state, 1.0, 0.0, 1.0, SPEC, sample_every=0)


class TestAgainstAnalytic:
    def test_smooth_state_tracks_closed_form(self):
        state = smooth_grid_state(SPEC, 0.5, 1.0)
        traj, _ = evolve(state, 1.0, 0.3, 2.0, SPEC, sample_every=100)
        st = smooth_initial_condition(0.5, 1.0)
        exact = trajectory(st, 1.0, 0.3, traj.t)
        assert np.max(np.abs(traj.x_plus - exact["x_plus"])) < 1e-9
        assert np.max(np.abs(traj.x_minus - exact["x_minus"])) < 1e-9

    def test_time_stamps_exact(self):
        state = two_branch(SPEC, 0.0, 0.0, 0.5)
        traj, final = evolve(state, 1.0, 0.0, 0.5, SPEC, sample_every=100)
        assert traj.t[0] == 0.0
        assert traj.t[1] == pytest.approx(0.1, abs=1e-15)
        assert final.t == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t_max", [1.0, 3.0])
    def test_ends_at_t_max(self, t_max):
        # dt = 0.4 divides neither duration: whole steps would end at 0.8
        # and 3.2, so the last step is shortened to end at t_max. The smooth
        # state under a constant force is exact for any step length.
        spec = GridSpec(half_length=16.0, n=512, dt=0.4)
        state = smooth_grid_state(spec, 0.3, 1.0)
        traj, final = evolve(state, 1.0, 0.25, t_max, spec, sample_every=1)
        assert traj.t[-1] == t_max
        assert final.t == t_max
        assert np.all(np.diff(traj.t) <= spec.dt + 1e-12)
        exact = trajectory(smooth_initial_condition(0.3, 1.0), 1.0, 0.25,
                           np.array([t_max]))
        for name in ("xbar", "x_plus", "x_minus"):
            assert getattr(traj, name)[-1] == pytest.approx(exact[name][0],
                                                            abs=1e-12)

    def test_final_state_returned(self):
        state = two_branch(SPEC, 0.0, 0.0, 0.5)
        traj, final = evolve(state, 1.0, 0.0, 0.3, SPEC, sample_every=50)
        xbar, _ = moments(final, SPEC)
        assert xbar == pytest.approx(traj.xbar[-1], abs=1e-14)


class TestEhrenfest:
    """d<x>/dt = <k> for each branch: the mean momentum of the state evolve
    returns at t1 = 1 matches the central difference of the branch means
    over t1 +/- dt, up to the scheme's second-order error."""

    @staticmethod
    def gap(initial, p, f_meas, f_div, dt):
        spec = GridSpec(half_length=24.0, n=512, dt=dt)
        state = GridState(*(init_gaussian(spec, b.center, velocity=b.velocity)
                            for b in (initial.plus, initial.minus)), p)
        # samples at t = 0, t1 - dt and t1
        traj, mid = evolve(state, f_meas, f_div, 1.0, spec,
                           sample_every=round(1.0 / dt) - 1)
        after, _ = evolve(mid, f_meas, f_div, dt, spec, sample_every=1)
        k = spec.k()
        gaps = []
        for psi, means, ahead in (
                (mid.psi_plus, traj.x_plus, after.x_plus),
                (mid.psi_minus, traj.x_minus, after.x_minus)):
            density = np.abs(np.fft.fft(psi)) ** 2
            k_mean = (density @ k) / density.sum()
            gaps.append(abs(k_mean - (ahead[-1] - means[-2]) / (2.0 * dt)))
        return max(gaps)

    @settings(max_examples=5, deadline=None)
    @given(p=st.floats(0.1, 0.9), f_meas=st.floats(0.5, 1.5),
           share=st.floats(-1.0, 1.0), speed=st.floats(0.2, 1.0),
           sign=st.sampled_from((-1.0, 1.0)))
    def test_mean_momentum_is_mean_velocity(self, p, f_meas, share, speed,
                                            sign):
        f_div, vbar0 = share * f_meas, sign * speed
        # the smooth state's branch means are quadratic in t, so the central
        # difference is exact and the gap is roundoff
        smooth = smooth_initial_condition(p, f_meas, vbar0=vbar0)
        assert self.gap(smooth, p, f_meas, f_div, 2e-3) <= 1e-10
        # the common-center branches oscillate: a second-order gap
        common = common_center_initial_condition(p, vbar0=vbar0)
        coarse = self.gap(common, p, f_meas, f_div, 2e-3)
        fine = self.gap(common, p, f_meas, f_div, 1e-3)
        assert coarse <= 1e-5
        assert 3.5 <= coarse / fine <= 4.5


def corrupt_stats(monkeypatch, after_calls, row=None):
    """Make grid._stats report a second moment of -1 in every branch (or in
    the given row only) from call after_calls + 1 on: a negative variance."""
    real = gridmod._stats
    calls = []

    def fake(psi, grid, *rest):
        stats = real(psi, grid, *rest)
        calls.append(None)
        if len(calls) > after_calls:
            target = stats if row is None else stats[row]
            target[..., 2] = -target[..., 0]
        return stats

    monkeypatch.setattr(gridmod, "_stats", fake)


class TestNegativeVariance:
    """A negative weighted variance is a numerical failure, not bad input."""

    def test_moments(self, monkeypatch):
        state = two_branch(SPEC, 1.0, -1.0, 0.5)
        corrupt_stats(monkeypatch, 0)
        with pytest.raises(NumericalError, match=r"negative variance at t=0\.0"):
            moments(state, SPEC)

    def test_while_stepping_names_step_and_t(self, monkeypatch):
        # call 1 is the initial state, calls 2 and 3 the midpoints of steps
        # 1 and 2
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        corrupt_stats(monkeypatch, 2)
        with pytest.raises(NumericalError,
                           match=r"negative variance at step 2, t=0\.002: "
                                 r"x2bar -1\.0 < xbar\^2"):
            evolve(state, 1.0, 0.3, 0.1, SPEC)


class TestKSpaceStepping:
    """evolve_block carries the block in k-space between steps."""

    @pytest.mark.parametrize("factor", ["_potential", "_kinetic_half"])
    def test_drift_checked_between_samples(self, monkeypatch, factor):
        # a phase factor of modulus 1 - 1e-7 loses about 2e-7 of norm in one
        # step: the drift check must catch it at step 1, which is no sample
        real = getattr(gridmod, factor)
        monkeypatch.setattr(gridmod, factor,
                            lambda *args: real(*args) * (1.0 - 1e-7))
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        with pytest.raises(NumericalError,
                           match=r"norm drifted by .* at step 1, t=0\.001"):
            gridmod.evolve_block(gridmod._rows(state), 0.3, 1.0,
                                 np.array([0.3]), 0.1, SPEC, sample_every=10)

    def test_one_fft_pair_per_step(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft"):
            real = getattr(np.fft, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(None)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        # the second run has a shortened last step and a last sample off the
        # sample_every grid
        for t_max, every, n_steps in ((100 * SPEC.dt, 10, 100),
                                      (100.5 * SPEC.dt, 10, 101)):
            calls.clear()
            traj, _, _ = gridmod.evolve_block(
                np.repeat(gridmod._rows(state), 3, axis=0), 0.3, 1.0,
                np.array([-0.2, 0.0, 0.3]), t_max, SPEC, sample_every=every)
            samples = len(traj.t)
            assert samples == 1 + math.ceil(n_steps / every)
            # two per step and one per sample but the first (back to
            # x-space); the one transform to k-space serves the box
            # pre-flight, the energy at sample 0 and the first step
            assert len(calls) == 2 * n_steps + samples
            assert np.all(np.diff(traj.t) > 0.0)
            assert traj.t[-1] == t_max
            # every row of the sample table was written
            for name, column in vars(traj).items():
                assert np.all(np.isfinite(column)), name

    @pytest.mark.parametrize("t_max, dt, plan", [
        (1.0, 4e-3, (250, 4e-3)), (np.pi, 1e-3, (3142, np.pi - 3.141)),
        (1.0, 0.4, (3, 0.2)), (3.0, 0.4, (8, 0.2)), (0.3, 0.1, (3, 0.1)),
        (1e-4, 1e-3, (1, 1e-4))])
    def test_step_plan(self, t_max, dt, plan):
        n_steps, dt_last = gridmod.step_plan(t_max, dt)
        assert n_steps == plan[0]
        assert dt_last == pytest.approx(plan[1], rel=1e-9)

    def test_step_limit(self):
        limit = gridmod.MAX_STEPS
        assert gridmod.step_plan(limit * 0.5, 0.5) == (limit, 0.5)
        with pytest.raises(ValueError, match=r"would take 1e\+07 steps, more "
                                             r"than 10000000"):
            gridmod.step_plan((limit + 1) * 0.5, 0.5)
        for t_max, dt in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, 5e-324)):
            with pytest.raises(ValueError, match="steps, more than 10000000"):
                gridmod.step_plan(t_max, dt)

    def test_linear_phase_factored(self):
        # every power of two from 1 to 4096, including n below m^2
        rng = np.random.default_rng(5)
        for k in range(13):
            spec = GridSpec(half_length=20.0, n=2**k, dt=1e-3)
            theta = rng.uniform(-1.0, 1.0, 4)
            got = gridmod._linear_phase(theta, spec,
                                        np.empty((4, spec.n), dtype=complex))
            exact = np.exp(1j * theta[:, None] * spec.x())
            assert np.max(np.abs(got - exact)) <= 1e-14, spec.n

    def test_evolve_matches_step_loop(self):
        state = smooth_grid_state(SPEC, 0.3, 1.0, xbar0=0.5)
        n_steps = 40
        traj, final = evolve(state, 1.0, 0.3, n_steps * SPEC.dt, SPEC,
                             sample_every=1)
        x = SPEC.x()
        for i in range(1, n_steps + 1):
            state = step(state, 1.0, 0.3, SPEC)
            for psi, mean, norm in ((state.psi_plus, traj.x_plus, traj.norm_plus),
                                    (state.psi_minus, traj.x_minus,
                                     traj.norm_minus)):
                rho = np.abs(psi) ** 2 * SPEC.dx
                assert abs(rho.sum() - norm[i]) <= 1e-12
                assert abs((rho @ x) / rho.sum() - mean[i]) <= 1e-12
        assert abs(state.global_phase - final.global_phase) <= 1e-12
        assert final.global_phase < 0.0
        assert np.max(np.abs(state.psi_plus - final.psi_plus)) <= 1e-12


class TestSampleTable:
    """evolve_block writes its samples into a table allocated up front."""

    @staticmethod
    def peak_bytes(state, spec, n_steps):
        tracemalloc.start()
        try:
            evolve(state, 1.0, 0.0, n_steps * spec.dt, spec, sample_every=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bytes_per_sampled_row(self):
        # p = 1/2 and no diverting force: the smooth state stays put
        spec = GridSpec(half_length=12.0, n=64, dt=1e-3)
        state = smooth_grid_state(spec, 0.5, 1.0)
        evolve(state, 1.0, 0.0, 10 * spec.dt, spec, sample_every=1)  # warm
        short = self.peak_bytes(state, spec, 1000)
        long = self.peak_bytes(state, spec, 3000)
        # a row is eight float64 values, 64 B, plus evolve's shifted times
        assert (long - short) / 2000 <= 200.0
