"""Split-step spectral solver: moments, conservation, convergence.

Gaussian moment oracles are the textbook closed forms: a width-w packet at
center c with velocity v has norm 1, <x> = c, variance w^2/2, <k> = v, and
kinetic energy 1/4 + v^2/2 at w = 1.

The check_* functions are law checks that tests/test_mutants.py also runs
against deliberately broken solvers, so each law has one copy.
"""

import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravimean.analytic import (common_center_initial_condition,
                                equilibrium_splitting,
                                smooth_initial_condition, trajectory)
from gravimean import grid as gridmod
from gravimean.grid import (GridSpec, GridState, NumericalError, energy,
                            evolve, init_gaussian, moments, step)

from oracles import reference_block

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
        for value in (float("nan"), float("inf")):
            base = {"half_length": 16.0, "n": 512, "dt": 1e-3}
            base[field] = value
            with pytest.raises(ValueError, match=f"{field} must be finite"):
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


def check_second_order_in_dt(vbar0=0.0):
    # common-center start exercises the oscillating offsets; halving dt
    # must shrink the analytic discrepancy by about 4. At vbar0 = 0 the
    # mean of this p = 0.5, f_div = 0 state never moves, so only a moving
    # mean can tell the midpoint xbar from one a half step off
    t_max = 2.0 * np.pi
    errs = []
    for dt, every in ((2e-3, 50), (1e-3, 100)):
        spec = GridSpec(half_length=16.0, n=512, dt=dt)
        state = two_branch(spec, 0.0, 0.0, 0.5, vbar0, vbar0)
        traj, _ = evolve(state, 1.0, 0.0, t_max, spec, sample_every=every)
        exact = trajectory(common_center_initial_condition(0.5, vbar0=vbar0),
                           1.0, 0.0, traj.t)
        errs.append(np.max(np.abs(traj.x_plus - exact["x_plus"])))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


class TestConvergence:
    def test_second_order_in_dt(self):
        check_second_order_in_dt()

    def test_second_order_in_dt_moving_mean(self):
        check_second_order_in_dt(vbar0=0.5)

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


def check_boosted_packet_energy():
    # single width-1 branch at velocity v: E_kin = 1/4 + v^2/2; with p = 1,
    # no forces, and the packet at the origin the total energy is that plus
    # the potential term (x2bar - xbar^2)/2 = 1/4
    state = GridState(psi_plus=init_gaussian(SPEC, 0.0, velocity=0.8),
                      psi_minus=init_gaussian(SPEC, 0.0), p=1.0)
    expect = 0.25 + 0.5 * 0.8**2 + 0.25
    assert energy(state, 0.0, 0.0, SPEC) == pytest.approx(expect, abs=1e-9)


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
        check_boosted_packet_energy()

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


# oscillation amplitude 2*d_plus* = 8 sneaks past the mean-based preflight
# bound but drives density into the absorbing margin: the guard fires at
# step 1300
EDGE_HIT = GridSpec(half_length=12.0, n=256, dt=2e-3)


def check_edge_hit():
    state = two_branch(EDGE_HIT, 0.0, 0.0, 0.5)
    with pytest.raises(NumericalError, match="outer 5% of the domain"):
        evolve(state, 4.0, 0.0, np.pi, EDGE_HIT, sample_every=10)


def check_aliasing_mid_run():
    # dx = 0.5 resolves |k| up to 2 pi; under a unit force the packet's
    # momentum spread reaches the outer 5% of |k| long before the packet
    # reaches the outer 5% of the box. The guard reads every step, so the
    # run fails at the same step between samples whether it samples every
    # 100 steps or only at its ends.
    spec = GridSpec(half_length=16.0, n=64, dt=1e-3)
    steps = set()
    for sample_every in (100, 10**6):
        with pytest.raises(NumericalError,
                           match=r"^plus branch has a share .* in the "
                                 r"outer 5% of \|k\| at step (\d+), t=.*: "
                                 r"the grid aliases; raise n or shrink "
                                 r"half_length") as failure:
            evolve(two_branch(spec, 0.0, 0.0, 1.0), 0.0, 1.0, 3.0, spec,
                   sample_every=sample_every)
        steps.add(int(re.search(r"step (\d+),", str(failure.value)).group(1)))
    assert len(steps) == 1, steps
    assert steps.pop() % 100 != 0


class TestFailureModes:
    def test_preflight_box_too_small(self):
        state = two_branch(SPEC, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="half_length"):
            evolve(state, 0.0, 1.0, 10.0, SPEC, sample_every=10)

    def test_aliasing_mid_run(self):
        check_aliasing_mid_run()

    def test_edge_hit_mid_run(self):
        check_edge_hit()

    def test_bad_evolve_arguments(self):
        state = two_branch(SPEC, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            evolve(state, 1.0, 0.0, 0.0, SPEC, sample_every=10)
        with pytest.raises(ValueError):
            evolve(state, 1.0, 0.0, 1.0, SPEC, sample_every=0)


def check_smooth_closed_form():
    state = smooth_grid_state(SPEC, 0.5, 1.0)
    traj, _ = evolve(state, 1.0, 0.3, 2.0, SPEC, sample_every=100)
    exact = trajectory(smooth_initial_condition(0.5, 1.0), 1.0, 0.3, traj.t)
    assert np.max(np.abs(traj.x_plus - exact["x_plus"])) < 1e-9
    assert np.max(np.abs(traj.x_minus - exact["x_minus"])) < 1e-9


class TestAgainstAnalytic:
    def test_smooth_state_tracks_closed_form(self):
        check_smooth_closed_form()

    def test_time_stamps_exact(self):
        state = two_branch(SPEC, 0.0, 0.0, 0.5)
        traj, final = evolve(state, 1.0, 0.0, 0.5, SPEC, sample_every=100)
        assert traj.t[0] == 0.0
        assert traj.t[1] == pytest.approx(0.1, abs=1e-15)
        assert final.t == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t_max", [1.0, 3.0])
    def test_ends_at_t_max(self, t_max):
        # dt = 0.4 divides neither duration: whole steps would end at 0.8
        # and 3.2, so the run takes 3 and 8 equal steps shorter than dt that
        # end at t_max. The smooth state under a constant force is exact for
        # any step length.
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


def ehrenfest_gap(initial, p, f_meas, f_div, dt):
    """Largest |<k> - d<x>/dt| of the two branches at t1 = 1, the velocity
    taken as the central difference of the branch means over t1 +/- dt."""
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


def check_ehrenfest(p, f_meas, f_div, vbar0):
    # the smooth state's branch means are quadratic in t, so the central
    # difference is exact and the gap is roundoff
    smooth = smooth_initial_condition(p, f_meas, vbar0=vbar0)
    assert ehrenfest_gap(smooth, p, f_meas, f_div, 2e-3) <= 1e-10
    # the common-center branches oscillate: a second-order gap
    common = common_center_initial_condition(p, vbar0=vbar0)
    coarse = ehrenfest_gap(common, p, f_meas, f_div, 2e-3)
    fine = ehrenfest_gap(common, p, f_meas, f_div, 1e-3)
    assert coarse <= 1e-5
    assert 3.5 <= coarse / fine <= 4.5


class TestEhrenfest:
    """d<x>/dt = <k> for each branch: the mean momentum of the state evolve
    returns at t1 = 1 matches the central difference of the branch means
    over t1 +/- dt, up to the scheme's second-order error."""

    @settings(max_examples=5, deadline=None)
    @given(p=st.floats(0.1, 0.9), f_meas=st.floats(0.5, 1.5),
           share=st.floats(-1.0, 1.0), speed=st.floats(0.2, 1.0),
           sign=st.sampled_from((-1.0, 1.0)))
    def test_mean_momentum_is_mean_velocity(self, p, f_meas, share, speed,
                                            sign):
        check_ehrenfest(p, f_meas, share * f_meas, sign * speed)


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
            evolve(state, 1.0, 0.3, 0.1, SPEC, sample_every=10)


def check_drift_checked_between_samples(monkeypatch, factor):
    # a phase factor of modulus 1 - 1e-7 loses about 2e-7 of norm in one
    # step: the drift check must catch it at step 1, which is no sample
    real = getattr(gridmod, factor)
    monkeypatch.setattr(gridmod, factor,
                        lambda *args: real(*args) * (1.0 - 1e-7))
    state = smooth_grid_state(SPEC, 0.3, 1.0)
    with pytest.raises(NumericalError,
                       match=r"norm drifted by .* at step 1, t=0\.001"):
        gridmod.evolve_block(gridmod._rows(state), 0.3, 1.0, np.array([0.3]),
                             0.1, SPEC, sample_every=10)


def failure_of_block(monkeypatch, name, call, block=None, product=None):
    """The NumericalError of a three-row smooth block whose call number
    call of grid.<name> (_stats or _kstats; call 1 takes the product of
    the initial block) is corrupted: block changes the array before the
    product is taken, product changes the product."""
    real = getattr(gridmod, name)
    calls = []

    def fake(array, *rest):
        calls.append(None)
        hit = len(calls) == call
        if hit and block is not None:
            block(array)
        result = real(array, *rest)
        if hit and product is not None:
            product(result)
        return result

    monkeypatch.setattr(gridmod, name, fake)
    state = smooth_grid_state(SPEC, 0.3, 1.0)
    with pytest.raises(NumericalError) as failure:
        gridmod.evolve_block(np.repeat(gridmod._rows(state), 3, axis=0), 0.3,
                             1.0, np.array([-0.2, 0.0, 0.3]), 0.1, SPEC,
                             sample_every=10)
    return failure.value


def fields(error):
    return (error.row, error.branch, error.step, error.t, error.quantity,
            error.limit)


class TestGuardOrder:
    """The guards of a step run guard by guard, then row by row, then
    branch by branch: at the midpoint the norm, the weighted variance and
    the edge, at the step end the drift and the aliasing. Each failure
    names its row, branch, step, t, quantity, value and limit. At t = 0
    the norm guard runs first, before the pre-flight. Call 2 of
    _stats is the midpoint of step 1 and call 3 that of step 2; call 2 of
    _kstats ends step 1 and call 3 step 2."""

    def test_norm_of_a_later_row_before_edge(self, monkeypatch):
        def product(stats):
            stats[1, 0, 0] = 1.1
            stats[0, :, 3] = 1.0

        error = failure_of_block(monkeypatch, "_stats", 2, product=product)
        assert str(error).startswith("plus branch norm deviates from 1 by "
                                     "0.10000000000000009, more than 1e-6, "
                                     "at step 1, t=0.001")
        assert fields(error) == (1, "plus", 1, 0.001, "norm", 1e-6)
        assert error.value == abs(1.1 - 1.0)

    def test_drift_of_a_row_before_aliasing_of_a_later_one(self,
                                                           monkeypatch):
        def product(kstats):
            kstats[0, 0, 0] += 1e-6
            kstats[1, 0, 3] = 0.5 * kstats[1, 0, 0]

        error = failure_of_block(monkeypatch, "_kstats", 2, product=product)
        assert re.fullmatch(r"plus branch norm drifted by 1\.0000\d+e-06 in "
                            r"one step at step 1, t=0\.001", str(error))
        assert fields(error) == (0, "plus", 1, 0.001, "drift", 1e-8)
        assert 0.99e-6 < error.value < 1.01e-6

    def test_nan_row(self, monkeypatch):
        def block(psi):
            psi[1] = np.nan

        error = failure_of_block(monkeypatch, "_stats", 2, block=block)
        assert str(error) == ("plus branch norm deviates from 1 by nan, more "
                              "than 1e-6, at step 1, t=0.001")
        assert fields(error) == (1, "plus", 1, 0.001, "norm", 1e-6)
        assert math.isnan(error.value)

    def test_zero_row(self, monkeypatch):
        def block(psi):
            psi[2] = 0.0

        error = failure_of_block(monkeypatch, "_stats", 3, block=block)
        assert fields(error) == (2, "plus", 2, 0.002, "norm", 1e-6)
        assert error.value == 1.0

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_unnormalised_initial_row(self, monkeypatch, fill):
        # the norm guard reads the initial product before the pre-flight,
        # which would divide by these norms and blame the box
        def block(psi):
            psi[1] = fill

        error = failure_of_block(monkeypatch, "_stats", 1, block=block)
        assert str(error).startswith("plus branch norm deviates from 1 by ")
        assert str(error).endswith(", more than 1e-6, at step 0, t=0.0")
        assert fields(error) == (1, "plus", 0, 0.0, "norm", 1e-6)
        assert error.value == 1.0 if fill == 0.0 else math.isnan(error.value)

    def test_variance_fields(self, monkeypatch):
        def product(stats):
            stats[1, :, 2] = -stats[1, :, 0]

        error = failure_of_block(monkeypatch, "_stats", 3, product=product)
        assert str(error).startswith("negative variance at step 2, t=0.002: "
                                     "x2bar -1.0 < xbar^2 ")
        assert fields(error) == (1, None, 2, 0.002, "variance", -1e-12)
        assert error.value < -1.0

    def test_edge_fields(self, monkeypatch):
        def product(stats):
            stats[2, 1, 3] = 2e-8

        error = failure_of_block(monkeypatch, "_stats", 3, product=product)
        assert str(error).startswith("minus branch density 2e-08 in the outer "
                                     "5% of the domain at step 2, t=0.002")
        assert fields(error) == (2, "minus", 2, 0.002, "edge", 1e-8)
        assert error.value == 2e-8

    def test_aliasing_fields(self, monkeypatch):
        def product(kstats):
            kstats[1, 1, 3] = 0.25 * kstats[1, 1, 0]

        error = failure_of_block(monkeypatch, "_kstats", 3, product=product)
        assert str(error).startswith("minus branch has a share 0.25 of its "
                                     "weight in the outer 5% of |k| at step "
                                     "2, t=0.002")
        assert fields(error) == (1, "minus", 2, 0.002, "aliasing", 1e-8)
        assert error.value == 0.25


class TestKSpaceStepping:
    """evolve_block carries the block in k-space between steps."""

    @pytest.mark.parametrize("factor", ["_potential", "_kinetic_half"])
    def test_drift_checked_between_samples(self, monkeypatch, factor):
        check_drift_checked_between_samples(monkeypatch, factor)

    def test_one_fft_pair_per_step(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft"):
            real = getattr(np.fft, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(None)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        # dt does not divide the second run's t_max, so it takes 101 equal
        # steps shorter than dt and its last sample is off the sample_every
        # grid
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

    @pytest.mark.parametrize("f_div", [[0.3], [-0.2, 0.0, 0.3]])
    @pytest.mark.parametrize("sample_every", [1, 10, gridmod.MAX_STEPS])
    @pytest.mark.parametrize("n_steps", [40, 40.5])
    def test_matches_reference_block(self, f_div, sample_every, n_steps):
        # bit for bit; 40.5 dt is not a whole number of steps
        state = two_branch(SPEC, 0.4, -0.3, 0.3, v_plus=0.2, v_minus=-0.1)
        args = (np.repeat(gridmod._rows(state), len(f_div), axis=0), 0.3, 1.0,
                np.array(f_div), n_steps * SPEC.dt, SPEC, sample_every)
        traj, psi, phase = gridmod.evolve_block(*args)
        ref, ref_psi, ref_phase = reference_block(*args)
        for name, column in vars(traj).items():
            assert np.array_equal(column, getattr(ref, name)), name
        assert np.array_equal(psi, ref_psi)
        assert np.array_equal(phase, ref_phase)

    @pytest.mark.parametrize("n_steps", [1, 10, 300])
    def test_tables_built_once_per_call(self, monkeypatch, n_steps):
        # nothing caches a table across calls, so a table built per step
        # would cost its build at every step; so would the step _advance
        # builds and the linear phase it binds
        tables = ("_moment_weights", "_k_weights", "_kinetic_half",
                  "_phase_points", "_potential", "_advance", "_linear_phase")
        calls = []
        for name in tables:
            def counted(*args, _name=name, _real=getattr(gridmod, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(gridmod, name, counted)
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        gridmod.evolve_block(np.repeat(gridmod._rows(state), 3, axis=0), 0.3,
                             1.0, np.array([-0.2, 0.0, 0.3]),
                             n_steps * SPEC.dt, SPEC, sample_every=10)
        assert sorted(calls) == sorted(tables)

    def test_one_density_product_per_space(self, monkeypatch):
        # x products: the initial state, every midpoint and every sample
        # but the first; k products: the initial block and the end of every
        # step, which also serves that step's sample
        callers = []
        real = gridmod._density

        def counted(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(gridmod, "_density", counted)
        state = smooth_grid_state(SPEC, 0.3, 1.0)
        n_steps = 100
        traj, _, _ = gridmod.evolve_block(
            np.repeat(gridmod._rows(state), 3, axis=0), 0.3, 1.0,
            np.array([-0.2, 0.0, 0.3]), n_steps * SPEC.dt, SPEC,
            sample_every=10)
        samples = len(traj.t)
        assert samples == 11
        assert callers.count("_stats") == 1 + n_steps + samples - 1
        assert callers.count("_kstats") == 1 + n_steps
        assert len(callers) == 2 + 2 * n_steps + samples - 1

    @pytest.mark.parametrize("t_max, dt, plan", [
        (1.0, 4e-3, (250, 4e-3)), (np.pi, 1e-3, (3142, np.pi / 3142)),
        (1.0, 0.4, (3, 1.0 / 3.0)), (3.0, 0.4, (8, 0.375)),
        (0.3, 0.1, (3, 0.1)), (1e-4, 1e-3, (1, 1e-4))])
    def test_step_plan(self, t_max, dt, plan):
        n_steps, step = gridmod.step_plan(t_max, dt)
        assert n_steps == plan[0]
        assert step == pytest.approx(plan[1], rel=1e-9)
        assert step <= dt
        assert n_steps * step == pytest.approx(t_max, rel=1e-15)

    @pytest.mark.parametrize("t_max, dt, n", [(1.0, 0.4, 256), (3.0, 0.4, 256),
                                              (np.pi, 1e-3, 128)])
    def test_one_step_length(self, t_max, dt, n):
        # a run whose dt does not divide t_max is, bit for bit, the run on
        # the grid whose dt is the step step_plan gives
        spec = GridSpec(half_length=16.0, n=n, dt=dt)
        state = smooth_grid_state(spec, 0.3, 1.0)
        even = replace(spec, dt=t_max / math.ceil(t_max / dt))
        traj, final = evolve(state, 1.0, 0.25, t_max, spec, sample_every=7)
        ref, ref_final = evolve(state, 1.0, 0.25, t_max, even, sample_every=7)
        for name, column in vars(traj).items():
            assert np.array_equal(column, getattr(ref, name)), name
        assert np.array_equal(final.psi_plus, ref_final.psi_plus)
        assert np.array_equal(final.psi_minus, ref_final.psi_minus)
        assert final.global_phase == ref_final.global_phase

    def test_step_limit(self):
        limit = gridmod.MAX_STEPS
        assert gridmod.step_plan(limit * 0.5, 0.5) == (limit, 0.5)
        with pytest.raises(ValueError, match=r"would take 1e\+07 steps, more "
                                             r"than 10000000"):
            gridmod.step_plan((limit + 1) * 0.5, 0.5)
        for t_max, dt in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, 5e-324)):
            with pytest.raises(ValueError, match="steps, more than 10000000"):
                gridmod.step_plan(t_max, dt)
        # t_max / dt underflows to 0: still one step, not a division by 0
        assert gridmod.step_plan(5e-324, 1e308) == (1, 5e-324)

    def test_linear_phase_factored(self):
        # every power of two from 1 to 4096, including n below m^2
        rng = np.random.default_rng(5)
        for k in range(13):
            spec = GridSpec(half_length=20.0, n=2**k, dt=1e-3)
            theta = rng.uniform(-1.0, 1.0, 4)
            got = gridmod._linear_phase(spec, 4)(theta.tolist())[:, 0]
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


class TestWeightTables:
    """Every guard and sampled observable reads a column of one x-space
    product (_stats) or one k-space product (_kstats): each column against
    the quantity it stands for, on boosted Gaussian packets and on the
    edge-hit run at its last sample before the guard fires."""

    VELOCITIES = np.array([0.7, -0.4])

    @classmethod
    def states(cls):
        packets = np.stack([init_gaussian(SPEC, c, velocity=v) for c, v in
                            zip((1.3, -2.0), cls.VELOCITIES)])
        _, mid = evolve(two_branch(EDGE_HIT, 0.0, 0.0, 0.5), 4.0, 0.0, 2.58,
                        EDGE_HIT, sample_every=10)
        return ((SPEC, packets[None]), (EDGE_HIT, gridmod._rows(mid)))

    def test_edge_column(self):
        for spec, psi in self.states():
            outer = np.abs(spec.x()) >= 0.95 * spec.half_length
            edge = np.sum(np.abs(psi[..., outer]) ** 2, axis=-1) * spec.dx
            stats = gridmod._stats(psi, gridmod._moment_weights(spec))
            np.testing.assert_allclose(stats[..., 3],
                                       edge, rtol=1e-12, atol=0.0)
        # the last state is the edge-hit one, just under the guard's limit
        assert 1e-9 < edge.min() < 1e-8

    def test_k_columns(self):
        for spec, psi in self.states():
            phi = np.fft.fft(psi)
            kstats = gridmod._kstats(phi, gridmod._k_weights(spec))
            density = np.abs(phi) ** 2
            k = spec.k()
            k_mean = (density @ k) / density.sum(axis=-1)
            v = phi.view(np.float64)
            parseval = np.einsum("...i,...i->...", v, v) * spec.dx / spec.n
            band = np.abs(k) >= 0.95 * np.pi / spec.dx
            share = density[..., band].sum(axis=-1) / density.sum(axis=-1)
            np.testing.assert_allclose(kstats[..., 1] / kstats[..., 0],
                                       k_mean, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(kstats[..., 0], parseval, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(kstats[..., 3] / kstats[..., 0], share,
                                       rtol=1e-12, atol=0.0)
            kinetic = density @ (0.5 * k * k) * spec.dx / spec.n
            np.testing.assert_allclose(kstats[..., 2], kinetic, rtol=0.0,
                                       atol=1e-12)
            if spec is SPEC:  # the width-1 packets: 1/4 + v^2/2
                np.testing.assert_allclose(
                    kstats[0, :, 2], 0.25 + 0.5 * self.VELOCITIES ** 2,
                    rtol=0.0, atol=1e-12)


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
