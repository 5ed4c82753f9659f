"""Closed-form propagator against an independent RK4 integration.

The frozen literals below were produced by tests/oracles.py (RK4 on the raw
coupled branch-center equations, dt = 5e-4, self-consistency under halving
better than 1e-13) and are asserted here at 1e-10.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravimean import analytic
from gravimean.analytic import (CoherentBranch, CoherentTwoBranchState,
                                common_center_initial_condition,
                                equilibrium_splitting,
                                smooth_initial_condition, total_force,
                                trajectory)
from oracles import overdamped_relax, rk4_centers

RK4_TOL = 1e-10

# Damping regimes of the offsets. Within 1e-5 of gamma = 2 the under- and
# overdamped formulas divide by a small sqrt|gamma^2/4 - 1|.
GAMMA_REGIMES = {
    "undamped": st.just(0.0),
    "underdamped": st.floats(0.0, 2.0 - 1e-5),
    "critical": st.just(2.0),
    "near_critical": st.floats(2.0 - 1e-5, 2.0 + 1e-5),
    "overdamped": st.floats(2.0 + 1e-5, 4.0),
    # log-uniform: the slow root -gamma/2 + sqrt(gamma^2/4 - 1) cancels to
    # 0 from gamma = 1e9 and gamma^2/4 overflows beyond 2.7e154
    "strongly_overdamped": st.floats(math.log(4.0), math.log(1e300)).map(
        math.exp),
}


def make_state(x_p, v_p, x_m, v_m, p):
    return CoherentTwoBranchState(CoherentBranch(x_p, v_p),
                                  CoherentBranch(x_m, v_m), p)


def at(state, f_meas, f_div, t, gamma=0.0):
    """The trajectory columns at the one time t, as floats."""
    out = trajectory(state, f_meas, f_div, [t], gamma=gamma)
    return {key: float(col[0]) for key, col in out.items()}


def centers(out):
    return np.array([out["x_plus"], out["v_plus"],
                     out["x_minus"], out["v_minus"]])


class TestBuildingBlocks:
    def test_total_force(self):
        assert total_force(0.5, 1.0, 0.3) == pytest.approx(0.3)
        assert total_force(1.0, 1.0, 0.0) == pytest.approx(1.0)
        assert total_force(0.0, 1.0, 0.0) == pytest.approx(-1.0)
        assert total_force(0.7, 1.0, 0.3) == pytest.approx(0.7)

    def test_equilibrium_splitting(self):
        d_p, d_m, d = equilibrium_splitting(0.7, 1.0)
        assert d_p == pytest.approx(0.6)
        assert d_m == pytest.approx(-1.4)
        assert d == pytest.approx(2.0)
        # the weighted mean of the offsets vanishes for any p
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            d_p, d_m, d = equilibrium_splitting(p, 1.3)
            assert p * d_p + (1 - p) * d_m == pytest.approx(0.0, abs=1e-15)
            assert d_p - d_m == pytest.approx(d)

    def test_smooth_initial_condition(self):
        st = smooth_initial_condition(0.3, 1.2, xbar0=0.5, vbar0=-0.1)
        assert st.com == pytest.approx(0.5)
        assert st.vbar == pytest.approx(-0.1)
        d_p, d_m, _ = equilibrium_splitting(0.3, 1.2)
        assert st.plus.center - st.com == pytest.approx(d_p)
        assert st.minus.center - st.com == pytest.approx(d_m)

    def test_common_center_initial_condition(self):
        st = common_center_initial_condition(0.4, xbar0=1.0, vbar0=0.2)
        assert st.plus.center == st.minus.center == pytest.approx(1.0)
        assert st.plus.velocity == st.minus.velocity == pytest.approx(0.2)
        assert st.plus.center - st.minus.center == pytest.approx(0.0)

    def test_smooth_coefficients(self):
        # xbar(t) = A + B t + C t^2: A and B from the values at t = 0, and
        # C from the second difference, which is 2 C h^2 for a quadratic
        st = smooth_initial_condition(0.7, 1.0, xbar0=0.2, vbar0=0.4)
        traj = trajectory(st, 1.0, 0.3, [0.0, 1.0, 2.0])
        assert traj["xbar"][0] == pytest.approx(0.2)
        assert 0.7 * traj["v_plus"][0] + 0.3 * traj["v_minus"][0] == \
            pytest.approx(0.4)
        c = 0.5 * (traj["xbar"][2] - 2.0 * traj["xbar"][1] + traj["xbar"][0])
        assert c == pytest.approx(0.5 * total_force(0.7, 1.0, 0.3))


class TestFrozenOracleValues:
    def test_smooth_rest_p07(self):
        # equilibrium offsets ride the uniformly accelerating mean:
        # F = 0.4, xbar(2) = 0.8, offsets frozen at +0.6 / -1.4
        st = smooth_initial_condition(0.7, 1.0)
        out = at(st, 1.0, 0.0, 2.0)
        assert out["xbar"] == pytest.approx(0.8, abs=1e-12)
        assert out["x_plus"] == pytest.approx(1.4, abs=5e-12)
        assert out["x_minus"] == pytest.approx(-0.6, abs=5e-12)

    def test_common_center_half_period(self):
        # delta_plus(t) = 1 - cos(t) for p = 0.5, f = 1: value 2 at t = pi
        st = common_center_initial_condition(0.5)
        out = at(st, 1.0, 0.0, np.pi)
        assert out["x_plus"] - out["xbar"] == pytest.approx(2.0, abs=1e-12)
        assert out["xbar"] == pytest.approx(0.0, abs=1e-12)

    def test_general_undamped(self):
        st = make_state(0.5, 0.2, -0.7, -0.1, 0.3)
        out = at(st, 1.2, -0.4, 5.0)
        frozen = (-10.149650333468387, -5.155927331769783,
                  -11.921578428513561, -4.090316857812967)
        assert centers(out) == pytest.approx(frozen, abs=RK4_TOL)

    def test_underdamped_settles_to_equilibrium(self):
        st = common_center_initial_condition(0.5)
        out = at(st, 1.0, 0.0, 20.0, gamma=0.5)
        delta_plus = out["x_plus"] - out["xbar"]
        assert delta_plus == pytest.approx(0.993279787450534, abs=RK4_TOL)
        assert abs(delta_plus - 1.0) < 0.01
        assert out["xbar"] == pytest.approx(0.0, abs=1e-12)

    def test_underdamped_general(self):
        st = make_state(1.0, -0.3, -0.5, 0.4, 0.6)
        out = at(st, 0.8, 0.25, 4.0, gamma=1.3)
        frozen = (4.239914559113586, 1.642895022467783,
                  2.640128161329618, 1.585657466298326)
        assert centers(out) == pytest.approx(frozen, abs=RK4_TOL)

    def test_critically_damped(self):
        st = common_center_initial_condition(0.25)
        out = at(st, 1.0, 0.0, 6.0, gamma=2.0)
        assert out["x_plus"] - out["xbar"] == pytest.approx(1.473973102145004,
                                                           abs=RK4_TOL)
        assert out["x_minus"] - out["xbar"] == pytest.approx(-0.491324367381669,
                                                            abs=RK4_TOL)
        assert out["xbar"] == pytest.approx(-9.0, abs=1e-12)

    def test_overdamped(self):
        st = common_center_initial_condition(0.8)
        out = at(st, 0.5, 0.1, 6.0, gamma=3.0)
        assert out["x_plus"] - out["xbar"] == pytest.approx(0.176329589275436,
                                                           abs=RK4_TOL)
        assert out["xbar"] == pytest.approx(7.2, abs=1e-12)


class TestAgainstRk4Sweep:
    def test_random_states_and_dampings(self):
        # raw coupled integration, no decoupling assumed by the oracle
        rng = np.random.default_rng(421)
        worst = 0.0
        for _ in range(60):
            p = rng.uniform(0.0, 1.0)
            f = rng.uniform(0.0, 2.0)
            fd = rng.uniform(-2.0, 2.0)
            gamma = float(rng.choice(
                [0.0, rng.uniform(0.1, 1.9), 2.0, rng.uniform(2.1, 4.0)]))
            y0 = rng.uniform(-2.0, 2.0, 4)
            t = float(rng.uniform(0.1, 10.0))
            st = make_state(*y0, p)
            out = at(st, f, fd, t, gamma=gamma)
            ref = rk4_centers(p, f, fd, y0, t, dt=0.001, gamma=gamma)
            worst = max(worst, float(np.max(np.abs(centers(out) - ref))))
        assert worst < 1e-8

    # RK4 at dt = 0.002 is unstable under strong damping; TestStrongDamping
    # checks that regime against decimal arithmetic instead
    @pytest.mark.parametrize("regime", [regime for regime in GAMMA_REGIMES
                                        if regime != "strongly_overdamped"])
    @settings(max_examples=5, deadline=None)
    @given(p=st.floats(0.0, 1.0), f=st.floats(0.0, 2.0),
           fd=st.floats(-2.0, 2.0),
           y0=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           t=st.floats(0.0, 10.0), data=st.data())
    def test_law_against_rk4(self, regime, p, f, fd, y0, t, data):
        gamma = data.draw(GAMMA_REGIMES[regime], label="gamma")
        out = at(make_state(*y0, p), f, fd, t, gamma=gamma)
        ref = rk4_centers(p, f, fd, y0, t, gamma=gamma)
        assert centers(out) == pytest.approx(ref, abs=1e-8)

    def test_mean_is_exactly_quadratic(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            f = rng.uniform(0.0, 2.0)
            fd = rng.uniform(-2.0, 2.0)
            y0 = rng.uniform(-2.0, 2.0, 4)
            st = make_state(*y0, p)
            t = 3.7
            force = total_force(p, f, fd)
            expect = st.com + st.vbar * t + 0.5 * force * t * t
            # the weighted mean of the branch columns and the xbar column
            out = at(st, f, fd, t)
            assert p * out["x_plus"] + (1 - p) * out["x_minus"] == \
                pytest.approx(expect, abs=1e-12)
            assert out["xbar"] == pytest.approx(expect, abs=1e-12)

    def test_mean_stays_quadratic_with_damping(self):
        # damping acts on the relative coordinate; the mean keeps
        # xbar'' = F regardless of gamma
        st = make_state(0.3, 0.5, -0.8, -0.2, 0.65)
        force = total_force(0.65, 1.1, 0.2)
        for gamma in (0.0, 0.7, 2.0, 3.5):
            out = at(st, 1.1, 0.2, 4.0, gamma=gamma)
            expect = st.com + st.vbar * 4.0 + 0.5 * force * 16.0
            assert out["xbar"] == pytest.approx(expect, abs=1e-12)


class TestStrongDamping:
    """The overdamped offsets against the decimal two-root solution: the
    fast mode over a few 1/gamma, and the slow one over a few gamma, where
    it relaxes at the rate 1/(gamma/2 + sqrt(gamma^2/4 - 1))."""

    @settings(max_examples=60, deadline=None)
    @given(gamma=GAMMA_REGIMES["strongly_overdamped"],
           a0=st.floats(-2.0, 2.0), s0=st.floats(-2.0, 2.0),
           decays=st.floats(0.0, 20.0),
           scale=st.sampled_from(["fast", "unit", "slow"]))
    def test_offsets_against_decimal(self, gamma, a0, s0, decays, scale):
        t = decays * {"fast": 1.0 / gamma, "unit": 1.0, "slow": gamma}[scale]
        a, da = analytic._relax(a0, s0, gamma, np.array([t]))
        want = overdamped_relax(a0, s0, gamma, t)
        assert (float(a[0]), float(da[0])) == pytest.approx(
            want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1e9, 1e200])
    def test_offsets_relax(self, gamma):
        # both branches start at the mean, and the splitting d relaxes to
        # d* = 2 at the slow rate, 1/gamma to 1e-18 here: by t = 1e4 it is
        # 2e-5 at gamma = 1e9, below the roundoff of x_plus - x_minus at 1e200
        state = common_center_initial_condition(0.6)
        out = at(state, 1.0, 0.2, 1e4, gamma=gamma)
        assert all(math.isfinite(value) for value in out.values())
        assert out["x_plus"] - out["x_minus"] == pytest.approx(
            -2.0 * math.expm1(-1e4 / gamma), rel=1e-3, abs=1e-8)


class TestSmoothSolution:
    def test_offsets_frozen_over_time(self):
        st = smooth_initial_condition(0.7, 1.0, xbar0=0.3, vbar0=-0.2)
        traj = trajectory(st, 1.0, 0.3, np.linspace(0.0, 10.0, 41))
        for name, branch in (("plus", st.plus), ("minus", st.minus)):
            offset = traj[f"x_{name}"] - traj["xbar"]
            assert offset == pytest.approx(
                np.full(41, branch.center - st.com), abs=1e-12)

    def test_mirror_symmetry(self):
        # swapping branches, p -> 1-p, and flipping f_div mirrors the motion
        st = make_state(0.4, 0.1, -0.9, 0.3, 0.35)
        mirrored = make_state(0.9, -0.3, -0.4, -0.1, 0.65)
        out = at(st, 1.0, 0.6, 3.0)
        out_m = at(mirrored, 1.0, -0.6, 3.0)
        assert out_m["x_plus"] == pytest.approx(-out["x_minus"], abs=1e-12)
        assert out_m["x_minus"] == pytest.approx(-out["x_plus"], abs=1e-12)
        assert out_m["xbar"] == pytest.approx(-out["xbar"], abs=1e-12)


class TestOscillation:
    def test_splitting_bounded(self):
        # common-center start: d(t) = d*(1 - cos t) stays in [0, 2 d*]
        st = common_center_initial_condition(0.5)
        d_star = equilibrium_splitting(0.5, 1.0)[2]
        traj = trajectory(st, 1.0, 0.0, np.linspace(0.0, 25.0, 173))
        splitting = traj["x_plus"] - traj["x_minus"]
        assert np.all(-1e-12 <= splitting)
        assert np.all(splitting <= 2.0 * d_star + 1e-12)

    def test_time_average_is_equilibrium(self):
        # uniform samples over whole periods average cos to zero exactly
        st = common_center_initial_condition(0.5)
        n, periods = 256, 3
        times = np.arange(n * periods) * (2.0 * np.pi / n)
        traj = trajectory(st, 1.0, 0.0, times)
        delta_plus = traj["x_plus"] - traj["xbar"]
        assert np.mean(delta_plus) == pytest.approx(1.0, abs=1e-12)

    def test_fft_peak_at_unit_frequency(self):
        st = common_center_initial_condition(0.5)
        n = 2048
        t_max = 20.0 * np.pi
        times = np.arange(n) * (t_max / n)
        traj = trajectory(st, 1.0, 0.0, times)
        delta_plus = traj["x_plus"] - traj["xbar"]
        spectrum = np.abs(np.fft.rfft(delta_plus - np.mean(delta_plus)))
        peak = int(np.argmax(spectrum[1:])) + 1
        freqs = 2.0 * np.pi * np.fft.rfftfreq(n, d=t_max / n)
        assert abs(freqs[peak] - 1.0) <= freqs[1]  # within one bin

    def test_trajectory_shape_and_keys(self):
        st = smooth_initial_condition(0.5, 1.0)
        times = np.linspace(0.0, 2.0, 21)
        traj = trajectory(st, 1.0, 0.3, times)
        assert set(traj) == {"t", "xbar", "x_plus", "x_minus",
                             "v_plus", "v_minus"}
        assert all(len(traj[k]) == 21 for k in traj)
        assert traj["x_plus"][0] == pytest.approx(st.plus.center)


class TestBlocks:
    """evolve --mode analytic evaluates the closed form one block of rows at
    a time (io.emit_trajectory); its CSV is byte-identical to the whole
    array's only if every block gives the same doubles."""

    @pytest.mark.parametrize("regime", ["undamped", "underdamped",
                                        "critical", "overdamped",
                                        "strongly_overdamped"])
    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(0.0, 1.0), f=st.floats(0.0, 2.0),
           fd=st.floats(-2.0, 2.0),
           y0=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           dt=st.floats(1e-3, 10.0), block=st.integers(2, 3000),
           whole=st.integers(0, 4), data=st.data())
    def test_blocks_equal_whole_array(self, regime, p, f, fd, y0, dt, block,
                                      whole, data):
        gamma = data.draw(GAMMA_REGIMES[regime], label="gamma")
        # a last block of 1 to block - 1 rows: blocks never divide the rows
        rows = whole * block + data.draw(st.integers(1, block - 1),
                                         label="last")
        state, times = make_state(*y0, p), np.arange(rows) * dt
        full = trajectory(state, f, fd, times, gamma=gamma)
        parts = [trajectory(state, f, fd, times[start:start + block],
                            gamma=gamma) for start in range(0, rows, block)]
        for key, column in full.items():
            joined = np.concatenate([part[key] for part in parts])
            assert joined.tobytes() == column.tobytes(), key


class TestValidation:
    def test_negative_time_rejected(self):
        st = common_center_initial_condition(0.5)
        with pytest.raises(ValueError):
            trajectory(st, 1.0, 0.0, [-1.0])

    def test_negative_gamma_rejected(self):
        st = common_center_initial_condition(0.5)
        with pytest.raises(ValueError):
            trajectory(st, 1.0, 0.0, [1.0], gamma=-0.5)

    def test_empty_times_rejected(self):
        st = common_center_initial_condition(0.5)
        with pytest.raises(ValueError):
            trajectory(st, 1.0, 0.0, np.array([]))

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            make_state(0.0, 0.0, 0.0, 0.0, 1.5)

    def test_building_blocks_validate_weight(self):
        says = r"^p must be in \[0, 1\], got 1.5$"
        with pytest.raises(ValueError, match=says):
            total_force(1.5, 1.0, 0.0)
        with pytest.raises(ValueError, match=says):
            equilibrium_splitting(1.5, 1.0)
