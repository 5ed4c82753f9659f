"""Closed-form propagation of two coherent wave-packet branches.

Everything here is dimensionless: lengths in units of the packet width x0,
times in units of 1/omega, forces in units of M omega^2 x0. Each branch is a
coherent state whose center obeys the exact packet-mean equations

    x_pm'' = -(x_pm - xbar) +/- f_meas + f_div - gamma (x_pm' - xbar'),

with xbar = p x_plus + (1 - p) x_minus. These are exact, not approximate,
because each branch sees a harmonic plus linear potential. The weighted mean
decouples completely: xbar'' equals the total force

    F = 2 (p - 1/2) f_meas + f_div

for every initial condition, so xbar(t) is the quadratic
xbar(0) + vbar(0) t + F t^2 / 2. The offsets delta_pm = x_pm - xbar are
independent oscillators around the equilibrium splitting

    delta_plus* = 2 (1 - p) f_meas,   delta_minus* = -2 p f_meas,

optionally damped at rate gamma (a phenomenological knob, default 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoherentBranch:
    """One coherent packet of width 1: its center and velocity."""

    center: float
    velocity: float


@dataclass(frozen=True)
class CoherentTwoBranchState:
    plus: CoherentBranch
    minus: CoherentBranch
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")

    @property
    def com(self) -> float:
        """Weighted mean position p x_plus + (1 - p) x_minus."""
        return self.p * self.plus.center + (1.0 - self.p) * self.minus.center

    @property
    def vbar(self) -> float:
        return self.p * self.plus.velocity + (1.0 - self.p) * self.minus.velocity

    @property
    def delta_plus(self) -> float:
        return self.plus.center - self.com

    @property
    def delta_minus(self) -> float:
        return self.minus.center - self.com

    @property
    def splitting(self) -> float:
        """Branch separation d = x_plus - x_minus."""
        return self.plus.center - self.minus.center


def total_force(p: float, f_meas: float, f_div: float) -> float:
    """Net force on the weighted mean: 2 (p - 1/2) f_meas + f_div."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    return 2.0 * (p - 0.5) * f_meas + f_div


def equilibrium_splitting(p: float, f_meas: float) -> tuple[float, float, float]:
    """Branch offsets that balance measurement force against self-gravity.

    Returns (delta_plus*, delta_minus*, d*) with d* = 2 f_meas. The weighted
    offset p delta_plus* + (1 - p) delta_minus* vanishes identically.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    d_plus = 2.0 * (1.0 - p) * f_meas
    d_minus = -2.0 * p * f_meas
    return d_plus, d_minus, d_plus - d_minus


def smooth_initial_condition(p: float, f_meas: float, xbar0: float = 0.0,
                             vbar0: float = 0.0) -> CoherentTwoBranchState:
    """State with branches at their equilibrium offsets and common velocity.

    Evolving this state leaves the offsets constant; only the mean moves,
    uniformly accelerated by the total force.
    """
    d_plus, d_minus, _ = equilibrium_splitting(p, f_meas)
    return CoherentTwoBranchState(
        plus=CoherentBranch(center=xbar0 + d_plus, velocity=vbar0),
        minus=CoherentBranch(center=xbar0 + d_minus, velocity=vbar0),
        p=p)


def common_center_initial_condition(p: float, xbar0: float = 0.0,
                                    vbar0: float = 0.0) -> CoherentTwoBranchState:
    """Both branches at the same center and velocity (maximal oscillation)."""
    return CoherentTwoBranchState(
        plus=CoherentBranch(center=xbar0, velocity=vbar0),
        minus=CoherentBranch(center=xbar0, velocity=vbar0),
        p=p)


def _relax(a0, s0, gamma: float, t):
    """Solve a'' = -a - gamma a' with a(0) = a0, a'(0) = s0.

    Returns (a, a') at time t. Branches on the discriminant: oscillatory
    below gamma = 2, critically damped at 2, overdamped above. Accepts
    scalar or array t.
    """
    if gamma == 0.0:
        c, s = np.cos(t), np.sin(t)
        return a0 * c + s0 * s, -a0 * s + s0 * c
    disc = 0.25 * gamma * gamma - 1.0
    if abs(disc) < 1e-12:
        r = -0.5 * gamma
        b = s0 - r * a0
        e = np.exp(r * t)
        a = (a0 + b * t) * e
        return a, (b + r * (a0 + b * t)) * e
    if disc < 0.0:
        wd = math.sqrt(-disc)
        b = (s0 + 0.5 * gamma * a0) / wd
        e = np.exp(-0.5 * gamma * t)
        c, s = np.cos(wd * t), np.sin(wd * t)
        a = e * (a0 * c + b * s)
        da = e * ((b * wd - 0.5 * gamma * a0) * c - (a0 * wd + 0.5 * gamma * b) * s)
        return a, da
    sq = math.sqrt(disc)
    r1, r2 = -0.5 * gamma + sq, -0.5 * gamma - sq
    c1 = (s0 - r2 * a0) / (r1 - r2)
    c2 = a0 - c1
    e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
    return c1 * e1 + c2 * e2, c1 * r1 * e1 + c2 * r2 * e2


def trajectory(state: CoherentTwoBranchState, f_meas: float, f_div: float,
               times, gamma: float = 0.0) -> dict:
    """Sample the closed form on an array of times.

    Returns arrays t, xbar, x_plus, x_minus, v_plus, v_minus.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ValueError("times must be non-empty")
    if np.any(t < 0.0):
        raise ValueError("times must be >= 0")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    force = total_force(state.p, f_meas, f_div)
    m0, v0 = state.com, state.vbar
    m_t = m0 + v0 * t + 0.5 * force * t * t
    v_t = v0 + force * t
    out = {"t": t, "xbar": m_t}
    d_eqs = equilibrium_splitting(state.p, f_meas)
    for name, branch, d_eq in (("plus", state.plus, d_eqs[0]),
                               ("minus", state.minus, d_eqs[1])):
        a, s = _relax((branch.center - m0) - d_eq, branch.velocity - v0, gamma, t)
        out[f"x_{name}"] = m_t + d_eq + a
        out[f"v_{name}"] = v_t + s
    return out


def evolve(state: CoherentTwoBranchState, f_meas: float, f_div: float, t: float,
           gamma: float = 0.0) -> CoherentTwoBranchState:
    """Propagate the state to time t in closed form: trajectory() at one time.

    The mean follows the exact quadratic; each offset relaxes around its
    equilibrium, undamped for gamma = 0. Damping acts on the offsets only,
    never on the mean.
    """
    out = trajectory(state, f_meas, f_div, [t], gamma=gamma)
    return CoherentTwoBranchState(
        plus=CoherentBranch(float(out["x_plus"][0]), float(out["v_plus"][0])),
        minus=CoherentBranch(float(out["x_minus"][0]), float(out["v_minus"][0])),
        p=state.p)
