"""Independent references used to freeze expected values.

Plain RK4 on the coupled branch-center equations. Deliberately dumb: no
decoupling into mean and offsets, no closed forms, just the forces. Damping
acts on the velocity relative to the weighted mean, which leaves the mean
motion undamped.

Direct evolution of every trial of an ensemble block on the grid: the
reference that the Avron-Herbst map of an ensemble, from the three rows of
montecarlo._grid_reference, is compared against.

The split-step core as a plain step loop: every product, phase and guard
on whole arrays, nothing carried from one step to the next but the block,
the phase and the last k-space product. grid.evolve_block must match it bit
for bit.

The overdamped relaxation of the branch offsets as the textbook sum of two
exponentials, both roots -gamma/2 +- sqrt(gamma^2/4 - 1) taken as written,
in decimal arithmetic with digits enough to resolve the slow root.

The seed stream of the montecarlo module docstring on Python integers, one
trial at a time: mix64, trial_seed and sample_fdiv, the bit-exact reference
of the block sampler montecarlo._sample_fdiv_block.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np

from gravimean import grid as gridmod
from gravimean import montecarlo
from gravimean.grid import GridTrajectory, NumericalError

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def trial_seed(master_seed: int, index: int) -> int:
    """Seed of trial `index`: output `index` of the splitmix64 stream."""
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index!r}")
    return mix64((master_seed + (index + 1) * GOLDEN) & MASK64)


def sample_fdiv(seed: int, f_meas: float) -> float:
    """The frozen diverting force for one trial, uniform on [-f_meas, +f_meas)."""
    u = (mix64((seed + GOLDEN) & MASK64) >> 11) * 2.0**-53
    return (2.0 * u - 1.0) * f_meas


def branch_accel(y: np.ndarray, p: float, f_meas: float, f_div: float,
                 gamma: float) -> np.ndarray:
    x_p, v_p, x_m, v_m = y
    xbar = p * x_p + (1.0 - p) * x_m
    vbar = p * v_p + (1.0 - p) * v_m
    a_p = -(x_p - xbar) + f_meas + f_div - gamma * (v_p - vbar)
    a_m = -(x_m - xbar) - f_meas + f_div - gamma * (v_m - vbar)
    return np.array([v_p, a_p, v_m, a_m])


def rk4_centers(p: float, f_meas: float, f_div: float, y0, t_max: float,
                dt: float = 0.002, gamma: float = 0.0) -> np.ndarray:
    """Integrate (x_plus, v_plus, x_minus, v_minus) from 0 to t_max."""
    n = max(1, int(round(t_max / dt)))
    h = t_max / n
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(n):
        k1 = branch_accel(y, p, f_meas, f_div, gamma)
        k2 = branch_accel(y + 0.5 * h * k1, p, f_meas, f_div, gamma)
        k3 = branch_accel(y + 0.5 * h * k2, p, f_meas, f_div, gamma)
        k4 = branch_accel(y + h * k3, p, f_meas, f_div, gamma)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_path(p: float, f_meas: float, f_div: float, y0, times,
             dt: float = 0.002, gamma: float = 0.0) -> np.ndarray:
    """States at the given increasing sample times (first may be 0)."""
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), 4))
    y = np.asarray(y0, dtype=float).copy()
    t_prev = 0.0
    for i, t in enumerate(times):
        span = t - t_prev
        if span > 0.0:
            y = rk4_centers(p, f_meas, f_div, y, span, dt=dt, gamma=gamma)
        out[i] = y
        t_prev = t
    return out


def overdamped_relax(a0: float, s0: float, gamma: float, t: float,
                     digits: int = 700) -> tuple[float, float]:
    """(a, a') at time t for a'' = -a - gamma a', a(0) = a0, a'(0) = s0 and
    gamma > 2. The slow root is about -1/gamma, and gamma^2/4 - 1 needs
    twice the digits of gamma to hold the 1: 700 digits resolve it to well
    beyond a double for gamma up to 1e300."""
    with localcontext() as ctx:
        ctx.prec = digits
        a0, s0, gamma, t = map(Decimal, (a0, s0, gamma, t))
        half = gamma / 2
        sq = (half * half - 1).sqrt()
        r1, r2 = -half + sq, -half - sq
        c1 = (s0 - r2 * a0) / (r1 - r2)
        c2 = a0 - c1
        e1, e2 = (r1 * t).exp(), (r2 * t).exp()
        return float(c1 * e1 + c2 * e2), float(c1 * r1 * e1 + c2 * r2 * e2)


def grid_displacements(p: float, f_meas: float, f_div: np.ndarray, tau: float,
                       grid_spec, first: int) -> np.ndarray:
    """Mean displacement of each trial of one block, trial first + b under
    f_div[b], every trial evolved directly in one block."""
    return montecarlo._evolve_trials(
        p, f_meas, f_div, tau, grid_spec,
        [f"trial {i}" for i in range(first, first + len(f_div))])


def _guard(values: np.ndarray, limit: float, quantity: str, step_no: int,
           t: float) -> None:
    if not np.all(values <= limit):
        row, branch = np.argwhere(~(values <= limit))[0]
        raise NumericalError(f"{quantity} of row {row}, branch {branch} at "
                             f"step {step_no}, t={t!r}", int(row))


def reference_block(psi: np.ndarray, p: float, f_meas: float,
                    f_div: np.ndarray, t_max: float, grid,
                    sample_every: int):
    """The (trajectory, final block, phase) of grid.evolve_block, step by
    step in numpy, without its pre-flight."""
    n_steps, dt = gridmod.step_plan(t_max, grid.dt)
    grid = replace(grid, dt=dt)
    x_weights, k_weights = gridmod._moment_weights(grid), gridmod._k_weights(grid)
    w = np.array([p, 1.0 - p])
    sign = np.array([[1.0], [-1.0]])
    n = grid.n
    m = 1 << (n.bit_length() - 1) // 2

    def density(a):
        return a.real ** 2 + a.imag ** 2

    def moments(stats, step_no, t):
        _guard(np.abs(stats[..., 0] - 1.0), 1e-6, "norm", step_no, t)
        per_branch = stats[..., 1:3] / stats[..., :1]
        xbar, x2bar = (w @ per_branch).T
        _guard(xbar * xbar - 1e-12 - x2bar, 0.0, "variance", step_no, t)
        _guard(stats[..., 3], 1e-8, "edge", step_no, t)
        return xbar, x2bar, per_branch[..., 0]

    rows = 1 + -(-n_steps // sample_every)
    times = np.full(rows, np.nan)
    table = np.full((7, rows, len(psi)), np.nan)

    def sample(stats, kstats, step_no, t):
        xbar, x2bar, means = moments(stats, step_no, t)
        force = (-sign[:, 0] * f_meas - f_div[:, None]) * stats[..., 1]
        energy = 0.5 * (x2bar - xbar ** 2) + (kstats[..., 2] + force) @ w
        row = -(-step_no // sample_every)
        times[row] = t
        table[:, row] = (xbar, x2bar, *means.T, *stats[..., 0].T, energy)

    phi = np.fft.fft(psi)
    kstats = density(phi) @ k_weights
    _guard(kstats[..., 3] / kstats[..., 0], 1e-8, "aliasing", 0, 0.0)
    sample(density(psi) @ x_weights, kstats, 0, 0.0)
    potential = gridmod._potential(f_meas, grid)
    kin = gridmod._kinetic_half(grid)
    points = gridmod._phase_points(grid)
    phase = np.zeros(len(psi))
    phi = phi * kin
    for i in range(1, n_steps + 1):
        t = t_max if i == n_steps else i * dt
        x = np.fft.ifft(phi)
        xbar, x2bar, _ = moments(density(x) @ x_weights, i, t)
        both = np.exp((dt * (xbar + f_div))[:, None] * points)
        linear = both[:, :n // m, None] * both[:, None, n // m:]
        x = x * potential * linear.reshape(len(psi), 1, n)
        phi = np.fft.fft(x)
        phase -= 0.5 * x2bar * dt
        before, kstats = kstats, density(phi) @ k_weights
        _guard(np.abs(kstats[..., 0] - before[..., 0]), 1e-8, "drift", i, t)
        _guard(kstats[..., 3] / kstats[..., 0], 1e-8, "aliasing", i, t)
        if i == n_steps or i % sample_every == 0:
            psi = np.fft.ifft(phi * kin)
            sample(density(psi) @ x_weights, kstats, i, t)
        phi = phi * (kin * kin)
    return GridTrajectory(times, *table), psi, phase
