"""Independent references used to freeze expected values.

Plain RK4 on the coupled branch-center equations. Deliberately dumb: no
decoupling into mean and offsets, no closed forms, just the forces. Damping
acts on the velocity relative to the weighted mean, which leaves the mean
motion undamped.

Direct evolution of every trial of an ensemble block on the grid: the
reference that the Avron-Herbst map of montecarlo._mapped_displacements,
which evolves three rows per block, is compared against.

The split-step core as a plain step loop: every product, phase and guard
on whole arrays, nothing carried from one step to the next but the block,
the phase and the last k-space product. grid.evolve_block must match it bit
for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gravimean import grid as gridmod
from gravimean import montecarlo
from gravimean.grid import GridTrajectory, NumericalError


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


def grid_displacements(p: float, f_meas: float, f_div: np.ndarray, tau: float,
                       grid_spec, first: int) -> np.ndarray:
    """Mean displacement of each trial of one block, trial first + b under
    f_div[b], every trial evolved directly in one block."""
    return montecarlo._evolve_trials(p, f_meas, f_div, tau, grid_spec,
                                     range(first, first + len(f_div)))


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
