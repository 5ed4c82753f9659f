"""Independent references used to freeze expected values.

Plain RK4 on the coupled branch-center equations. Deliberately dumb: no
decoupling into mean and offsets, no closed forms, just the forces. Damping
acts on the velocity relative to the weighted mean, which leaves the mean
motion undamped.

Direct evolution of every trial of an ensemble block on the grid: the
reference that the Avron-Herbst map of montecarlo._mapped_displacements,
which evolves three rows per block, is compared against.
"""

from __future__ import annotations

import numpy as np

from gravimean import montecarlo


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
