"""Split-step spectral solver for the two-branch self-consistent dynamics.

Independent numerical check on the closed-form propagator. Each branch obeys

    i dpsi_pm/dt = [ -1/2 d^2/dx^2 + V_pm(x, t) ] psi_pm,
    V_pm(x) = x^2/2 - xbar x -/+ f_meas x - f_div x + x2bar/2,

where xbar and x2bar are the weighted first and second moments of the two
branch densities, recomputed self-consistently as the state evolves. All
quantities are dimensionless (packet-width and 1/omega units).

Time stepping is a symmetric Strang split: half a kinetic step applied
spectrally, the full potential phase with moments taken from the
post-half-kinetic densities (midpoint coupling, second order overall), then
the second half kinetic step. The x2bar/2 piece of the potential is spatially
constant, so it is accumulated exactly as a scalar global phase instead of
being folded into the array multiplication; densities and all other
observables are unaffected by construction.

The domain is periodic, which the physics never probes as long as the packets
stay away from the edges; a density guard aborts the run otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NumericalError(RuntimeError):
    """Numerical-failure conditions: norm drift, edge leakage, bad moments."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length) with time step dt."""

    half_length: float
    n: int
    dt: float

    def __post_init__(self):
        if self.half_length <= 0.0:
            raise ValueError(f"half_length must be > 0, got {self.half_length!r}")
        if self.n <= 0 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a positive power of two, got {self.n!r}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    def x(self) -> np.ndarray:
        return _grid_x(self)

    def k(self) -> np.ndarray:
        return _grid_k(self)


@lru_cache(maxsize=16)
def _grid_x(spec: GridSpec) -> np.ndarray:
    x = -spec.half_length + spec.dx * np.arange(spec.n)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=16)
def _grid_k(spec: GridSpec) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(spec.n, d=spec.dx)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=16)
def _kinetic_half(spec: GridSpec) -> np.ndarray:
    kin = np.exp(-0.25j * _grid_k(spec) ** 2 * spec.dt)
    kin.flags.writeable = False
    return kin


@dataclass
class GridState:
    """Two branch wave functions on a common grid.

    Branches are individually normalized; the weight p enters only through
    the moments and observables. global_phase accumulates the spatially
    constant part of the potential, exp(i global_phase) being the factor a
    materialized wave function would carry.
    """

    psi_plus: np.ndarray
    psi_minus: np.ndarray
    p: float
    t: float = 0.0
    global_phase: float = 0.0


@dataclass(frozen=True)
class Moments:
    """Weighted density moments xbar and x2bar."""

    xbar: float
    x2bar: float

    def __post_init__(self):
        if self.x2bar < self.xbar**2 - 1e-12:
            raise ValueError("x2bar < xbar^2: negative variance")


@dataclass
class GridTrajectory:
    """Observables sampled along one evolution, one array entry per sample."""

    t: np.ndarray
    xbar: np.ndarray
    x2bar: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    norm_plus: np.ndarray
    norm_minus: np.ndarray
    energy: np.ndarray


def init_gaussian(grid: GridSpec, center: float,
                  velocity: float = 0.0) -> np.ndarray:
    """Normalized width-1 Gaussian packet with a momentum boost.

    The density |psi|^2 has variance 1/2: the ground state of the
    unit-frequency oscillator that the self-consistent potential presents to
    each branch.
    """
    if not (-grid.half_length + 5.0 < center < grid.half_length - 5.0):
        raise ValueError(
            f"packet at {center!r} sits too close to the domain edge "
            f"+/-{grid.half_length!r}")
    x = grid.x()
    psi = np.pi ** -0.25 * np.exp(-((x - center) ** 2) / 2.0 + 1j * velocity * x)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return psi


def _norm(psi: np.ndarray, grid: GridSpec) -> float:
    return float(np.sum(np.abs(psi) ** 2) * grid.dx)


def _branch_stats(psi: np.ndarray, grid: GridSpec) -> tuple[float, float, float]:
    """Norm, mean position, and mean squared position of one branch."""
    rho = np.abs(psi) ** 2
    x = grid.x()
    norm = float(np.sum(rho) * grid.dx)
    mean = float(np.sum(x * rho) * grid.dx / norm)
    second = float(np.sum(x * x * rho) * grid.dx / norm)
    return norm, mean, second


def _stats(state: GridState, grid: GridSpec) -> tuple[tuple, tuple, float, float]:
    """Stats of the plus and minus branches, then the weighted xbar and x2bar."""
    plus = _branch_stats(state.psi_plus, grid)
    minus = _branch_stats(state.psi_minus, grid)
    p = state.p
    return (plus, minus, p * plus[1] + (1.0 - p) * minus[1],
            p * plus[2] + (1.0 - p) * minus[2])


def moments(state: GridState, grid: GridSpec) -> Moments:
    """Weighted moments of the two-branch density.

    Branch norms must hold to 1e-6; a larger deviation means the run has
    already gone numerically bad and is reported as such.
    """
    plus, minus, xbar, x2bar = _stats(state, grid)
    for label, (n, _, _) in (("plus", plus), ("minus", minus)):
        if abs(n - 1.0) > 1e-6:
            raise NumericalError(f"{label} branch norm {n!r} deviates from 1 by more than 1e-6")
    return Moments(xbar=xbar, x2bar=x2bar)


def step(state: GridState, f_meas: float, f_div: float, grid: GridSpec,
         include_x2_phase: bool = True) -> GridState:
    """One Strang step of length dt.

    Half kinetic (spectral), potential phase for the full dt with moments
    recomputed from the half-stepped densities, half kinetic. The constant
    x2bar/2 term goes into global_phase (see module docstring);
    include_x2_phase=False drops it, which can change nothing observable.
    """
    kin = _kinetic_half(grid)
    x = grid.x()
    dt = grid.dt

    n_plus_in = _norm(state.psi_plus, grid)
    n_minus_in = _norm(state.psi_minus, grid)

    psi_p = np.fft.ifft(np.fft.fft(state.psi_plus) * kin)
    psi_m = np.fft.ifft(np.fft.fft(state.psi_minus) * kin)

    mid = moments(GridState(psi_p, psi_m, state.p), grid)
    common = 0.5 * x * x - (mid.xbar + f_div) * x
    psi_p = psi_p * np.exp(-1j * dt * (common - f_meas * x))
    psi_m = psi_m * np.exp(-1j * dt * (common + f_meas * x))

    psi_p = np.fft.ifft(np.fft.fft(psi_p) * kin)
    psi_m = np.fft.ifft(np.fft.fft(psi_m) * kin)

    for label, before, psi in (("plus", n_plus_in, psi_p),
                               ("minus", n_minus_in, psi_m)):
        after = _norm(psi, grid)
        if abs(after - before) > 1e-8:
            raise NumericalError(
                f"{label} branch norm drifted by {abs(after - before)!r} in one step")

    phase = state.global_phase
    if include_x2_phase:
        phase -= 0.5 * mid.x2bar * dt
    return GridState(psi_plus=psi_p, psi_minus=psi_m, p=state.p,
                     t=state.t + dt, global_phase=phase)


def energy(state: GridState, f_meas: float, f_div: float, grid: GridSpec) -> float:
    """Conserved energy functional of the self-consistent dynamics.

    Weighted kinetic and external-force terms per branch plus the pairwise
    interaction energy, which for the quadratic kernel (x - y)^2 / 2 reduces
    to (x2bar - xbar^2) / 2. The constant-phase part of the potential does
    not enter.
    """
    x = grid.x()
    k = grid.k()
    mom = moments(state, grid)
    total = 0.5 * (mom.x2bar - mom.xbar**2)
    for weight, psi, sign in ((state.p, state.psi_plus, +1.0),
                              ((1.0 - state.p), state.psi_minus, -1.0)):
        psi_hat = np.fft.fft(psi)
        kinetic = 0.5 * float(np.sum(k * k * np.abs(psi_hat) ** 2)) * grid.dx / grid.n
        force = float(np.sum((-sign * f_meas - f_div) * x * np.abs(psi) ** 2)) * grid.dx
        total += weight * (kinetic + force)
    return total


def _edge_check(state: GridState, grid: GridSpec) -> None:
    """Abort if either branch puts real density in the outer 5% of the box."""
    x = grid.x()
    outer = np.abs(x) >= 0.95 * grid.half_length
    for label, psi in (("plus", state.psi_plus), ("minus", state.psi_minus)):
        leaked = float(np.sum(np.abs(psi[outer]) ** 2) * grid.dx)
        if leaked > 1e-8:
            raise NumericalError(
                f"{label} branch density {leaked!r} in the outer 5% of the domain "
                f"at t={state.t!r}; enlarge half_length or shorten the run")


def _required_half_length(state: GridState, f_meas: float, f_div: float,
                          t_max: float, grid: GridSpec) -> float:
    """Box size needed for this run: margin + mean excursion + packet width.

    The mean excursion is the exact quadratic bound; branch offsets and
    oscillation amplitudes live inside the fixed margin of 8.
    """
    (_, mp, sp), (_, mm, sm), xbar0, _ = _stats(state, grid)
    p = state.p
    k = grid.k()
    vbar0 = 0.0
    for weight, psi in ((p, state.psi_plus), ((1.0 - p), state.psi_minus)):
        psi_hat = np.fft.fft(psi)
        dens = np.abs(psi_hat) ** 2
        vbar0 += weight * float(np.sum(k * dens) / np.sum(dens))
    force = 2.0 * (p - 0.5) * f_meas + f_div
    candidates = [0.0, t_max]
    if force != 0.0:
        vertex = -vbar0 / force
        if 0.0 < vertex < t_max:
            candidates.append(vertex)
    max_mean = max(abs(xbar0 + vbar0 * t + 0.5 * force * t * t) for t in candidates)
    width_p = np.sqrt(2.0 * max(sp - mp * mp, 0.0))
    width_m = np.sqrt(2.0 * max(sm - mm * mm, 0.0))
    return 8.0 + max_mean + 3.0 * max(width_p, width_m)


def evolve(state0: GridState, f_meas: float, f_div: float, t_max: float,
           grid: GridSpec, sample_every: int = 10,
           include_x2_phase: bool = True) -> tuple[GridTrajectory, GridState]:
    """Run repeated steps to t_max, sampling observables every few steps.

    Samples land on step boundaries: step 0, every sample_every-th step, and
    the final step. Returns the sampled trajectory and the final state.
    """
    if t_max <= 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
    needed = float(_required_half_length(state0, f_meas, f_div, t_max, grid))
    if grid.half_length < needed:
        raise ValueError(
            f"half_length {grid.half_length!r} too small for this run; "
            f"need at least {needed:.1f}")

    n_steps = max(1, int(round(t_max / grid.dt)))
    t0 = state0.t
    rows = {name: [] for name in ("t", "xbar", "x2bar", "x_plus", "x_minus",
                                  "norm_plus", "norm_minus", "energy")}

    def sample(s: GridState) -> None:
        _edge_check(s, grid)
        (np_, mp, _), (nm, mm, _), xbar, x2bar = _stats(s, grid)
        rows["t"].append(s.t)
        rows["xbar"].append(xbar)
        rows["x2bar"].append(x2bar)
        rows["x_plus"].append(mp)
        rows["x_minus"].append(mm)
        rows["norm_plus"].append(np_)
        rows["norm_minus"].append(nm)
        rows["energy"].append(energy(s, f_meas, f_div, grid))

    state = state0
    sample(state)
    for i in range(1, n_steps + 1):
        state = step(state, f_meas, f_div, grid, include_x2_phase=include_x2_phase)
        state.t = t0 + i * grid.dt
        if i % sample_every == 0 or i == n_steps:
            sample(state)
    traj = GridTrajectory(**{name: np.array(vals) for name, vals in rows.items()})
    return traj, state
