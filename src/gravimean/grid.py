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

One core advances a block of B independent runs held as one array of shape
(B, 2, n): row b holds the plus and minus branch of run b. The runs share the
grid, p and f_meas and each has its own f_div. The block is carried in
k-space from step to step: the second half kinetic step of one step and the
first of the next combine into one full kinetic factor, so a step costs one
batched FFT pair along the last axis, an ifft to the midpoint and an fft
back. The block returns to x-space only at samples. The norms, means and
second moments of all rows come from one midpoint product
|psi|^2 @ [1, x, x^2]^T dx. The kinetic factor has unit modulus, so the
k-space block gives the end-of-step norm for the drift check by Parseval,
and at a sample the kinetic energy and the aliasing guard, with no transform
of its own. The per-row linear phase exp(i dt (xbar + f_div) x) is the outer
product of two tables of about sqrt(n) exponentials each. The x-space block,
its density, the phase and the table of samples, one row per sample, are
allocated once per call, so no step allocates an array the size of the
block. Runs end at exactly t_max: when dt does not divide t_max the last step
is shortened. No operation mixes rows, so a run evolves the same in a block
of any size. The core starts at t = 0 with no phase; evolve, the block of
one, carries a state's time and global phase. step is evolve over one dt,
energy the energy evolve records at its start, and moments reads the same
weighted moments.

The domain is periodic, which the physics never probes as long as the packets
stay away from the edges and the spectrum away from the largest |k|: a
density guard in x and an aliasing guard in k abort the run otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Branch signs of the measurement force, plus then minus, as a column.
_SIGN = np.array([[1.0], [-1.0]])
_BRANCH = ("plus", "minus")

# Most grid points per branch: 16 MiB of complex128 per row.
MAX_N = 2**20
# Most Strang steps one run may take; a run writes at most one row per step.
MAX_STEPS = 10**7


class NumericalError(RuntimeError):
    """Numerical failures: norm drift, edge leakage, aliasing, bad moments.

    row is the index, within its block, of the run that failed.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length) with time step dt."""

    half_length: float
    n: int
    dt: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.half_length > 0.0:
            raise ValueError(f"half_length must be > 0, got {self.half_length!r}")
        if not 0 < self.n <= MAX_N or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two from 1 to {MAX_N}, "
                             f"got {self.n!r}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    def x(self) -> np.ndarray:
        return _grid_x(self)

    def k(self) -> np.ndarray:
        return _grid_k(self)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _grid_x(spec: GridSpec) -> np.ndarray:
    return _frozen(-spec.half_length + spec.dx * np.arange(spec.n))


@lru_cache(maxsize=16)
def _grid_k(spec: GridSpec) -> np.ndarray:
    return _frozen(2.0 * np.pi * np.fft.fftfreq(spec.n, d=spec.dx))


@lru_cache(maxsize=16)
def _kinetic_half(spec: GridSpec) -> np.ndarray:
    return _frozen(np.exp(-0.25j * _grid_k(spec) ** 2 * spec.dt))


@lru_cache(maxsize=16)
def _moment_weights(spec: GridSpec) -> np.ndarray:
    """Columns 1, x and x^2 times dx, shape (n, 3)."""
    x = _grid_x(spec)
    return _frozen(np.stack([np.ones_like(x), x, x * x], axis=1) * spec.dx)


@lru_cache(maxsize=16)
def _k_weights(spec: GridSpec) -> np.ndarray:
    """Columns k^2 dx / 2n, 1 and the mask of the outer 5% of |k|, shape
    (n, 3): a k-space density times them gives the kinetic energy, the total
    and the part where the aliasing guard looks."""
    k = _grid_k(spec)
    return _frozen(np.stack([0.5 * k * k * spec.dx / spec.n, np.ones_like(k),
                             np.abs(k) >= 0.95 * np.pi / spec.dx], axis=1))


@lru_cache(maxsize=16)
def _outer(spec: GridSpec) -> np.ndarray:
    """Mask of the outer 5% of the box, where the edge guard looks."""
    return _frozen(np.abs(_grid_x(spec)) >= 0.95 * spec.half_length)


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


@dataclass
class GridTrajectory:
    """Observables sampled along one evolution, one array entry per sample.

    For a block of runs every column but t has shape (samples, B).
    """

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


def _rows(state: GridState) -> np.ndarray:
    """The state as a block of one, shape (1, 2, n)."""
    return np.stack([state.psi_plus, state.psi_minus], dtype=complex)[None]


class _Work(NamedTuple):
    """Arrays that one evolve_block call allocates once and every step
    reuses, so that no step allocates an array the size of the block."""

    psi: np.ndarray      # the x-space block, (B, 2, n) complex
    density: np.ndarray  # re^2 and im^2 planes of psi, (2, B, 2, n)
    phase: np.ndarray    # the linear phase of every row, (B, n) complex


def _work(shape: tuple) -> _Work:
    return _Work(np.empty(shape, dtype=complex), np.empty((2,) + shape),
                 np.empty((shape[0], shape[-1]), dtype=complex))


def _density(psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """re^2 + im^2 of every point of psi, computed in the planes of out,
    shape (2,) + psi.shape, which are allocated when not given."""
    if out is None:
        out = np.empty((2,) + psi.shape)
    np.square(psi.real, out=out[0])
    np.square(psi.imag, out=out[1])
    return np.add(out[0], out[1], out=out[0])


def _stats(psi: np.ndarray, grid: GridSpec,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """Norm, first and second moment (not divided by the norm) of every row
    and branch of psi (B, 2, n): |psi|^2 @ [1, x, x^2]^T dx, shape (B, 2, 3).
    scratch is the density buffer of _density.

    The product stays stacked, one (2, n) @ (n, 3) per row: a single
    (2B, n) product rounds a row differently depending on where it sits in
    the block, and then a run would not evolve bit for bit the same in
    blocks of different sizes.
    """
    return _density(psi, scratch) @ _moment_weights(grid)


def _when(step_no: int | None, t: float) -> str:
    return f"t={t!r}" if step_no is None else f"step {step_no}, t={t!r}"


def _first_bad(bad: np.ndarray) -> tuple:
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _check(values: np.ndarray, limit: float, what: str, step_no: int | None,
           t: float) -> None:
    """Raise NumericalError for the first row and branch of values, shape
    (B, 2), that is not <= limit (NaN never is). what describes the failure
    after the branch name, with {0} for the value and {1} for the time."""
    bad = ~(values <= limit)
    if bad.any():
        row, branch = _first_bad(bad)
        raise NumericalError(f"{_BRANCH[branch]} branch " + what.format(
            float(values[row, branch]), _when(step_no, t)), row)


def _weighted(stats: np.ndarray, p: float, step_no: int | None,
              t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xbar (B,), x2bar (B,) and the branch means (B, 2) from the stats.

    Branch norms must hold to 1e-6; a larger deviation means the run has
    already gone numerically bad and is reported as such, and so is a
    weighted variance below -1e-12.
    """
    norm = stats[..., 0]
    _check(np.abs(norm - 1.0), 1e-6,
           "norm deviates from 1 by {0!r}, more than 1e-6, at {1}", step_no, t)
    per_branch = stats[..., 1:] / norm[..., None]
    weighted = np.array([p, 1.0 - p]) @ per_branch
    xbar, x2bar = weighted[:, 0], weighted[:, 1]
    bad = ~(x2bar >= xbar * xbar - 1e-12)
    if bad.any():
        (row,) = _first_bad(bad)
        raise NumericalError(
            f"negative variance at {_when(step_no, t)}: x2bar {float(x2bar[row])!r} "
            f"< xbar^2 {float(xbar[row]) ** 2!r}", row)
    return xbar, x2bar, per_branch[..., 0]


def _kinetic_energy(phi: np.ndarray, grid: GridSpec, step_no: int, t: float,
                    scratch: np.ndarray) -> np.ndarray:
    """Kinetic energy of every row and branch of a k-space block, shape
    (B, 2), read off its density after the aliasing guard: a branch with
    more than 1e-8 of its weight in the outer 5% of |k| is no longer
    resolved by the grid. scratch is the density buffer of _density."""
    sums = _density(phi, scratch) @ _k_weights(grid)
    _check(sums[..., 2] / sums[..., 1], 1e-8,
           "has a share {0!r} of its weight in the outer 5% of |k| at {1}: the "
           "grid aliases; raise n or shrink half_length", step_no, t)
    return sums[..., 0]


def _edge_check(psi: np.ndarray, grid: GridSpec, step_no: int,
                t: float) -> None:
    """Abort if a branch of any row puts real density in the outer 5% of the box."""
    _check(_density(psi[..., _outer(grid)]).sum(axis=-1) * grid.dx, 1e-8,
           "density {0!r} in the outer 5% of the domain at {1}; enlarge "
           "half_length or shorten the run", step_no, t)


def _potential(f_meas: float, grid: GridSpec) -> np.ndarray:
    """Phase of the row-independent potential x^2/2 -/+ f_meas x over one
    dt, shape (2, n)."""
    x = grid.x()
    return np.exp(-1j * grid.dt * (0.5 * x * x - _SIGN * f_meas * x))


def _kspace_norms(phi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Norm of every row and branch of a k-space block, shape (B, 2), by
    Parseval."""
    v = phi.view(np.float64)
    return np.einsum("...i,...i->...", v, v) * grid.dx / grid.n


def _linear_phase(theta: np.ndarray, grid: GridSpec,
                  out: np.ndarray) -> np.ndarray:
    """exp(i theta_b x_j) for every row b, into out of shape (B, n).

    With j = m h + l and m = 2^floor(log2(n)/2) it is the outer product of
    exp(i theta_b x_{mh}), shape (B, n/m), and exp(i theta_b dx l), shape
    (B, m): 2 sqrt(n) complex exponentials per row instead of n. Each row is
    computed on its own, so a run gets the same phase in any block.
    """
    n = grid.n
    m = 1 << (n.bit_length() - 1) // 2
    coarse = np.exp(1j * (theta[:, None] * grid.x()[::m]))
    fine = np.exp(1j * (theta[:, None] * (grid.dx * np.arange(m))))
    np.multiply(coarse[:, :, None], fine[:, None, :],
                out=out.reshape(len(theta), n // m, m))
    return out


def _advance(phi: np.ndarray, p: float, f_div: np.ndarray,
             potential: np.ndarray, grid: GridSpec, step_no: int | None,
             t: float, work: _Work) -> np.ndarray:
    """The middle of one Strang step of every row, in place: phi, the
    k-space block after the first half kinetic step, becomes the block
    before the second one. Returns the midpoint x2bar of each row."""
    psi = np.fft.ifft(phi, out=work.psi)
    xbar, x2bar, _ = _weighted(_stats(psi, grid, work.density), p, step_no, t)
    psi *= potential
    psi *= _linear_phase(grid.dt * (xbar + f_div), grid, work.phase)[:, None, :]
    np.fft.fft(psi, out=phi)
    return x2bar


def _energy(kinetic: np.ndarray, stats: np.ndarray, xbar: np.ndarray,
            x2bar: np.ndarray, p: float, f_meas: float,
            f_div: np.ndarray) -> np.ndarray:
    """Conserved energy functional of every row: the weighted kinetic and
    external-force terms per branch plus the pairwise interaction energy,
    which for the quadratic kernel (x - y)^2 / 2 reduces to
    (x2bar - xbar^2) / 2. The constant-phase part of the potential does not
    enter."""
    force = (-_SIGN[:, 0] * f_meas - f_div[:, None]) * stats[..., 1]
    return 0.5 * (x2bar - xbar**2) + (kinetic + force) @ np.array([p, 1.0 - p])


def _required_half_length(phi: np.ndarray, stats: np.ndarray, p: float,
                          f_meas: float, f_div: np.ndarray, t_max: float,
                          grid: GridSpec) -> np.ndarray:
    """Box size each row needs: margin + mean excursion + packet width.

    The mean excursion is the exact quadratic bound; branch offsets and
    oscillation amplitudes live inside the fixed margin of 8. phi is the
    k-space block, which gives the mean velocity.
    """
    weights = np.array([p, 1.0 - p])
    per_branch = stats[..., 1:] / stats[..., :1]
    xbar0 = per_branch[..., 0] @ weights
    dens = _density(phi)
    vbar0 = ((dens @ grid.k()) / dens.sum(axis=-1)) @ weights
    force = 2.0 * (p - 0.5) * f_meas + f_div
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -vbar0 / force
    vertex = np.where((vertex > 0.0) & (vertex < t_max), vertex, 0.0)
    max_mean = np.max([np.abs(xbar0 + vbar0 * t + 0.5 * force * t * t)
                       for t in (0.0, t_max, vertex)], axis=0)
    variance = per_branch[..., 1] - per_branch[..., 0] ** 2
    width = np.sqrt(2.0 * np.maximum(variance, 0.0)).max(axis=-1)
    return 8.0 + max_mean + 3.0 * width


def step_plan(t_max: float, dt: float) -> tuple[int, float]:
    """Number of steps that ends a run at t_max, and the length of the last.

    Whole steps of dt when t_max/dt is within 1e-9 of an integer; otherwise
    ceil(t_max/dt) steps, the last one shortened so that the run ends at
    t_max. A run of more than MAX_STEPS steps is rejected.
    """
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max!r} / {dt!r}: the run would "
                         f"take {ratio:.3g} steps, more than {MAX_STEPS}")
    whole = round(ratio)
    if whole >= 1 and abs(ratio - whole) <= 1e-9:
        return whole, dt
    n_steps = math.ceil(ratio)
    return n_steps, t_max - (n_steps - 1) * dt


def evolve_block(psi: np.ndarray, p: float, f_meas: float, f_div: np.ndarray,
                 t_max: float, grid: GridSpec, sample_every: int
                 ) -> tuple[GridTrajectory, np.ndarray, np.ndarray]:
    """Run a block of B runs, psi of shape (B, 2, n) and f_div of shape (B,),
    from t = 0 to t_max.

    Steps are of length dt but the last, which step_plan shortens so that
    the run ends at exactly t_max; before any work, step_plan refuses a run
    of more than MAX_STEPS steps. Samples land on step 0, every
    sample_every-th step and the last step. Every run's box is checked
    before the first step, and norms, moments, aliasing and the edge while
    stepping. Returns the sampled trajectory (columns of shape (samples,
    B)), the final block and each row's phase of the x2bar/2 term.
    """
    if not t_max > 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
    n_steps, dt_last = step_plan(t_max, grid.dt)
    stats = _stats(psi, grid)
    # the one transform to k-space: the box pre-flight, sample 0 and the
    # first step all read it
    phi = np.fft.fft(psi)
    needed = float(np.max(_required_half_length(phi, stats, p, f_meas, f_div,
                                                t_max, grid)))
    if not grid.half_length >= needed:
        raise ValueError(
            f"half_length {grid.half_length!r} too small for this run; "
            f"need at least {needed:.1f}")

    # the shortened last step, if any, runs on a grid with dt = dt_last
    last = grid if dt_last == grid.dt else replace(grid, dt=dt_last)
    potential = _potential(f_meas, grid)
    potential_last = potential if last is grid else _potential(f_meas, last)
    phase = np.zeros(len(psi))
    # the sample table: row r holds step r * sample_every, the last row the
    # last step; 1 + ceil(n_steps / sample_every) rows, NaN until written
    rows = 1 + -(-n_steps // sample_every)
    times = np.full(rows, np.nan)
    table = np.full((7, rows, len(psi)), np.nan)
    work = _work(psi.shape)

    def sample(psi: np.ndarray, stats: np.ndarray, step_no: int,
               t: float) -> None:
        # phi is the k-space block at this sample, up to the half kinetic
        # factor, which has unit modulus: no transform is needed here
        xbar, x2bar, means = _weighted(stats, p, step_no, t)
        kinetic = _kinetic_energy(phi, grid, step_no, t, work.density)
        _edge_check(psi, grid, step_no, t)
        row = -(-step_no // sample_every)
        times[row] = t
        table[:, row] = (xbar, x2bar, *means.T, *stats[..., 0].T, _energy(
            kinetic, stats, xbar, x2bar, p, f_meas, f_div))

    sample(psi, stats, 0, 0.0)
    norms = stats[..., 0]
    # The block stays in k-space between steps: the second half kinetic step
    # of one step and the first of the next are one multiplication.
    kin, kin_last = _kinetic_half(grid), _kinetic_half(last)
    kin2 = kin * kin
    phi *= kin if n_steps > 1 else kin_last
    for i in range(1, n_steps + 1):
        final = i == n_steps
        spec = last if final else grid
        t = t_max if final else i * grid.dt
        x2bar = _advance(phi, p, f_div, potential_last if final else potential,
                         spec, i, t, work)
        phase -= 0.5 * x2bar * spec.dt
        after = _kspace_norms(phi, grid)
        _check(np.abs(after - norms), 1e-8, "norm drifted by {0!r} in one "
               "step at {1}", i, t)
        norms = after
        if final or i % sample_every == 0:
            psi = np.multiply(phi, kin_last if final else kin, out=work.psi)
            np.fft.ifft(psi, out=psi)
            sample(psi, _stats(psi, grid, work.density), i, t)
        if not final:
            phi *= kin2 if i < n_steps - 1 else kin * kin_last
    return GridTrajectory(times, *table), psi, phase


def evolve(state0: GridState, f_meas: float, f_div: float, t_max: float,
           grid: GridSpec, sample_every: int = 10,
           include_x2_phase: bool = True) -> tuple[GridTrajectory, GridState]:
    """Run one evolution for t_max from state0, sampling observables every
    sample_every steps: the block of one of evolve_block, shifted to start at
    state0.t and state0.global_phase (plus the x2bar phase unless
    include_x2_phase is False). Returns the trajectory and final state."""
    traj, psi, phase = evolve_block(
        _rows(state0), state0.p, f_meas, np.array([float(f_div)]), t_max,
        grid, sample_every)
    traj = GridTrajectory(t=state0.t + traj.t, **{
        name: column[:, 0] for name, column in vars(traj).items()
        if name != "t"})
    final = GridState(psi_plus=psi[0, 0], psi_minus=psi[0, 1], p=state0.p,
                      t=float(traj.t[-1]), global_phase=state0.global_phase
                      + (float(phase[0]) if include_x2_phase else 0.0))
    return traj, final


def step(state: GridState, f_meas: float, f_div: float, grid: GridSpec,
         include_x2_phase: bool = True) -> GridState:
    """One Strang step of length dt: evolve over dt. include_x2_phase=False
    drops the constant x2bar/2 term from global_phase, which can change
    nothing observable (see module docstring)."""
    return evolve(state, f_meas, f_div, grid.dt, grid, 1, include_x2_phase)[1]


def moments(state: GridState, grid: GridSpec) -> tuple[float, float]:
    """Weighted moments (xbar, x2bar) of the two-branch density, checked as
    at every sample (_weighted)."""
    xbar, x2bar, _ = _weighted(_stats(_rows(state), grid), state.p, None,
                               state.t)
    return float(xbar[0]), float(x2bar[0])


def energy(state: GridState, f_meas: float, f_div: float, grid: GridSpec) -> float:
    """Conserved energy (_energy) of the state, as evolve records it at the
    state's own time."""
    return float(evolve(state, f_meas, f_div, grid.dt, grid, 1)[0].energy[0])
