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
(B, 2, n): row b holds the plus and minus branch of run b, and the runs share
the grid, p and f_meas, each with its own f_div. No operation mixes rows, so
a run evolves the same in a block of any size. The block stays in k-space
between steps, where the second half kinetic step of one step and the first
of the next are one factor, so a step costs one batched FFT pair, an ifft to
the midpoint and an fft back; it returns to x-space only at samples. Each
space has one weight table, and both share one density product, _stats.
|psi|^2 @ [1, x, x^2, edge] dx, at every midpoint and sample, gives the
norms, means and second moments and the edge guard. |phi|^2 @ [1, k, k^2/2,
alias] dx/n, at every step end, gives the norm of the drift check
(Parseval), the aliasing guard, at a sample the kinetic energy (the kinetic
factor has unit modulus), and at t = 0 the pre-flight's mean momentum. The
linear phase exp(i dt (xbar + f_div) x) of each row is the outer product of
two tables of about sqrt(n) exponentials each.

evolve_block builds every table once per call, and after the pre-flight
_advance builds the step once, binding the potential, the linear phase,
f_div, dt and both transforms: no step builds or looks up a table, and
nothing outlives the call. A call keeps only the buffers that pay for
themselves: the x-space block that the FFT pair writes into (out= saves
about 1-2 us per transform) and those of the linear phase (an allocating
phase costs about 1 us more per step). _stats squares each block into a
plane of its own, which at B = 1 to 3 and n = 512 to 1024 costs about 1 us
less than a kept pair of planes; it is still looked up by name each time
it is called. A step reads each product once as Python floats; its guards,
angles dt (xbar + f_div) and x2bar phase are float arithmetic on them, which
rounds as the same numpy arithmetic on (B, 2) arrays would, and the weighted
moments stay one numpy product. A run takes equal steps of at most dt that
end at exactly t_max (step_plan). The core starts at t = 0 with no phase;
evolve, the block of one, carries a state's time and global phase. step is
evolve over one dt, energy the energy evolve records at its start, and
moments reads the same weighted moments.

The domain is periodic, which the physics never probes while the packets
stay off the edges and the spectrum off the largest |k|: an edge guard in x
and an aliasing guard in k, read at every step and not only at samples, abort
the run otherwise, and before the first step a pre-flight refuses a run whose
closed-form mean motion would carry it there (the norm guard reads the
initial x product first, as the pre-flight divides by the norms). A step
reads its guards guard by guard, then row by row, then branch by branch: the
norm, the weighted variance and the edge on the midpoint x product, then the
norm drift and the aliasing share on the step-end k product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import analytic

# Branch signs of the measurement force, plus then minus, as a column.
_SIGN = np.array([[1.0], [-1.0]])
_BRANCH = ("plus", "minus")

# Most grid points per branch: 16 MiB of complex128 per row.
MAX_N = 2**20
# Most Strang steps one run may take; a run writes at most one row per step.
MAX_STEPS = 10**7


class NumericalError(RuntimeError):
    """Numerical failures: norm drift, edge leakage, aliasing, bad moments.

    row is the index, within its block, of the run that failed. A guard of
    evolve_block also sets the branch ("plus" or "minus", None for the
    variance), the step (None outside a run) and t, its quantity ("norm",
    "variance", "edge", "drift" or "aliasing"), the value and the limit it
    broke: an upper bound, and for the variance a lower one. The ensemble's
    map check sets the quantity "map", the residual and its bound.
    """

    def __init__(self, message: str, row: int | None = None, *,
                 branch: str | None = None, step: int | None = None,
                 t: float | None = None, quantity: str | None = None,
                 value: float | None = None, limit: float | None = None):
        super().__init__(message)
        self.row, self.branch, self.step, self.t = row, branch, step, t
        self.quantity, self.value, self.limit = quantity, value, limit


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length); dt is the
    longest time step a run on it takes (step_plan)."""

    half_length: float
    n: int
    dt: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.half_length < math.inf:
            raise ValueError(f"half_length must be finite and > 0, "
                             f"got {self.half_length!r}")
        if not 0 < self.n <= MAX_N or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two from 1 to {MAX_N}, "
                             f"got {self.n!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        # the largest moment weight, x^2 dx at x = -half_length, in Python
        # floats, which overflow to inf without a warning
        length = float(self.half_length)
        if not math.isfinite(length * length * (2.0 * length / self.n)):
            raise ValueError(f"half_length {length!r} too large: x^2 dx overflows")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.n)

    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def _kinetic_half(spec: GridSpec) -> np.ndarray:
    return np.exp(-0.25j * spec.k() ** 2 * spec.dt)


def _moment_weights(spec: GridSpec) -> np.ndarray:
    """Columns 1, x, x^2 and the mask of the outer 5% of the box, where the
    edge guard looks, times dx, shape (n, 4)."""
    x = spec.x()
    return np.stack([np.ones_like(x), x, x * x,
                     np.abs(x) >= 0.95 * spec.half_length], axis=1) * spec.dx


def _k_weights(spec: GridSpec) -> np.ndarray:
    """Columns 1, k, k^2/2 and the mask of the outer 5% of |k|, where the
    aliasing guard looks, times dx/n, shape (n, 4): a k-space density times
    them gives the norm (Parseval), the mean momentum and the kinetic energy
    (not divided by the norm) and the weight the guard sees."""
    k = spec.k()
    return np.stack([np.ones_like(k), k, 0.5 * k * k,
                     np.abs(k) >= 0.95 * np.pi / spec.dx],
                    axis=1) * (spec.dx / spec.n)


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

    def columns(self, start: int, stop: int) -> dict:
        """Every column's samples start to stop, by name (emit_trajectory)."""
        return {name: column[start:stop] for name, column in vars(self).items()}


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


def init_state(grid: GridSpec,
               state: analytic.CoherentTwoBranchState) -> GridState:
    """The grid state of a closed-form state at t = 0: each branch a width-1
    packet at its center with its velocity (init_gaussian)."""
    return GridState(*(init_gaussian(grid, b.center, velocity=b.velocity)
                       for b in (state.plus, state.minus)), state.p)


def _rows(state: GridState) -> np.ndarray:
    """The state as a block of one, shape (1, 2, n)."""
    return np.stack([state.psi_plus, state.psi_minus], dtype=complex)[None]


def _stats(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """|block|^2 @ weights for every row and branch of a block (B, 2, n),
    shape (B, 2, 4), in a density plane of its own: the core's one density
    product. With the _moment_weights of an x-space block it gives the norm,
    the first and second moment (not divided by the norm) and the edge
    weight; with the _k_weights of a k-space block the norm (Parseval), the
    mean momentum, the kinetic energy and the aliasing weight.

    The product stays stacked, one (2, n) @ (n, 4) per row: a single
    (2B, n) product rounds a row differently depending on where it sits in
    the block, and then a run would not evolve bit for bit the same in
    blocks of different sizes.
    """
    density = block.real ** 2
    density += block.imag ** 2
    return density @ weights


def _when(step_no: int | None, t: float) -> str:
    return f"t={t!r}" if step_no is None else f"step {step_no}, t={t!r}"


# The per-branch guards: (quantity, limit, what a failure says after the
# branch name, with {0} for the value and {1} for the time)
_NORM = ("norm", 1e-6, "norm deviates from 1 by {0!r}, more than 1e-6, at {1}")
_EDGE = ("edge", 1e-8, "density {0!r} in the outer 5% of the domain at {1}; "
         "enlarge half_length or shorten the run")
_DRIFT = ("drift", 1e-8, "norm drifted by {0!r} in one step at {1}")
_ALIAS = ("aliasing", 1e-8, "has a share {0!r} of its weight in the outer 5% "
          "of |k| at {1}: the grid aliases; raise n or shrink half_length")


def _check(values: list, guard: tuple, step_no: int | None, t: float) -> None:
    """Raise NumericalError for the first of values, the guard's quantity
    for the plus and then the minus branch of each row in turn (2B floats),
    that is not <= the guard's limit (NaN never is)."""
    limit = guard[1]
    for i, value in enumerate(values):
        if not value <= limit:
            row, branch = divmod(i, 2)
            quantity, _, what = guard
            raise NumericalError(
                f"{_BRANCH[branch]} branch "
                + what.format(value, _when(step_no, t)), row,
                branch=_BRANCH[branch], step=step_no, t=t, quantity=quantity,
                value=value, limit=limit)


def _aliasing(kstats: list, step_no: int, t: float) -> None:
    """The aliasing guard on the k-space product of step_no, read as one
    [norm, k, k^2/2, alias] list per row and branch: the share of each
    branch's weight in the outer 5% of |k|."""
    _check([alias / norm for norm, _, _, alias in kstats], _ALIAS, step_no, t)


def _weighted(stats: np.ndarray, weights: np.ndarray, step_no: int | None,
              t: float) -> tuple[np.ndarray, list]:
    """Check the x-space product stats, (B, 2, 4), of step_no at t, and
    return the branch moments stats[..., 1:3] / norm, shape (B, 2, 2), and
    the weighted moments [xbar, x2bar] of each row, weights being [p, 1 - p].

    In this order, each over every row before the next: the branch norms
    must hold to 1e-6 (beyond it the run has already gone bad), the weighted
    variance must be >= -1e-12, and at most 1e-8 of a branch's density may
    sit in the outer 5% of the box (the edge guard).
    """
    flat = stats.reshape(-1, 4).tolist()
    _check([abs(norm - 1.0) for norm, _, _, _ in flat], _NORM, step_no, t)
    per_branch = stats[..., 1:3] / stats[..., :1]
    moments = (weights @ per_branch).tolist()
    for row, (xbar, x2bar) in enumerate(moments):
        if not x2bar >= xbar * xbar - 1e-12:
            raise NumericalError(
                f"negative variance at {_when(step_no, t)}: x2bar {x2bar!r} "
                f"< xbar^2 {xbar ** 2!r}", row, step=step_no, t=t,
                quantity="variance", value=x2bar - xbar * xbar, limit=-1e-12)
    _check([edge for _, _, _, edge in flat], _EDGE, step_no, t)
    return per_branch, moments


def _potential(f_meas: float, grid: GridSpec) -> np.ndarray:
    """Phase of the row-independent potential x^2/2 -/+ f_meas x over one
    dt, shape (2, n)."""
    x = grid.x()
    return np.exp(-1j * grid.dt * (0.5 * x * x - _SIGN * f_meas * x))


def _phase_points(spec: GridSpec) -> np.ndarray:
    """1j times the coarse points x[::m] and the fine offsets dx * arange(m)
    of _linear_phase, shape (n/m + m,), built once per call of it."""
    m = 1 << (spec.n.bit_length() - 1) // 2
    return 1j * np.concatenate([spec.x()[::m], spec.dx * np.arange(m)])


def _linear_phase(grid: GridSpec, rows: int) -> Callable:
    """A function that takes one angle theta_b per row, rows floats, and
    returns exp(i theta_b x_j) for every row b, shape (rows, 1, n), in a
    buffer that each call overwrites. With j = m h + l and
    m = 2^floor(log2(n)/2) it is the outer product of exp(i theta_b x_{mh})
    and exp(i theta_b dx l), both taken by one exponential over
    _phase_points: n/m + m exponentials per row instead of n, each row on
    its own. The points, m and every buffer and view are bound here once.
    """
    n = grid.n
    m = 1 << (n.bit_length() - 1) // 2
    points = _phase_points(grid)
    # complex, as the product with points would cast theta anyway
    theta = np.empty((rows, 1), dtype=complex)
    both = np.empty((rows, n // m + m), dtype=complex)
    coarse, fine = both[:, :n // m, None], both[:, None, n // m:]
    out = np.empty((rows, 1, n), dtype=complex)
    outer = out.reshape(rows, n // m, m)

    def phase(angles: list) -> np.ndarray:
        for row, angle in enumerate(angles):
            theta[row, 0] = angle
        np.multiply(theta, points, out=both)
        np.exp(both, out=both)
        np.multiply(coarse, fine, out=outer)
        return out

    return phase


def _advance(grid: GridSpec, f_meas: float, f_div: list, weights: np.ndarray,
             psi: np.ndarray, x_weights: np.ndarray) -> Callable:
    """The middle of one Strang step of every row, built once per
    evolve_block call. Binds the potential and the linear phase, each row's
    f_div, dt and the two transforms, and returns advance(phi, step_no, t):
    in place, phi, the k-space block after the first half kinetic step,
    becomes the block before the second one, through the x-space buffer psi
    that the transform pair writes into. The midpoint product (_stats)
    squares into a plane of its own at every call, which costs less than
    keeping one. advance returns the midpoint [xbar, x2bar] of each row."""
    potential = _potential(f_meas, grid)
    linear_phase = _linear_phase(grid, len(psi))
    dt, fft, ifft = grid.dt, np.fft.fft, np.fft.ifft

    def advance(phi: np.ndarray, step_no: int, t: float) -> list:
        block = ifft(phi, out=psi)
        _, moments = _weighted(_stats(block, x_weights), weights, step_no, t)
        block *= potential
        block *= linear_phase([dt * (xbar + f) for (xbar, _), f
                               in zip(moments, f_div)])
        fft(block, out=phi)
        return moments

    return advance


def _energy(kinetic: np.ndarray, stats: np.ndarray, xbar: np.ndarray,
            x2bar: np.ndarray, weights: np.ndarray, f_meas: float,
            f_div: np.ndarray) -> np.ndarray:
    """Conserved energy functional of every row: the weighted kinetic and
    external-force terms per branch plus the pairwise interaction energy,
    which for the quadratic kernel (x - y)^2 / 2 reduces to
    (x2bar - xbar^2) / 2. The constant-phase part of the potential does not
    enter."""
    force = (-_SIGN[:, 0] * f_meas - f_div[:, None]) * stats[..., 1]
    return 0.5 * (x2bar - xbar**2) + (kinetic + force) @ weights


def _preflight(stats: np.ndarray, kstats: np.ndarray, weights: np.ndarray,
               f_meas: float, f_div: np.ndarray, t_max: float,
               grid: GridSpec) -> None:
    """Refuse, with ValueError, a run whose box or grid spacing cannot hold
    the closed-form mean motion xbar0 + vbar0 t + F t^2/2 of any row.

    The box must hold a margin of 8, for the branch offsets and their
    oscillations, + the exact quadratic bound of the mean + the packet
    width. The mean momentum vbar0 + F t is exact under a uniform force and
    must stay below 0.95 pi/dx, where the aliasing guard looks, at both ends
    of the run: a necessary condition, which refuses no run the grid
    resolves. weights is [p, 1 - p], stats and kstats the t = 0 products.
    """
    per_branch = stats[..., 1:3] / stats[..., :1]
    xbar0 = per_branch[..., 0] @ weights
    vbar0 = (kstats[..., 1] / kstats[..., 0]) @ weights
    force = analytic.total_force(weights[0], f_meas, f_div)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -vbar0 / force
    vertex = np.where((vertex > 0.0) & (vertex < t_max), vertex, 0.0)
    max_mean = np.max([np.abs(xbar0 + vbar0 * t + 0.5 * force * t * t)
                       for t in (0.0, t_max, vertex)], axis=0)
    variance = per_branch[..., 1] - per_branch[..., 0] ** 2
    width = np.sqrt(2.0 * np.maximum(variance, 0.0)).max(axis=-1)
    needed = float(np.max(8.0 + max_mean + 3.0 * width))
    if not grid.half_length >= needed:
        raise ValueError(
            f"half_length {grid.half_length!r} too small for this run; "
            f"need at least {needed:.1f}")
    k_max = float(np.max(np.maximum(np.abs(vbar0),
                                    np.abs(vbar0 + force * t_max))))
    band = 0.95 * np.pi / grid.dx
    if not k_max < band:
        # the band grows with n: the smallest passing n beats k_max / band
        n_needed = grid.n << (math.floor(math.log2(k_max / band)) + 1)
        raise ValueError(
            f"n {grid.n!r} too coarse for this run: the mean momentum "
            f"reaches {k_max:.4g}, beyond 0.95 pi/dx = {band:.4g} where the "
            f"grid aliases; need n of at least {n_needed}")


def step_plan(t_max: float, dt: float) -> tuple[int, float]:
    """Number and length of the equal steps that end a run at t_max.

    Whole steps of dt when t_max/dt is within 1e-9 of an integer; otherwise
    ceil(t_max/dt) steps of t_max / ceil(t_max/dt), none longer than dt, and
    at least one even when t_max/dt underflows to 0. A run of more than
    MAX_STEPS steps is rejected.
    """
    ratio = t_max / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max!r} / {dt!r}: the run would "
                         f"take {ratio:.3g} steps, more than {MAX_STEPS}")
    whole = round(ratio)
    if whole >= 1 and abs(ratio - whole) <= 1e-9:
        return whole, dt
    n_steps = max(1, math.ceil(ratio))
    return n_steps, t_max / n_steps


def evolve_block(psi: np.ndarray, p: float, f_meas: float, f_div: np.ndarray,
                 t_max: float, grid: GridSpec, sample_every: int
                 ) -> tuple[GridTrajectory, np.ndarray, np.ndarray]:
    """Run a block of B runs, psi of shape (B, 2, n) and f_div of shape (B,),
    from t = 0 to t_max.

    Every step has the one length step_plan gives, at most grid.dt, so that
    the run ends at exactly t_max; step_plan refuses a run of more than
    MAX_STEPS steps before any work. Samples land on step 0, every
    sample_every-th step and the last step. Before the first step every
    run's norms at t = 0 and then its box and mean momentum (_preflight) are
    checked; then its norms, moments and edge at every midpoint and sample
    (_weighted), and its norm drift and aliasing at every step end. Returns
    the sampled trajectory (columns of shape (samples, B)), the final block
    and each row's phase of the x2bar/2 term.
    """
    if not t_max > 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
    n_steps, dt = step_plan(t_max, grid.dt)
    grid = replace(grid, dt=dt)
    weights = np.array([p, 1.0 - p])
    x_weights, k_weights = _moment_weights(grid), _k_weights(grid)
    # the x-space block, allocated once: the transforms write into it
    block = np.empty(psi.shape, dtype=complex)
    stats = _stats(psi, x_weights)
    # an unnormalised block fails here, before _preflight divides by its norms
    _check([abs(norm - 1.0) for norm in stats[..., 0].ravel().tolist()],
           _NORM, 0, 0.0)
    # the one transform to k-space: the pre-flights, sample 0 and the first
    # step all read it
    phi = np.fft.fft(psi)
    kstats = _stats(phi, k_weights)
    _preflight(stats, kstats, weights, f_meas, f_div, t_max, grid)
    advance = _advance(grid, f_meas, f_div.tolist(), weights, block, x_weights)

    phase = [0.0] * len(psi)
    # the sample table: row r holds step r * sample_every, the last row the
    # last step; 1 + ceil(n_steps / sample_every) rows, NaN until written
    rows = 1 + -(-n_steps // sample_every)
    times = np.full(rows, np.nan)
    table = np.full((7, rows, len(psi)), np.nan)

    def sample(stats: np.ndarray, kstats: np.ndarray, step_no: int,
               t: float) -> None:
        # kstats is this sample's k-space product, already guarded: the half
        # kinetic factor between them has unit modulus
        per_branch, moments = _weighted(stats, weights, step_no, t)
        xbar, x2bar = np.array(moments).T
        row = -(-step_no // sample_every)
        times[row] = t
        table[:, row] = (xbar, x2bar, *per_branch[..., 0].T, *stats[..., 0].T,
                         _energy(kstats[..., 2], stats, xbar, x2bar, weights,
                                 f_meas, f_div))

    # every guard reads a product as one list of floats per row and branch
    k = kstats.reshape(-1, 4).tolist()
    _aliasing(k, 0, 0.0)
    sample(stats, kstats, 0, 0.0)
    # The block stays in k-space between steps: the second half kinetic step
    # of one step and the first of the next are one multiplication.
    kin = _kinetic_half(grid)
    kin2 = kin * kin
    phi *= kin
    for i in range(1, n_steps + 1):
        final = i == n_steps
        t = t_max if final else i * dt
        for row, (_, x2bar) in enumerate(advance(phi, i, t)):
            phase[row] -= 0.5 * x2bar * dt
        kstats = _stats(phi, k_weights)
        before, k = k, kstats.reshape(-1, 4).tolist()
        _check([abs(now[0] - then[0]) for now, then in zip(k, before)],
               _DRIFT, i, t)
        _aliasing(k, i, t)
        if final or i % sample_every == 0:
            psi = np.fft.ifft(np.multiply(phi, kin, out=block), out=block)
            sample(_stats(psi, x_weights), kstats, i, t)
        if not final:
            phi *= kin2
    return GridTrajectory(times, *table), psi, np.array(phase)


def evolve(state0: GridState, f_meas: float, f_div: float, t_max: float,
           grid: GridSpec, sample_every: int,
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


def step(state: GridState, f_meas: float, f_div: float,
         grid: GridSpec) -> GridState:
    """One Strang step of length dt: evolve over dt."""
    return evolve(state, f_meas, f_div, grid.dt, grid, 1)[1]


def moments(state: GridState, grid: GridSpec) -> tuple[float, float]:
    """Weighted moments (xbar, x2bar) of the two-branch density, checked as
    at every sample (_weighted)."""
    _, ((xbar, x2bar),) = _weighted(
        _stats(_rows(state), _moment_weights(grid)),
        np.array([state.p, 1.0 - state.p]), None, state.t)
    return xbar, x2bar


def energy(state: GridState, f_meas: float, f_div: float, grid: GridSpec) -> float:
    """Conserved energy (_energy) of the state, as evolve records it at the
    state's own time."""
    return float(evolve(state, f_meas, f_div, grid.dt, grid, 1)[0].energy[0])
