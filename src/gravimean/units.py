"""Apparatus parameters, dimensionless scales, and measurability criteria.

The simulation modules work in dimensionless units built from the apparatus:
lengths in units of the coherent packet width x0 = sqrt(hbar / (M omega)),
times in units of 1 / omega, forces in units of M omega^2 x0 and energies in
units of hbar omega, where omega is the self-gravity frequency of a uniform
sphere, omega^2 = G M / R^3. This module owns every SI-facing quantity; the
propagators never see SI values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR = 1.054571817e-34      # J s
G_NEWTON = 6.674e-11        # m^3 kg^-1 s^-2
SPHERE_FACTOR = 4.0 * math.pi / 3.0

# Two quantities are "well separated" when their ratio is below this.
SMALL_RATIO = 0.01


def omega_grav(mass: float, radius: float, big_g: float = G_NEWTON) -> float:
    """Self-gravity oscillation frequency sqrt(G M / R^3) of a uniform sphere.

    At fixed density the radius drops out: omega^2 = G (4 pi / 3) rho.
    """
    if mass <= 0.0 or radius <= 0.0 or big_g <= 0.0:
        raise ValueError("omega_grav requires mass, radius, G all > 0")
    return math.sqrt(big_g * mass / radius**3)


@dataclass(frozen=True)
class ApparatusParams:
    """Uniform-sphere apparatus in SI units with derived scales.

    Any two of (mass, radius, density) determine the third through
    M = (4/3) pi R^3 rho; use derive() rather than the bare constructor.
    """

    mass: float         # kg
    radius: float       # m
    density: float      # kg m^-3
    big_g: float        # m^3 kg^-1 s^-2
    omega_grav: float   # rad s^-1
    x0: float           # m, coherent packet width

    @classmethod
    def derive(cls, mass: float | None = None, radius: float | None = None,
               density: float | None = None,
               big_g: float = G_NEWTON) -> "ApparatusParams":
        """Build from any two of mass, radius, density.

        All three may be supplied only if mutually consistent to a relative
        1e-12. G is overridable because configs may set it.
        """
        given = [v for v in (mass, radius, density) if v is not None]
        if len(given) < 2:
            raise ValueError("need at least two of mass, radius, density")
        # before deriving: a negative density gives a complex radius
        if not all(v > 0.0 for v in given):
            raise ValueError("mass, radius, density must all be > 0")
        if mass is None:
            mass = SPHERE_FACTOR * radius**3 * density
        elif radius is None:
            radius = (mass / (SPHERE_FACTOR * density)) ** (1.0 / 3.0)
        elif density is None:
            density = mass / (SPHERE_FACTOR * radius**3)
        # the derived one is 0 if it underflows
        if mass <= 0.0 or radius <= 0.0 or density <= 0.0:
            raise ValueError("mass, radius, density must all be > 0")
        expected = SPHERE_FACTOR * radius**3 * density
        if abs(mass - expected) > 1e-12 * max(abs(mass), abs(expected)):
            raise ValueError(
                "mass, radius, density are mutually inconsistent: "
                f"mass={mass!r} but (4/3) pi R^3 rho = {expected!r}")
        omega = omega_grav(mass, radius, big_g)  # rejects G <= 0
        x0 = math.sqrt(HBAR / (mass * omega))
        return cls(mass=mass, radius=radius, density=density, big_g=big_g,
                   omega_grav=omega, x0=x0)


@dataclass(frozen=True)
class Scales:
    """Dimensionless unit system of one apparatus."""

    length: float   # m
    time: float     # s
    force: float    # N
    energy: float   # J

    @classmethod
    def from_apparatus(cls, params: ApparatusParams) -> "Scales":
        w = params.omega_grav
        return cls(length=params.x0,
                   time=1.0 / w,
                   force=params.mass * w * w * params.x0,
                   energy=HBAR * w)


# The identity scales: packet units read through them unchanged (x / 1.0 == x).
PACKET_SCALES = Scales(length=1.0, time=1.0, force=1.0, energy=1.0)


@dataclass(frozen=True)
class FdivSpec:
    """Diverting-force specification: a frozen random draw or a fixed value.

    kind "uniform" means one value per trial, uniform on [-F_meas, +F_meas].
    kind "fixed" pins the value (newtons) for deterministic runs.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "fixed"):
            raise ValueError(f"F_div kind must be 'uniform' or 'fixed', got {self.kind!r}")


@dataclass(frozen=True)
class MeasurementConfig:
    """Measurement-stage parameters in SI units.

    p is the weight of the plus branch; f_meas the magnitude of the constant
    measurement force (opposite sign per branch); tau_meas the stage duration;
    l0 the displacement scale of the diverting landscape.
    """

    p: float            # dimensionless
    f_meas: float       # N
    tau_meas: float     # s
    l0: float           # m
    f_div: FdivSpec = FdivSpec("uniform")

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")
        if not self.f_meas >= 0.0:
            raise ValueError(f"f_meas must be >= 0, got {self.f_meas!r}")
        if not self.tau_meas > 0.0:
            raise ValueError(f"tau_meas must be > 0, got {self.tau_meas!r}")
        if not self.l0 > 0.0:
            raise ValueError(f"l0 must be > 0, got {self.l0!r}")


@dataclass(frozen=True)
class CriteriaReport:
    """Checks that the apparatus can act as a classical pointer.

    d_est is the plain splitting estimate F_meas / (M omega^2); d_derived is
    the steady branch separation 2 F_meas / (M omega^2) from the equilibrium
    of the coupled packet dynamics. Both are reported; the checks use d_est.
    """

    d_est: float            # m
    d_derived: float        # m
    sizebound_ok: bool      # x0 << R and d_est < R
    displacement_ok: bool   # (F_meas / M) tau^2 >= l0
    timing_ok: bool         # (omega tau)^2 > l0 / R
    r_min: float            # m, smallest radius passing the timing check

    @property
    def all_ok(self) -> bool:
        return self.sizebound_ok and self.displacement_ok and self.timing_ok

    def to_dict(self) -> dict:
        """Every field, with r_min as R_min, and all_ok."""
        record = dict(vars(self), R_min=self.r_min, all_ok=self.all_ok)
        del record["r_min"]
        return record


def classicality_report(params: ApparatusParams,
                        cfg: MeasurementConfig) -> CriteriaReport:
    """Evaluate the pointer criteria for one apparatus and measurement setup.

    sizebound: packet width well under the radius (ratio < SMALL_RATIO) and
    splitting estimate under the radius. displacement: the measurement force
    moves the apparatus at least l0 within tau (non-strict). timing: the
    apparatus must respond faster than the landscape scale allows,
    (omega tau)^2 > l0 / R, equivalently R > R_min = l0 / (omega tau)^2.
    A tau_meas whose squares, or R_min, leave the float range raises
    ValueError.
    """
    w2 = params.omega_grav**2
    d_est = cfg.f_meas / (params.mass * w2)
    d_derived = 2.0 * d_est
    sizebound_ok = (params.x0 < SMALL_RATIO * params.radius) and (d_est < params.radius)
    try:
        displacement_ok = (cfg.f_meas / params.mass) * cfg.tau_meas**2 >= cfg.l0
        wt2 = (params.omega_grav * cfg.tau_meas) ** 2
        r_min = cfg.l0 / wt2
    except ArithmeticError:  # a square overflows, or (omega tau)^2 is 0
        r_min = math.inf
    if not r_min < math.inf:
        raise ValueError(f"tau_meas_s: {cfg.tau_meas!r} s takes tau^2, "
                         f"(omega tau)^2 or R_min out of the float range")
    timing_ok = wt2 > cfg.l0 / params.radius
    return CriteriaReport(d_est=d_est, d_derived=d_derived,
                          sizebound_ok=sizebound_ok,
                          displacement_ok=displacement_ok,
                          timing_ok=timing_ok, r_min=r_min)
