"""Unit scales, apparatus derivation, and pointer criteria."""

import math

import pytest

from gravimean.units import (HBAR, G_NEWTON, SPHERE_FACTOR, ApparatusParams,
                             CriteriaReport, FdivSpec, MeasurementConfig,
                             Scales, classicality_report, omega_grav)

DENSITY = 1.0e4   # kg/m^3
RADIUS = 1.0e-3   # m

# Values below were frozen from direct evaluation of the defining formulas
# (sqrt(G*(4pi/3)*rho), sqrt(hbar/(M*omega)), l0/(omega*tau)^2) with
# G = 6.674e-11, hbar = 1.054571817e-34.
OMEGA_RHO_1E4 = 1.6720043608419318e-3  # rad/s
X0_STD = 3.880387284996887e-14         # m
R_MIN_STD = 3.5770514629583915e-4      # m


def std_apparatus() -> ApparatusParams:
    return ApparatusParams.derive(radius=RADIUS, density=DENSITY)


class TestOmegaGrav:
    def test_density_1e4_estimate(self):
        # the headline number: about 1.7e-3 rad/s for ordinary solid density
        omega = std_apparatus().omega_grav
        assert 1.0e-3 <= omega <= 2.0e-3
        assert omega == pytest.approx(OMEGA_RHO_1E4, rel=1e-12)

    def test_matches_defining_formula(self):
        mass = SPHERE_FACTOR * RADIUS**3 * DENSITY
        assert omega_grav(mass, RADIUS) == pytest.approx(
            math.sqrt(G_NEWTON * mass / RADIUS**3), rel=1e-15)

    def test_depends_only_on_density(self):
        a = ApparatusParams.derive(radius=1e-3, density=DENSITY)
        b = ApparatusParams.derive(radius=1e-2, density=DENSITY)
        assert a.omega_grav == pytest.approx(b.omega_grav, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            omega_grav(0.0, 1.0)
        with pytest.raises(ValueError):
            omega_grav(1.0, -1.0)
        with pytest.raises(ValueError):
            omega_grav(1.0, 1.0, big_g=0.0)


class TestApparatusDerive:
    def test_mass_from_radius_density(self):
        app = std_apparatus()
        assert app.mass == pytest.approx(SPHERE_FACTOR * 1e-9 * 1e4, rel=1e-14)

    def test_radius_from_mass_density(self):
        mass = SPHERE_FACTOR * RADIUS**3 * DENSITY
        app = ApparatusParams.derive(mass=mass, density=DENSITY)
        assert app.radius == pytest.approx(RADIUS, rel=1e-12)

    def test_density_from_mass_radius(self):
        mass = SPHERE_FACTOR * RADIUS**3 * DENSITY
        app = ApparatusParams.derive(mass=mass, radius=RADIUS)
        assert app.density == pytest.approx(DENSITY, rel=1e-12)

    def test_needs_two_quantities(self):
        with pytest.raises(ValueError):
            ApparatusParams.derive(mass=1.0)

    @pytest.mark.parametrize("given", [
        {"mass": 0.04, "density": -DENSITY}, {"mass": 0.04, "density": 0.0},
        {"mass": -0.04, "radius": RADIUS}, {"radius": 0.0, "density": DENSITY},
        {"mass": 0.04, "radius": RADIUS, "density": -DENSITY}],
        ids=["negative-density", "zero-density", "negative-mass",
             "zero-radius", "negative-density-of-three"])
    def test_rejects_non_positive_given_quantity(self, given):
        # checked before the third is derived: a negative density would
        # give a complex radius
        with pytest.raises(ValueError,
                           match="^mass, radius, density must all be > 0$"):
            ApparatusParams.derive(**given)

    def test_rejects_inconsistent_triple(self):
        with pytest.raises(ValueError):
            ApparatusParams.derive(mass=1.0, radius=RADIUS, density=DENSITY)

    def test_accepts_consistent_triple(self):
        mass = SPHERE_FACTOR * RADIUS**3 * DENSITY
        app = ApparatusParams.derive(mass=mass, radius=RADIUS, density=DENSITY)
        assert app.omega_grav == pytest.approx(OMEGA_RHO_1E4, rel=1e-12)

    def test_rejects_nonpositive_g(self):
        for big_g in (0.0, -G_NEWTON):
            with pytest.raises(ValueError):
                ApparatusParams.derive(radius=RADIUS, density=DENSITY,
                                       big_g=big_g)

    def test_big_g_override_scales_omega(self):
        app4 = ApparatusParams.derive(radius=RADIUS, density=DENSITY,
                                      big_g=4.0 * G_NEWTON)
        assert app4.omega_grav == pytest.approx(2.0 * OMEGA_RHO_1E4, rel=1e-12)

    def test_packet_width(self):
        app = std_apparatus()
        assert app.x0 == pytest.approx(X0_STD, rel=1e-12)
        assert app.x0 == pytest.approx(
            math.sqrt(HBAR / (app.mass * app.omega_grav)), rel=1e-15)


class TestScales:
    def test_values(self):
        app = std_apparatus()
        sc = Scales.from_apparatus(app)
        assert sc.length == app.x0
        assert sc.time == pytest.approx(1.0 / app.omega_grav, rel=1e-15)
        assert sc.force == pytest.approx(
            app.mass * app.omega_grav**2 * app.x0, rel=1e-15)
        assert sc.energy == pytest.approx(HBAR * app.omega_grav, rel=1e-15)


class TestMeasurementConfig:
    def test_boundary_weights_allowed(self):
        for p in (0.0, 1.0, 0.5):
            cfg = MeasurementConfig(p=p, f_meas=1.0, tau_meas=1.0, l0=1e-9)
            assert cfg.p == p

    @pytest.mark.parametrize("kwargs", [
        {"p": -0.1}, {"p": 1.2}, {"f_meas": -1.0},
        {"tau_meas": 0.0}, {"tau_meas": -2.0}, {"l0": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        base = {"p": 0.5, "f_meas": 1.0, "tau_meas": 1.0, "l0": 1e-9}
        base.update(kwargs)
        with pytest.raises(ValueError):
            MeasurementConfig(**base)

    @pytest.mark.parametrize("field", ["p", "f_meas", "tau_meas", "l0"])
    def test_rejects_nan(self, field):
        base = {"p": 0.5, "f_meas": 1.0, "tau_meas": 1.0, "l0": 1e-9}
        base[field] = float("nan")
        with pytest.raises(ValueError, match=field):
            MeasurementConfig(**base)

    def test_fdiv_kinds(self):
        assert FdivSpec("uniform").kind == "uniform"
        assert FdivSpec("fixed", 1e-20).value == 1e-20
        with pytest.raises(ValueError):
            FdivSpec("gaussian")


class TestClassicalityCriteria:
    def test_r_min_estimate(self):
        # tau = 1 s, l0 = 1 nm: smallest workable radius is a few 1e-4 m
        cfg = MeasurementConfig(p=0.5, f_meas=1e-13, tau_meas=1.0, l0=1e-9)
        rep = classicality_report(std_apparatus(), cfg)
        assert 1e-4 <= rep.r_min <= 1e-3
        assert rep.r_min == pytest.approx(R_MIN_STD, rel=1e-12)
        assert rep.r_min == pytest.approx(
            cfg.l0 / (std_apparatus().omega_grav * cfg.tau_meas) ** 2,
            rel=1e-15)

    def test_passing_apparatus(self):
        app = std_apparatus()
        cfg = MeasurementConfig(p=0.5, f_meas=1e-13, tau_meas=1.0, l0=1e-9)
        rep = classicality_report(app, cfg)
        # recheck every inequality from the raw numbers
        assert rep.sizebound_ok == (app.x0 < 0.01 * app.radius
                                    and rep.d_est < app.radius)
        assert rep.displacement_ok == (
            (cfg.f_meas / app.mass) * cfg.tau_meas**2 >= cfg.l0)
        assert rep.timing_ok == (
            (app.omega_grav * cfg.tau_meas) ** 2 > cfg.l0 / app.radius)
        assert rep.all_ok

    def test_weak_force_fails_displacement(self):
        cfg = MeasurementConfig(p=0.5, f_meas=1e-18, tau_meas=1.0, l0=1e-9)
        rep = classicality_report(std_apparatus(), cfg)
        assert not rep.displacement_ok
        assert not rep.all_ok

    def test_short_tau_fails_timing(self):
        cfg = MeasurementConfig(p=0.5, f_meas=1e-13, tau_meas=0.1, l0=1e-9)
        rep = classicality_report(std_apparatus(), cfg)
        assert not rep.timing_ok
        assert rep.r_min > std_apparatus().radius

    def test_huge_splitting_fails_sizebound(self):
        cfg = MeasurementConfig(p=0.5, f_meas=1e-9, tau_meas=1.0, l0=1e-9)
        rep = classicality_report(std_apparatus(), cfg)
        assert rep.d_est > std_apparatus().radius
        assert not rep.sizebound_ok

    def test_splitting_estimates(self):
        app = std_apparatus()
        cfg = MeasurementConfig(p=0.5, f_meas=1e-13, tau_meas=1.0, l0=1e-9)
        rep = classicality_report(app, cfg)
        assert rep.d_est == pytest.approx(
            cfg.f_meas / (app.mass * app.omega_grav**2), rel=1e-15)
        assert rep.d_derived == pytest.approx(2.0 * rep.d_est, rel=1e-15)

    def test_report_dict_keys(self):
        cfg = MeasurementConfig(p=0.5, f_meas=1e-13, tau_meas=1.0, l0=1e-9)
        d = classicality_report(std_apparatus(), cfg).to_dict()
        assert set(d) == {"d_est", "d_derived", "sizebound_ok",
                          "displacement_ok", "timing_ok", "R_min", "all_ok"}

    def test_all_ok_property(self):
        rep = CriteriaReport(d_est=1.0, d_derived=2.0, sizebound_ok=True,
                             displacement_ok=True, timing_ok=False, r_min=1.0)
        assert not rep.all_ok
