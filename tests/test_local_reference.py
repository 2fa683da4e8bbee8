import numpy as np
import pytest

from nonlocal_limit import (
    FluxModel,
    Grid1D,
    constant_velocity,
    godunov_flux,
    linear_increasing_velocity,
    linear_velocity,
    quadratic_velocity,
    sample_profile,
    solve_local,
    total_mass,
)

from conftest import constant_profile, step_profile


def grid_search_argmax(velocity, n=1_000_001):
    s = np.linspace(*velocity.admissible_range, n)
    f = velocity.eval(s) * s
    return float(s[np.argmax(f)])


class TestCriticalDensity:
    def test_linear_velocity(self):
        velocity = linear_velocity()
        s_star = velocity.critical_density
        assert s_star == 0.5
        assert s_star == pytest.approx(grid_search_argmax(velocity), abs=2e-6)

    def test_constant_velocity_maximizes_at_boundary(self):
        assert constant_velocity(2.0).critical_density == 1.0

    def test_quadratic_velocity(self):
        velocity = quadratic_velocity()
        s_star = velocity.critical_density
        assert s_star == 1.0 / np.sqrt(3.0)
        assert s_star == pytest.approx(grid_search_argmax(velocity), abs=2e-6)

    def test_increasing_velocity_takes_the_flux_minimum(self):
        # f(s) = s(s - 1) is convex with its minimum at 1/2
        assert linear_increasing_velocity().critical_density == 0.5


@pytest.fixture(scope="module")
def flux():
    return FluxModel(velocity=linear_velocity())


class TestGodunovFlux:
    def test_increasing_jump_takes_minimum(self, flux):
        # f(s) = s(1-s) vanishes at both ends
        assert godunov_flux(0.0, 1.0, flux) == pytest.approx(0.0, abs=1e-15)

    def test_decreasing_jump_takes_maximum_at_critical_density(self, flux):
        assert godunov_flux(1.0, 0.0, flux) == pytest.approx(0.25, rel=1e-10)
        s = np.linspace(0.0, 1.0, 1_000_001)
        assert godunov_flux(1.0, 0.0, flux) == pytest.approx(
            float(np.max(flux.f(s))), rel=1e-9
        )

    @pytest.mark.parametrize("c", [0.0, 0.3, 0.5, 1.0])
    def test_consistency(self, flux, c):
        assert godunov_flux(c, c, flux) == pytest.approx(float(flux.f(c)), abs=1e-15)

    def test_out_of_range_rejected(self, flux):
        with pytest.raises(ValueError, match="admissible"):
            godunov_flux(-0.2, 0.5, flux)
        with pytest.raises(ValueError, match="admissible"):
            godunov_flux(0.5, 1.2, flux)

    def test_convex_flux_mirrors_concave_flux(self, flux):
        # s(s - 1) = -s(1 - s), so F(a, b) = -F_concave(b, a) exactly
        convex = FluxModel(velocity=linear_increasing_velocity())
        s = np.linspace(0.0, 1.0, 41)
        a, b = np.meshgrid(s, s, indexing="ij")
        assert np.array_equal(godunov_flux(a, b, convex), -godunov_flux(b, a, flux))
        assert godunov_flux(0.0, 1.0, convex) == pytest.approx(-0.25, rel=1e-10)

    def test_monotone_in_both_arguments(self, flux):
        s = np.linspace(0.0, 1.0, 100)
        a, b = np.meshgrid(s, s, indexing="ij")
        table = godunov_flux(a, b, flux)
        assert float(np.min(np.diff(table, axis=0))) >= -1e-12  # nondecreasing in a
        assert float(np.max(np.diff(table, axis=1))) <= 1e-12  # nonincreasing in b


class TestConstantVelocity:
    """V = 1: the flux f(s) = s is increasing, so its maximum over any
    interval of states sits at the interval's right end."""

    flux = FluxModel(velocity=constant_velocity(1.0))

    def test_godunov_flux_of_a_full_left_state_is_f_of_one(self):
        assert godunov_flux(1.0, 0.0, self.flux) == 1.0

    def test_unit_jump_keeps_the_maximum_principle_exactly(self):
        grid = Grid1D(0.0, 1.0, 1000)
        q0 = sample_profile(step_profile(0.5, left=1.0, right=0.0), grid)
        report = solve_local(q0, self.flux, cfl=0.5, t_end=0.5)
        assert report.q_max_overall == 1.0


class TestSolveLocal:
    def test_constant_state_is_stationary(self, flux):
        grid = Grid1D(0.0, 1.0, 64)
        q0 = sample_profile(constant_profile(0.4), grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=0.5,
                             snapshot_times=[0.0, 0.25, 0.5])
        for snap in report.snapshots:
            np.testing.assert_allclose(snap.q.values, 0.4, atol=1e-14)
            assert snap.w is None
        np.testing.assert_allclose(report.tv_q_series, 0.0, atol=1e-13)

    def test_zero_flux_means_stasis(self):
        flux = FluxModel(velocity=constant_velocity(0.0))
        grid = Grid1D(0.0, 1.0, 16)
        q0 = sample_profile(step_profile(0.5), grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=2.0)
        assert report.dt_used == 2.0
        np.testing.assert_array_equal(report.snapshots[-1].q.values, q0.values)

    def test_increasing_unit_jump_is_a_standing_shock(self, flux):
        # Rankine-Hugoniot speed (f(1) - f(0)) / (1 - 0) = 0: the jump stands
        # still, and with f(0) = f(1) = 0 the discrete solution is exactly
        # stationary
        grid = Grid1D(0.0, 1.0, 64)
        q0 = sample_profile(step_profile(0.5), grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=1.0)
        np.testing.assert_allclose(report.snapshots[-1].q.values, q0.values,
                                   atol=1e-15)

    def test_total_variation_is_diminishing(self, flux, datum_profile):
        grid = Grid1D(-1.0, 2.0, 256)
        q0 = sample_profile(datum_profile, grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=1.0)
        assert float(np.max(np.diff(report.tv_q_series))) <= 1e-10

    def test_discrete_maximum_principle_exact(self, flux, datum_profile):
        grid = Grid1D(-1.0, 2.0, 256)
        q0 = sample_profile(datum_profile, grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=1.0)
        assert report.q_min_overall >= -1e-14
        assert report.q_max_overall <= 1.0 + 1e-14

    def test_mass_balance_matches_boundary_flux(self, flux, datum_profile):
        grid = Grid1D(-1.0, 2.0, 256)
        q0 = sample_profile(datum_profile, grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=1.0)
        change = total_mass(report.snapshots[-1].q) - total_mass(q0)
        assert change == pytest.approx(-report.boundary_flux_integral, abs=1e-12)

    def test_late_time_datum_variation_settles_at_one(self, flux, datum_profile):
        # after the waves merge the solution is a single standing jump
        grid = Grid1D(-1.0, 2.0, 1024)
        q0 = sample_profile(datum_profile, grid)
        report = solve_local(q0, flux, cfl=0.5, t_end=1.5,
                             snapshot_times=[0.0, 1.2, 1.5])
        start = int(round(1.1 / report.dt_used))
        late_tv = report.tv_q_series[start:]
        np.testing.assert_allclose(late_tv, 1.0, atol=0.05)
