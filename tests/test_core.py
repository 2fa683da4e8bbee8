import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_limit import (
    CellField,
    Grid1D,
    PiecewiseConstantProfile,
    VelocityModel,
    constant_velocity,
    linear_increasing_velocity,
    linear_velocity,
    default_datum_profile,
    quadratic_velocity,
    sample_profile,
    total_mass,
)

from conftest import aligned_datum_field, constant_profile, step_profile


class TestGrid:
    def test_geometry(self):
        grid = Grid1D(x_min=-1.0, x_max=2.0, n_cells=6)
        assert grid.dx == pytest.approx(0.5)
        np.testing.assert_allclose(grid.interfaces, np.arange(-1.0, 2.1, 0.5))
        np.testing.assert_allclose(grid.cell_centers, np.arange(-0.75, 2.0, 0.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=0.0, n_cells=4),
            dict(x_min=0.0, x_max=0.0, n_cells=4),
            dict(x_min=0.0, x_max=1.0, n_cells=1),
            dict(x_min=0.0, x_max=np.inf, n_cells=4),
        ],
    )
    def test_invalid_grids(self, kwargs):
        with pytest.raises(ValueError):
            Grid1D(**kwargs)


class TestCellField:
    def test_length_enforced(self):
        grid = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            CellField(grid=grid, values=np.zeros(5))

    def test_finite_enforced(self):
        grid = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            CellField(grid=grid, values=np.array([0.0, np.nan, 0.0, 0.0]))

    def test_values_are_immutable(self):
        field = CellField(grid=Grid1D(0.0, 1.0, 4), values=np.zeros(4))
        with pytest.raises(ValueError):
            field.values[0] = 1.0


class TestProfile:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(
                breakpoints=np.array([0.0, 0.0]), levels=np.array([1.0, 2.0, 3.0])
            )

    def test_levels_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(
                breakpoints=np.array([0.0]), levels=np.array([1.0, -0.5])
            )

    def test_level_count(self):
        with pytest.raises(ValueError):
            PiecewiseConstantProfile(
                breakpoints=np.array([0.0]), levels=np.array([1.0])
            )

    def test_value_at(self):
        datum = default_datum_profile()
        np.testing.assert_allclose(
            datum.value_at(np.array([-0.5, 0.1, 0.5, 0.9])), [0.0, 0.5, 0.0, 1.0]
        )


class TestSampleProfile:
    def test_constant_profile_samples_exactly(self):
        grid = Grid1D(-3.0, 5.0, 17)
        field = sample_profile(constant_profile(0.7), grid)
        np.testing.assert_allclose(field.values, 0.7)
        assert field.grid.left_farfield == 0.7
        assert field.grid.right_farfield == 0.7

    def test_datum_on_breakpoint_aligned_cells(self):
        grid = Grid1D(0.0, 1.0, 3)
        field = sample_profile(default_datum_profile(), grid)
        np.testing.assert_allclose(field.values, [0.5, 0.0, 1.0], atol=1e-15)
        assert field.grid.left_farfield == 0.0
        assert field.grid.right_farfield == 1.0

    def test_step_straddling_cell_averages_to_half(self):
        # middle cell of 5 spans [-0.2, 0.2), half below and half above 0
        grid = Grid1D(-1.0, 1.0, 5)
        field = sample_profile(step_profile(0.0), grid)
        assert field.values[2] == pytest.approx(0.5, abs=1e-15)


class TestTotalMass:
    def test_zero_field(self):
        grid = Grid1D(0.0, 1.0, 10)
        assert total_mass(CellField(grid=grid, values=np.zeros(10))) == 0.0

    def test_unit_density(self):
        grid = Grid1D(0.0, 1.0, 100)
        field = sample_profile(constant_profile(1.0), grid)
        assert total_mass(field) == pytest.approx(1.0, rel=1e-14)

    def test_datum_mass_on_truncated_window(self):
        # analytic integral: 1/2 * 1/3 + 1 * (2 - 2/3) = 3/2
        field = aligned_datum_field(n_cells=90)
        assert total_mass(field) == pytest.approx(1.5, rel=1e-13)

    @pytest.mark.parametrize("n_cells", [9, 36, 90, 243])
    def test_mass_matches_exact_integral_on_aligned_grids(self, n_cells):
        profile = default_datum_profile()
        grid = Grid1D(-1.0, 2.0, n_cells)
        field = sample_profile(profile, grid)
        exact = float(np.diff(profile.antiderivative(np.array([-1.0, 2.0])))[0])
        assert total_mass(field) == pytest.approx(exact, rel=1e-13)


class TestVelocityModel:
    def test_default_models_validate(self):
        assert linear_velocity().mode == "decreasing"
        assert constant_velocity(2.0).mode == "decreasing"
        assert quadratic_velocity().mode == "decreasing"
        assert linear_increasing_velocity().mode == "increasing"
        assert constant_velocity(0.0).mode == "decreasing"
        assert constant_velocity(-1.0).mode == "increasing"

    def test_lipschitz_constant_recorded(self):
        assert linear_velocity().lipschitz_constant == pytest.approx(1.0)
        assert constant_velocity(3.0).lipschitz_constant == 0.0
        assert quadratic_velocity().lipschitz_constant == pytest.approx(2.0)

    def test_mode_violation_is_constructor_error(self):
        with pytest.raises(ValueError, match="decreasing"):
            VelocityModel(
                eval=lambda s: np.asarray(s, dtype=float),
                deriv=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                admissible_range=(0.0, 1.0),
                mode="decreasing",
            )
        with pytest.raises(ValueError, match="increasing"):
            VelocityModel(
                eval=lambda s: -np.asarray(s, dtype=float),
                deriv=lambda s: -np.ones_like(np.asarray(s, dtype=float)),
                admissible_range=(0.0, 1.0),
                mode="increasing",
            )

    def test_max_abs_speed(self):
        assert linear_velocity(v_max=2.0).max_abs_speed() == pytest.approx(2.0)
        assert constant_velocity(0.0).max_abs_speed() == 0.0


@settings(max_examples=50, deadline=None)
@given(
    level=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    n_cells=st.integers(min_value=2, max_value=64),
)
def test_constant_profiles_sample_to_their_level(level, n_cells):
    grid = Grid1D(-2.0, 3.0, n_cells)
    field = sample_profile(constant_profile(level), grid)
    np.testing.assert_allclose(field.values, level, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    shift=st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
    n_cells=st.integers(min_value=4, max_value=128),
)
def test_sampled_mass_matches_exact_integral(shift, n_cells):
    profile = step_profile(shift, left=0.25, right=1.5)
    grid = Grid1D(-1.0, 1.0, n_cells)
    field = sample_profile(profile, grid)
    exact = 0.25 * (shift - (-1.0)) + 1.5 * (1.0 - shift)
    assert total_mass(field) == pytest.approx(exact, rel=1e-12)
