import hashlib

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

from nonlocal_limit.local_reference import FluxModel, godunov_flux

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

    def test_max_abs_speed_is_recorded_at_construction(self):
        # the same 1001 samples the mode check takes; V is not called again
        calls = []
        base = quadratic_velocity(v_max=1.5)
        velocity = VelocityModel(eval=lambda s: calls.append(1) or base.eval(s),
                                 deriv=base.deriv, admissible_range=(0.0, 1.0))
        calls.clear()
        s = np.linspace(0.0, 1.0, 1001)
        assert velocity.max_abs_speed() == float(np.max(np.abs(base.eval(s))))
        assert velocity.max_abs_speed() == velocity.max_abs_speed()
        assert calls == []


class TestVelocityBitPins:
    """sha256 of V on 1001 densities, of V at one scalar density and of the
    Godunov flux on a 41x41 grid of states, recorded before the builders
    started skipping their exact multiplications and divisions by 1.0."""

    BUILDERS = {"linear": linear_velocity, "quadratic": quadratic_velocity,
                "linear_increasing": linear_increasing_velocity}
    DIGESTS = {
        ("linear", 1.0, 1.0): "92fa3997b85afc8238a093a67aa015b31639da5663bcf107bed7611a26baafff",
        ("linear", 2.0, 1.0): "113c01e79e63fa0e056272f19777aad93bd0a181ac246883465beba9351aae4a",
        ("linear", 1.0, 0.8): "061e68a3e7548953a3efd53ec6bac51990225156ace51869c35a3759bf1583b4",
        ("linear", 1.5, 0.7): "a256b1fd6dfff6be032188d676b1be9dfdb3a64fc4a137084b2b028ee50ddb8d",
        ("quadratic", 1.0, 1.0): "d4f218ecc5eb3fddb82cfffc8525a60e5ca3505daf70df9d2944a24759d90a5e",
        ("quadratic", 2.0, 1.0): "e9c079da84c5190c4d54bbab864a213ecbe367398d6cb658868981e30dff74b0",
        ("quadratic", 1.0, 0.8): "66712cb5c5e86d4ceb9f66d7b84ae9b25c8e4ff032574f642c0190f0386ed3bb",
        ("quadratic", 1.5, 0.7): "6c162a43117e552285345de9ef3b0bfc265bb2cd4ed15f164ed63317f7f4a8ea",
        ("linear_increasing", 1.0, 1.0):
            "246140fb446888f42878de050fb940c682899db2e3050bd3829434ecbc1c4c6f",
        ("linear_increasing", 2.0, 1.0):
            "c6cbe35ede38951c936c06594c939b310e9f31917868ab9bb7c7355353d762c3",
        ("linear_increasing", 1.0, 0.8):
            "105b375f94b4515feb1ce04ba43418e264be7d3a90bffe6cf0035491700aba4b",
        ("linear_increasing", 1.5, 0.7):
            "42574fba00b6b457348100038bcb7354375b7a4c85eb0cc845193c6007ede823",
    }

    @pytest.mark.parametrize("name, v_max, s_max", sorted(DIGESTS))
    def test_values_keep_their_bits(self, name, v_max, s_max):
        velocity = self.BUILDERS[name](v_max=v_max, s_max=s_max)
        s = np.linspace(0.0, s_max, 1001)
        a, b = np.meshgrid(s[::25], s[::25])
        digest = hashlib.sha256()
        for values in (velocity.eval(s), velocity.eval(0.3 * s_max),
                       godunov_flux(a.ravel(), b.ravel(), FluxModel(velocity=velocity))):
            digest.update(np.asarray(values, dtype=float).tobytes())
        assert digest.hexdigest() == self.DIGESTS[name, v_max, s_max]


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
