import dataclasses
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
            # a span that overflows; as numpy scalars too, which must not warn
            dict(x_min=-1e308, x_max=1e308, n_cells=4),
            dict(x_min=np.float64(-1e308), x_max=np.float64(1e308), n_cells=4),
        ],
    )
    def test_invalid_grids(self, kwargs):
        with pytest.raises(ValueError):
            Grid1D(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(x_min=0.0, x_max=1.7e308, n_cells=64),
         "grid cell centres overflow, got [0.0, 1.7e+308]; the bounds must lie within "
         "+-8.98847e+307"),
        (dict(x_min=0.0, x_max=1.0, n_cells=4, left_farfield=np.inf),
         "grid far-field values must be finite"),
        (dict(x_min=0.0, x_max=1.0, n_cells=4, right_farfield=np.nan),
         "grid far-field values must be finite"),
    ])
    def test_refusal_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            Grid1D(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("n_cells, shown", [
        (4.5, "4.5"), (4.0, "4.0"), (np.float64(8), "np.float64(8.0)"), (True, "True"),
        ("8", "'8'")])
    def test_non_integer_cell_count_is_refused(self, n_cells, shown):
        # before the count is used: a float count once built a grid that
        # sample_profile then failed on with a TypeError
        with pytest.raises(ValueError) as info:
            Grid1D(0.0, 1.0, n_cells)
        assert str(info.value) == f"grid.n_cells must be an integer, got {shown}"

    @pytest.mark.parametrize("n_cells", [np.int64(8), np.int32(8)])
    def test_numpy_integer_cell_count_is_accepted(self, n_cells):
        grid = Grid1D(0.0, 1.0, n_cells)
        field = sample_profile(constant_profile(0.25), grid)
        assert grid.dx == 0.125 and field.values.tolist() == [0.25] * 8

    @pytest.mark.parametrize("n_cells", [2, 64, 4097])
    def test_largest_bounds_keep_every_centre_finite(self, n_cells):
        # an overflow would warn, and warnings are errors in this suite
        half = np.finfo(float).max / 2
        assert np.all(np.isfinite(Grid1D(-half, half, n_cells).cell_centers))


class TestCellField:
    def test_length_enforced(self):
        grid = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            CellField(grid=grid, values=np.zeros(5))

    def test_one_dimensional_enforced(self):
        with pytest.raises(ValueError) as info:
            CellField(grid=Grid1D(0.0, 1.0, 4), values=np.zeros((2, 2)))
        assert str(info.value) == "cell values must be one-dimensional, got shape (2, 2)"

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

    @pytest.mark.parametrize("breakpoints, levels, message", [
        ([0.0], [1.0], "profile.levels needs 2 entries (one more than breakpoints), got 1"),
        ([0.5, 0.2], [0.0, 1.0, 0.0], "profile.breakpoints must be strictly increasing"),
        ([0.0, 1.0], [1.0, 0.0, -0.5], "profile.levels[2] must be nonnegative, got -0.5"),
    ])
    def test_refusal_messages_name_the_key(self, breakpoints, levels, message):
        with pytest.raises(ValueError) as info:
            PiecewiseConstantProfile(breakpoints=np.array(breakpoints), levels=np.array(levels))
        assert str(info.value) == message

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

    def test_empty_admissible_range_refused(self):
        with pytest.raises(ValueError) as info:
            linear_velocity(s_max=-1.0)
        assert str(info.value) == "invalid admissible_range [0.0, -1.0]"

    def test_max_abs_speed(self):
        assert linear_velocity(v_max=2.0).max_abs_speed == 2.0
        assert constant_velocity(0.0).max_abs_speed == 0.0

    @pytest.mark.parametrize("build, params, match", [
        (quadratic_velocity, {"s_max": 1e-200}, "non-finite on the admissible range"),
        (linear_velocity, {"v_max": 1e300, "s_max": 1e-300}, "non-finite on the admissible range"),
        (linear_increasing_velocity, {"v_max": 1e300, "s_max": 1e-300},
         "non-finite on the admissible range"),
        # a negative v_max flips V's monotonicity against the family's mode
        (linear_velocity, {"v_max": -1.0}, "v_max must be >= 0, got -1.0"),
        (quadratic_velocity, {"v_max": -1.0}, "v_max must be >= 0, got -1.0"),
        (linear_increasing_velocity, {"v_max": -1.0}, "v_max must be >= 0, got -1.0"),
        (VelocityModel, {"family": "cubic", "params": (1.0, 1.0)},
         "velocity family must be one of .*, got 'cubic'"),
    ])
    def test_out_of_range_parameters_are_refused_without_warnings(self, build, params, match):
        # V' divides by an underflowed s_max**2 or overflows; the refusal
        # raises no numpy warning (warnings are errors in this suite)
        with pytest.raises(ValueError, match=match):
            build(**params)

    @pytest.mark.parametrize("params, count", [
        ((1.0,), 1), ((1.0, 1.0, 2.0), 3), ((), 0), (1.0, 1),
        ((True, 1.0), 2), ((1.0, np.True_), 2), (("1", 1.0), 2), ((None, 1.0), 2),
    ])
    def test_params_other_than_two_real_numbers_are_refused(self, params, count):
        # one parameter failed on an index, three in the library's velocity
        # call, and a bool passed as a number
        with pytest.raises(ValueError) as info:
            VelocityModel("linear", params)
        assert str(info.value) == ("velocity params must be 2 real numbers (v_max or value, "
                                   f"s_max), got {count}: {params!r}")

    def test_numpy_and_python_numbers_are_params(self):
        assert VelocityModel("linear", (np.int64(2), np.float32(0.5))).max_abs_speed == 2
        assert VelocityModel("constant", (-1, 1.0)).mode == "increasing"
        # a list is held as a tuple, so that the frozen model hashes
        assert hash(VelocityModel("linear", [1.0, 1.0])) == hash(linear_velocity())


# Every family's closed-form constants for the TestVelocityBitPins parameter
# sets: name -> (builder, critical density, max |f'|), as functions of
# (v_max, s_max); max |V| is v_max for all three.
CLOSED_FORMS = {
    "linear": (linear_velocity, lambda v, s: s / 2.0, lambda v, s: v),
    "quadratic": (quadratic_velocity, lambda v, s: s / np.sqrt(3.0), lambda v, s: 2.0 * v),
    "linear_increasing": (linear_increasing_velocity, lambda v, s: s / 2.0, lambda v, s: v),
}
PIN_PARAMETERS = [(1.0, 1.0), (2.0, 1.0), (1.0, 0.8), (1.5, 0.7)]
FAMILY_CASES = [(name, v_max, s_max) for name in CLOSED_FORMS
                for v_max, s_max in PIN_PARAMETERS]


def family_case(name, v_max, s_max):
    build, s_star, wave = CLOSED_FORMS[name]
    return build(v_max=v_max, s_max=s_max), s_star(v_max, s_max), wave(v_max, s_max)


class TestClosedFormConstants:
    @pytest.mark.parametrize("name, v_max, s_max", FAMILY_CASES)
    def test_family_constants_are_exact(self, name, v_max, s_max):
        velocity, s_star, wave = family_case(name, v_max, s_max)
        assert velocity.critical_density == s_star
        assert velocity.max_abs_speed == v_max
        assert velocity.max_wave_speed == wave

    @pytest.mark.parametrize("value", [1.0, 0.0, -1.0])
    def test_constant_constants_are_exact(self, value):
        velocity = constant_velocity(value, s_max=0.8)
        assert velocity.critical_density == 0.8
        assert velocity.max_abs_speed == abs(value)
        assert velocity.max_wave_speed == abs(value)

    @pytest.mark.parametrize("name, v_max, s_max", FAMILY_CASES)
    def test_closed_forms_agree_with_a_fine_sample(self, name, v_max, s_max):
        # s* within one sample spacing of the sampled extremum; max|V| and
        # max|f'| within one spacing times |V'| <= 2 v_max/s_max and
        # |f''| <= 6 v_max/s_max
        velocity, s_star, wave = family_case(name, v_max, s_max)
        s = np.linspace(0.0, s_max, 1_000_001)
        spacing = s_max / 1_000_000
        sign = 1.0 if velocity.mode == "decreasing" else -1.0
        flux = sign * velocity.eval(s) * s
        assert abs(s[np.argmax(flux)] - s_star) <= spacing
        assert abs(np.max(np.abs(velocity.eval(s))) - v_max) <= 2.0 * v_max / s_max * spacing
        f_prime = velocity.eval(s) + s * velocity.deriv(s)
        assert abs(np.max(np.abs(f_prime)) - wave) <= 6.0 * v_max / s_max * spacing

    @pytest.mark.parametrize("value", [1.0, 0.0, -1.0])
    def test_constant_agrees_with_a_fine_sample(self, value):
        velocity = constant_velocity(value)
        s = np.linspace(0.0, 1.0, 1_000_001)
        sign = 1.0 if velocity.mode == "decreasing" else -1.0
        flux = sign * velocity.eval(s) * s
        # a flat flux (value 0) is maximal everywhere, s_max included
        assert flux[-1] == np.max(flux)
        assert np.max(np.abs(velocity.eval(s))) == velocity.max_abs_speed
        assert np.max(np.abs(velocity.eval(s) + s * velocity.deriv(s))) == velocity.max_wave_speed

    @pytest.mark.parametrize("build, params", [
        *((CLOSED_FORMS[name][0], (v_max, s_max)) for name, v_max, s_max in FAMILY_CASES),
        *((constant_velocity, (value, 0.8)) for value in (1.0, 0.0, -1.0)),
    ])
    def test_replaced_parameters_derive_their_own_constants(self, build, params):
        # a model is its family and parameters: swapping the parameters of a
        # built model gives the constants of the model built from them
        def constants(velocity):
            return (velocity.mode, *map(float.hex, (
                *velocity.admissible_range, velocity.critical_density,
                velocity.max_abs_speed, velocity.max_wave_speed)))

        replaced = dataclasses.replace(build(1.0), params=params)
        assert constants(replaced) == constants(build(*params))


class TestVelocityBitPins:
    """sha256 of V on 1001 densities, of V at one scalar density and of the
    Godunov flux on a 41x41 grid of states, recorded before the builders
    started skipping their exact multiplications and divisions by 1.0.

    Three were re-recorded when the searched critical density gave way to
    the closed form: f(s*) is now the flux at the exact s*, which moved 420,
    420 and 408 of the 1681 Godunov fluxes of (linear, 1.0, 0.8),
    (linear_increasing, 1.0, 0.8) and (quadratic, 1.5, 0.7) by one ulp."""

    BUILDERS = {"linear": linear_velocity, "quadratic": quadratic_velocity,
                "linear_increasing": linear_increasing_velocity}
    DIGESTS = {
        ("linear", 1.0, 1.0): "92fa3997b85afc8238a093a67aa015b31639da5663bcf107bed7611a26baafff",
        ("linear", 2.0, 1.0): "113c01e79e63fa0e056272f19777aad93bd0a181ac246883465beba9351aae4a",
        ("linear", 1.0, 0.8): "75ac00c7de1478716c9358775a5a0f761cefc5b1969d35d9b15afa553ec4a76c",
        ("linear", 1.5, 0.7): "a256b1fd6dfff6be032188d676b1be9dfdb3a64fc4a137084b2b028ee50ddb8d",
        ("quadratic", 1.0, 1.0): "d4f218ecc5eb3fddb82cfffc8525a60e5ca3505daf70df9d2944a24759d90a5e",
        ("quadratic", 2.0, 1.0): "e9c079da84c5190c4d54bbab864a213ecbe367398d6cb658868981e30dff74b0",
        ("quadratic", 1.0, 0.8): "66712cb5c5e86d4ceb9f66d7b84ae9b25c8e4ff032574f642c0190f0386ed3bb",
        ("quadratic", 1.5, 0.7): "7593db31e54a5f478afc5ef44e2819554c0703b8c4ab5165791e8488cce0a2eb",
        ("linear_increasing", 1.0, 1.0):
            "246140fb446888f42878de050fb940c682899db2e3050bd3829434ecbc1c4c6f",
        ("linear_increasing", 2.0, 1.0):
            "c6cbe35ede38951c936c06594c939b310e9f31917868ab9bb7c7355353d762c3",
        ("linear_increasing", 1.0, 0.8):
            "6f0775ffa7839dc032966840407b5fac87983ea8752d7b5baf63451f4998a5ed",
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


def test_every_public_name_resolves():
    # a stale __all__ entry breaks only ``from nonlocal_limit import *``
    import nonlocal_limit

    assert [name for name in nonlocal_limit.__all__ if not hasattr(nonlocal_limit, name)] == []
