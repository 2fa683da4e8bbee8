import numpy as np
import pytest

import nonlocal_limit.nonlocal_solver as nonlocal_solver
import nonlocal_limit.stepping as stepping
from nonlocal_limit import (
    CellField,
    Grid1D,
    PiecewiseConstantProfile,
    linear_velocity,
    default_datum_profile,
    sample_profile,
)


@pytest.fixture(scope="session")
def datum_profile():
    return default_datum_profile()


@pytest.fixture(scope="session")
def default_velocity():
    return linear_velocity()


def aligned_datum_field(n_cells=90):
    """The reference datum sampled on [-1, 2] with breakpoint-aligned cells
    (n_cells divisible by 9 aligns 0, 1/3 and 2/3 with interfaces)."""
    assert n_cells % 9 == 0
    grid = Grid1D(x_min=-1.0, x_max=2.0, n_cells=n_cells)
    return sample_profile(default_datum_profile(), grid)


def constant_profile(level):
    return PiecewiseConstantProfile(breakpoints=np.array([]), levels=np.array([level]))


def step_profile(position=0.0, left=0.0, right=1.0):
    return PiecewiseConstantProfile(
        breakpoints=np.array([position]), levels=np.array([left, right])
    )


def mirror_field(q):
    """Reflect a cell field through the origin (grid, values and far-fields)."""
    mirrored_grid = Grid1D(
        x_min=-q.grid.x_max,
        x_max=-q.grid.x_min,
        n_cells=q.grid.n_cells,
        left_farfield=q.grid.right_farfield,
        right_farfield=q.grid.left_farfield,
    )
    return CellField(grid=mirrored_grid, values=q.values[::-1])


def force_nonlocal_steps(monkeypatch, n_steps):
    """Make solve_nonlocal take ``n_steps`` steps whatever its CFL bound, by
    handing the run set-up the speed bound that gives dt = t_end / n_steps;
    solve_local keeps its own step."""
    def solve(q0, velocity, speed, interface_flux, cfl, t_end, *args):
        forced = n_steps * cfl * q0.grid.dx / t_end
        return stepping.solve(q0, velocity, forced, interface_flux, cfl, t_end, *args)

    monkeypatch.setattr(nonlocal_solver, "solve", solve)
