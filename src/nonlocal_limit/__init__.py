"""Simulator and measurement harness for scalar conservation laws whose flux
velocity depends on a one-sided kernel average of the solution, including the
small-kernel-width regime where the dynamics approach the local entropy
solution."""

from .core import (
    CellField,
    Grid1D,
    InterfaceField,
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
from .diagnostics import (
    TestFunction,
    Window,
    bump_test_function,
    entropy_residual,
    interface_to_cells,
    l1_distance,
    sup_time_l1,
    total_variation,
    transport_residual_w,
    weak_residual,
    wq_identity_gap,
)
from .errors import ConfigError, ModeViolationError, NumericalBlowupError
from .kernels import (
    KernelSpec,
    nonlocal_constant,
    nonlocal_exponential,
    nonlocal_term,
    reconstruct_density,
)
from .local_reference import FluxModel, godunov_flux, solve_local
from .nonlocal_solver import NonlocalSchemeConfig, solve_nonlocal, step_upwind
from .report import RunReport, Snapshot

__all__ = [
    "CellField",
    "ConfigError",
    "FluxModel",
    "Grid1D",
    "InterfaceField",
    "KernelSpec",
    "ModeViolationError",
    "NonlocalSchemeConfig",
    "NumericalBlowupError",
    "PiecewiseConstantProfile",
    "RunReport",
    "Snapshot",
    "TestFunction",
    "VelocityModel",
    "Window",
    "bump_test_function",
    "constant_velocity",
    "entropy_residual",
    "godunov_flux",
    "interface_to_cells",
    "l1_distance",
    "linear_increasing_velocity",
    "linear_velocity",
    "nonlocal_constant",
    "nonlocal_exponential",
    "nonlocal_term",
    "default_datum_profile",
    "quadratic_velocity",
    "reconstruct_density",
    "sample_profile",
    "solve_local",
    "solve_nonlocal",
    "step_upwind",
    "sup_time_l1",
    "total_mass",
    "total_variation",
    "transport_residual_w",
    "weak_residual",
    "wq_identity_gap",
]
