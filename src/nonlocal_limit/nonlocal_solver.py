"""First-order upwind finite-volume integration of the nonlocal law.

The scheme is its interface flux: the flux velocity at each interface is the
kernel average of the current density, times the upwind cell value.  The
shared driver in ``stepping`` applies it conservatively, so mass change
equals the boundary-flux integral exactly (up to rounding).  A run uses one
time step frozen from max|V|: the velocity range over the run is contained
in the velocity range over the initial data, so a single bound suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import native
from .core import CellField, VelocityModel
from .kernels import KernelSpec, check_pairing, kernel_operator
from .report import RunReport
from .stepping import check_time_settings, integrate, solve

# Rounding-level negative velocities are admitted; anything beyond this slack
# (relative to the velocity scale) signals a mispaired orientation.
_SIGN_SLACK = 1e-9


@dataclass(frozen=True)
class NonlocalSchemeConfig:
    """Kernel, velocity and time-stepping parameters for one nonlocal run."""

    kernel: KernelSpec
    velocity: VelocityModel
    cfl: float
    t_end: float
    snapshot_times: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        times = check_time_settings(self.cfl, self.t_end, self.snapshot_times)
        times.setflags(write=False)
        object.__setattr__(self, "snapshot_times", times)
        check_pairing(self.kernel.orientation, self.velocity.mode)


def _upwind_flux(cfg: NonlocalSchemeConfig) -> native.Flux:
    """Interface flux V(W) * q, with q taken from the upwind cell.

    Downstream mode upwinds from the left (the flux velocity is nonnegative
    there); upstream mode mirrors this.  Inflow at the upwind boundary uses
    the far-field state.  Every evaluation checks the sign of V(W); NaN never
    trips it.
    """
    return native.Flux.upwind(cfg.velocity, cfg.kernel.orientation == "upstream",
                              _SIGN_SLACK * max(1.0, cfg.velocity.max_abs_speed))


def step_upwind(q: CellField, cfg: NonlocalSchemeConfig, dt: float) -> CellField:
    """One conservative upwind step of size ``dt``."""
    return integrate(q, _upwind_flux(cfg), dt, 1,
                     nonlocal_term=kernel_operator(cfg.kernel, q.grid)).final_q()


def solve_nonlocal(q0: CellField, cfg: NonlocalSchemeConfig) -> RunReport:
    """Integrate to t_end, recording TV/mass every step and the requested
    snapshots at their nearest completed steps; the initial data must lie in
    the velocity's admissible range, which starts at 0 for every family."""
    return solve(q0, cfg.velocity, cfg.velocity.max_abs_speed, _upwind_flux(cfg), cfg.cfl,
                 cfg.t_end, cfg.snapshot_times, kernel_operator(cfg.kernel, q0.grid))
