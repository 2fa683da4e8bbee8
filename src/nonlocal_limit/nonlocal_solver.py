"""First-order upwind finite-volume integration of the nonlocal law.

The scheme is its interface flux: the flux velocity at each interface is the
kernel average of the current density, times the upwind cell value.  The
shared driver in ``stepping`` applies it conservatively, so mass change
equals the boundary-flux integral exactly (up to rounding).  A run uses one
frozen time step: the velocity range over the run is contained in the
velocity range over the initial data, so a single bound suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CellField, VelocityModel, data_range
from .errors import ModeViolationError
from .kernels import KernelSpec, check_pairing, kernel_operator
from .report import RunReport
from .stepping import check_time_settings, frozen_step, integrate

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


def cfl_dt(q0: CellField, cfg: NonlocalSchemeConfig) -> float:
    """Frozen time step cfl * dx / max|V|, shrunk so t_end is a whole number
    of steps.  A velocity bound of zero means stasis: dt = t_end."""
    cfg.velocity.check_admissible(data_range(q0), "initial data")
    return frozen_step(cfg.cfl, q0.grid.dx, cfg.velocity.max_abs_speed, cfg.t_end)


def _interface_speeds(w_values: np.ndarray, cfg: NonlocalSchemeConfig,
                      slack: float) -> np.ndarray:
    speeds = np.asarray(cfg.velocity.eval(w_values), dtype=float)
    if cfg.kernel.orientation == "downstream":
        if float(speeds.min()) < -slack:
            raise ModeViolationError(
                f"flux velocity fell to {float(speeds.min()):g} < 0 in "
                "downstream mode; kernel orientation and velocity model are "
                "mispaired"
            )
    else:
        if float(speeds.max()) > slack:
            raise ModeViolationError(
                f"flux velocity rose to {float(speeds.max()):g} > 0 in "
                "upstream mode; kernel orientation and velocity model are "
                "mispaired"
            )
    return speeds


def _upwind_flux(cfg: NonlocalSchemeConfig):
    """Interface flux V(W) * q, with q taken from the upwind cell.

    Downstream mode upwinds from the left (the flux velocity is nonnegative
    there); upstream mode mirrors this.  Inflow at the upwind boundary uses
    the far-field state.  Every call checks the sign of V(W); NaN never trips it.
    """
    slack = _SIGN_SLACK * max(1.0, cfg.velocity.max_abs_speed)
    downstream = cfg.kernel.orientation == "downstream"
    speed = cfg.velocity.eval

    def interface_flux(states: np.ndarray, w: np.ndarray, out: np.ndarray):
        speeds = speed(w)
        if (np.minimum.reduce(speeds) < -slack if downstream
                else np.maximum.reduce(speeds) > slack):
            _interface_speeds(w, cfg, slack)  # raises the mode violation
        np.multiply(speeds, states[:-1] if downstream else states[1:], out=out)

    return interface_flux


def step_upwind(q: CellField, cfg: NonlocalSchemeConfig, dt: float) -> CellField:
    """One conservative upwind step of size ``dt``."""
    return integrate(q, _upwind_flux(cfg), dt, 1,
                     nonlocal_term=kernel_operator(cfg.kernel, q.grid)).final_q()


def solve_nonlocal(q0: CellField, cfg: NonlocalSchemeConfig) -> RunReport:
    """Integrate to t_end, recording TV/mass every step and the requested
    snapshots at their nearest completed steps.

    Requires nonnegative initial data (far-fields included), matching the
    admissibility assumptions behind the declared orientation pairing.
    """
    floor, _ = data_range(q0)
    if floor < -1e-12 * max(1.0, float(np.max(np.abs(q0.values)))):
        raise ValueError("initial data must be nonnegative")
    dt = cfl_dt(q0, cfg)
    n_steps = max(1, int(round(cfg.t_end / dt)))
    return integrate(q0, _upwind_flux(cfg), dt, n_steps, cfg.snapshot_times,
                     nonlocal_term=kernel_operator(cfg.kernel, q0.grid))
