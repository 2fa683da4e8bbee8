"""The one time-stepping driver behind both solvers.

A scheme is an interface-flux function: from the cell values padded by the
two far-field states, and for nonlocal schemes the current nonlocal term, it
writes the numerical flux at all n_cells + 1 interfaces.  This is the
conservative form in which Friedrich, Kolb & Goettlich (NHM 13, 2018) write
their nonlocal Godunov-type scheme.  The driver owns everything around the
flux: the update, the per-step records, the boundary-flux integral, the
snapshot schedule and the blowup check.  Every buffer belongs to one call,
so runs are safe to execute concurrently.
"""

from __future__ import annotations

import numpy as np

from .core import CellField, InterfaceField
from .diagnostics import total_variation_of
from .errors import ConfigError, NumericalBlowupError
from .report import RunReport, Snapshot


def check_time_settings(cfl: float, t_end: float, snapshot_times=()) -> np.ndarray:
    """Require cfl in (0, 1], a positive t_end and snapshot times ascending
    within [0, t_end]; return the times as a new float array."""
    if not (0.0 < cfl <= 1.0):
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"t_end must be positive, got {t_end}")
    times = np.array(snapshot_times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0
                       or times[-1] > t_end + 1e-12):
        raise ConfigError("snapshot_times must ascend within [0, t_end]")
    return times


def frozen_step(cfl: float, dx: float, speed: float, t_end: float) -> float:
    """Time step cfl * dx / speed, shrunk so t_end is a whole number of
    steps.  A speed bound of zero means stasis: dt = t_end."""
    if speed == 0.0:
        return t_end
    dt = cfl * dx / speed
    return t_end / max(1, int(np.ceil(t_end / dt - 1e-9)))


def integrate(q0: CellField, interface_flux, dt: float, n_steps: int,
              snapshot_times=(), nonlocal_term=None) -> RunReport:
    """Integrate ``n_steps`` conservative steps of size ``dt`` from ``q0``.

    ``interface_flux(states, w, out)`` fills ``out`` with the fluxes at every
    interface; ``nonlocal_term(values)``, when given, returns the nonlocal
    term W at the interfaces and is evaluated at every step, the last
    included.  TV, mass and the q extremes are recorded every step (TV(W)
    too when W exists), and each requested snapshot at the completed step
    nearest its time; requests that land on one step share one Snapshot.
    """
    grid = q0.grid
    left, right = grid.left_farfield, grid.right_farfield
    n = grid.n_cells
    lam = dt / grid.dx
    states = np.concatenate([[left], q0.values, [right]])
    values = states[1:-1]
    fluxes = np.empty(n + 1)
    scratch = np.empty(n)
    times = np.asarray(snapshot_times, dtype=float)
    steps = (np.clip(np.rint(times / dt).astype(int), 0, n_steps) if times.size
             else [n_steps])
    wanted = np.bincount(steps, minlength=n_steps + 1).tolist()

    snapshots: list[Snapshot] = []
    tv_q = np.empty(n_steps + 1)
    tv_w = np.empty(n_steps + 1) if nonlocal_term is not None else None
    mass = np.empty(n_steps + 1)
    boundary_flux = 0.0
    q_min = np.inf
    q_max = -np.inf
    total = values.sum()

    # overflow on the way to a blowup is expected: the finiteness check
    # below reports it once, with its step, instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps + 1):
            w = nonlocal_term(values) if nonlocal_term is not None else None
            tv_q[step] = total_variation_of(values, left, right, scratch[:n - 1])
            if w is not None:
                tv_w[step] = total_variation_of(w, left, right, scratch)
            mass[step] = grid.dx * float(total)
            q_min = min(q_min, float(values.min()))
            q_max = max(q_max, float(values.max()))
            if wanted[step]:
                snap = Snapshot(time=step * dt, q=CellField(grid=grid, values=values),
                                w=None if w is None else InterfaceField(grid=grid, values=w))
                snapshots.extend([snap] * wanted[step])
            if step == n_steps:
                break
            interface_flux(states, w, fluxes)
            boundary_flux += dt * (fluxes[-1] - fluxes[0])
            jumps = np.subtract(fluxes[1:], fluxes[:-1], out=scratch)
            jumps *= lam
            values -= jumps
            # a finite sum proves every entry finite; only a non-finite one
            # needs the full scan (the sum can overflow on finite entries)
            total = values.sum()
            if not np.isfinite(total) and not np.all(np.isfinite(values)):
                raise NumericalBlowupError(
                    f"non-finite density after step {step + 1} (t = {(step + 1) * dt:g})",
                    step=step + 1,
                )

    return RunReport(
        dt_used=dt,
        n_steps=n_steps,
        snapshots=tuple(snapshots),
        tv_q_series=tv_q,
        tv_w_series=tv_w,
        mass_series=mass,
        boundary_flux_integral=boundary_flux,
        q_min_overall=q_min,
        q_max_overall=q_max,
    )
