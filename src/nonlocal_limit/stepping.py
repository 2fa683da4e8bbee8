"""The one time-stepping driver behind both solvers.

A scheme is an interface flux (a ``native.Flux``): from the cell values
padded by the two far-field states, and for nonlocal schemes the current
nonlocal term, it gives the numerical flux at all n_cells + 1 interfaces.
This is the conservative form in which Friedrich, Kolb & Goettlich (NHM 13,
2018) write their nonlocal Godunov-type scheme.  A solver passes ``solve``
its flux and its CFL speed bound; the run set-up and the driver own the rest:
the time settings, the initial-data range, the frozen step, the update, the
per-step records, the boundary-flux integral, the snapshots and the blowup
check.  The step library makes every step up to the next snapshot in one
call, updating one row of q and one of W in place and writing each step's
records; the exponential kernel's upwind runs make two steps per pass, with
a second W row.  A failed step ends the run and leaves q and W unspecified.
Every buffer belongs to one call and a ``native.Average`` holds parameters
only, so runs are safe to execute concurrently and may share one.
"""

from __future__ import annotations

import ctypes
import math
from collections import Counter

import numpy as np

from . import native
from .core import CellField, InterfaceField, VelocityModel, data_range
from .errors import ConfigError, NumericalBlowupError
from .report import RunReport, Snapshot


def check_time_settings(cfl: float, t_end: float, snapshot_times=()) -> np.ndarray:
    """Require cfl in (0, 1], a positive t_end and snapshot times strictly
    increasing within [0, t_end + 1e-12]; return them as a new float array."""
    if not (0.0 < cfl <= 1.0):
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"t_end must be positive, got {t_end}")
    times = np.array(snapshot_times, dtype=float)
    if not np.all(np.diff(times) > 0):
        raise ConfigError("snapshot_times must be strictly increasing")
    if times.size and not (times[0] >= 0 and times[-1] <= t_end + 1e-12):
        raise ConfigError(f"snapshot_times must lie in [0, t_end], got [{times[0]}, {times[-1]}]")
    return times


def frozen_step(cfl: float, dx: float, speed: float, t_end: float) -> tuple[float, int]:
    """Time step cfl * dx / speed, shrunk so t_end is a whole number of
    steps, and that number; a speed bound of zero means stasis, one step of
    t_end.  Refuses a count whose records no array can index."""
    if speed == 0.0:
        return t_end, 1
    dt = cfl * dx / speed
    count = t_end / dt - 1e-9 if dt > 0 else math.inf  # dt can underflow to 0
    if not count < np.iinfo(np.intp).max - 1:  # n_steps + 1 records
        raise ConfigError(f"cfl = {cfl:g}, t_end = {t_end:g} and dt = {dt:g} need "
                          f"{count:.3g} steps, more than an array can index")
    n_steps = max(1, math.ceil(count))
    return t_end / n_steps, n_steps


def solve(q0: CellField, velocity: VelocityModel, speed: float, interface_flux,
          cfl: float, t_end: float, snapshot_times=(), nonlocal_term=None) -> RunReport:
    """Check the time settings and that ``q0``, far-fields included, lies in
    ``velocity``'s admissible range, freeze dt from ``speed``, the scheme's
    bound on its wave speeds, and ``integrate`` to t_end."""
    times = check_time_settings(cfl, t_end, snapshot_times)
    velocity.check_admissible(data_range(q0), "initial data")
    dt, n_steps = frozen_step(cfl, q0.grid.dx, speed, t_end)
    return integrate(q0, interface_flux, dt, n_steps, times, nonlocal_term)


def integrate(q0: CellField, interface_flux: native.Flux, dt: float, n_steps: int,
              snapshot_times=(), nonlocal_term: native.Average | None = None) -> RunReport:
    """Integrate ``n_steps`` conservative steps of size ``dt`` from ``q0``.

    ``nonlocal_term``, the kernel average of an upwind flux, is evaluated at
    every step, the last included.  TV, mass and the q extremes are recorded
    every step (TV(W) too when W exists), and each requested snapshot at the
    completed step nearest its time; requests that land on one step share
    one Snapshot.  The library records step 0, then each call steps to the
    next distinct snapshot step or to the last step.
    """
    grid = q0.grid
    n = grid.n_cells
    if (nonlocal_term is None) != (interface_flux.scheme == native.GODUNOV) or (
            nonlocal_term is not None and nonlocal_term.n != n):
        raise ValueError("an upwind flux needs the kernel average of its grid, "
                         "the Godunov flux none")
    # one row each of q and W, the far-field states in their end columns: the
    # seams of TV, and for q the flux's inflow
    left, right = grid.left_farfield, grid.right_farfield
    q = np.concatenate([[left], q0.values, [right]])
    w = None if nonlocal_term is None else np.concatenate([[left], np.empty(n + 1), [right]])
    tv_q, mass = np.empty(n_steps + 1), np.empty(n_steps + 1)
    tv_w = None if w is None else np.empty(n_steps + 1)
    # held for the run: the rows above, the fluxes, scratch, and with an average
    # a second W row, used only by the exponential kernel's two-step pass
    w2 = None if w is None else np.empty(n + 3)
    arrays = (q, w, tv_q, tv_w, mass, np.empty(n + 1), np.empty(n + 2), w2)
    run = native.Run(ctypes.addressof(interface_flux),
                     None if nonlocal_term is None else ctypes.addressof(nonlocal_term), n,
                     grid.dx, dt, *(None if a is None else a.ctypes.data for a in arrays),
                     q_min=np.inf, q_max=-np.inf)
    times = np.asarray(snapshot_times, dtype=float)
    wanted = Counter(np.clip(np.rint(times / dt).astype(int), 0, n_steps).tolist()
                     if times.size else [n_steps])

    # each requested step's q field; its W field, which refuses a non-finite
    # W, is built from it by the run's own average once the run has ended, so
    # that the run's own errors come first
    held = []
    step = 0
    for stop in sorted({0, *wanted, n_steps}):
        step = native.lib.nl_advance(ctypes.byref(run), step, stop - step)
        if run.error == 1:
            raise interface_flux.violation(run.extreme)
        if run.error:
            step += 1
            raise NumericalBlowupError(
                f"non-finite density after step {step} (t = {step * dt:g})", step=step)
        if wanted[stop]:
            held.append((stop, CellField(grid=grid, values=q[1:-1])))
    snapshots: list[Snapshot] = []
    for stop, q_field in held:
        snap = Snapshot(time=stop * dt, q=q_field, w=None if w is None else InterfaceField(
            grid=grid, values=nonlocal_term(q_field.values)))
        snapshots.extend([snap] * wanted[stop])

    return RunReport(
        dt_used=dt,
        n_steps=n_steps,
        snapshots=tuple(snapshots),
        tv_q_series=tv_q,
        tv_w_series=tv_w,
        mass_series=mass,
        boundary_flux_integral=run.boundary,
        q_min_overall=run.q_min,
        q_max_overall=run.q_max,
    )
